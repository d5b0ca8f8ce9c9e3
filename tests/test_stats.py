"""KDE, JSD, Pearson, Benjamini-Hochberg, null models, similarity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melic.corpus import MelicError
from melic.stats import (
    CorpusMeans,
    benjamini_hochberg,
    joint_entropy_null,
    jsd,
    kde_silverman,
    ngram_similarity,
    pearson,
    percentiles,
    region_balanced_correlation,
    silverman_bandwidth,
)
from melic.viewpoints import ViewpointKind, ViewpointSequence, extract_viewpoint

from conftest import corpus_of, melody_from_pitches


# --- KDE --------------------------------------------------------------------

def test_silverman_bandwidth_formula():
    samples = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    sigma = samples.std(ddof=1)
    iqr = 2.0
    expected = 0.9 * min(sigma, iqr / 1.34) * 5 ** (-0.2)
    assert silverman_bandwidth(samples) == pytest.approx(expected)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5000), st.integers(0, 2**32 - 1), st.integers(1, 10**6))
def test_percentiles_are_numpys_linear_rule(n, seed, levels):
    # few levels give many ties; the order of the sample does not matter
    rng = np.random.default_rng(seed)
    samples = rng.integers(-levels, levels + 1, n) * rng.uniform(1e-3, 1e3)
    qs = [2.5, 25, 75, 97.5]
    assert percentiles(samples, qs) == np.percentile(samples, qs).tolist()


def test_kde_integrates_to_one():
    rng = np.random.default_rng(0)
    res = kde_silverman(rng.normal(size=2000))
    step = res.grid[1] - res.grid[0]
    assert res.density.sum() * step == pytest.approx(1.0, abs=1e-6)


def test_kde_matches_normal_density():
    rng = np.random.default_rng(1)
    res = kde_silverman(rng.normal(size=10000))
    at_zero = res.density[np.argmin(np.abs(res.grid))]
    assert at_zero == pytest.approx(1 / math.sqrt(2 * math.pi), rel=0.05)


def test_kde_two_sample_symmetry():
    res = kde_silverman([0.0, 1.0])
    step = res.grid[1] - res.grid[0]
    mean = (res.grid * res.density).sum() * step
    assert mean == pytest.approx(0.5, abs=1e-6)


def test_kde_errors():
    with pytest.raises(MelicError, match="2 samples"):
        kde_silverman([1.0])
    with pytest.raises(MelicError, match="delta"):
        kde_silverman([2.0, 2.0, 2.0])


def full_matrix_kde(samples, grid=None):
    """Oracle: the whole grid x samples kernel matrix, summed row by row."""
    samples = np.asarray(samples, dtype=float)
    h = silverman_bandwidth(samples)
    if grid is None:
        grid = np.linspace(samples.min() - 4 * h, samples.max() + 4 * h, 512)
    samples = np.clip(samples, grid[0], grid[-1])
    z = (grid[:, None] - samples[None, :]) / h
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (samples.size * h * np.sqrt(2 * np.pi))
    return grid, dens / (dens.sum() * (grid[1] - grid[0]))


_H_GRID = np.arange(0.0025, 5.0, 0.005)  # genmodel scale's 1000-point grid of 0.005-bit bins


def _kde_cases():
    rng = np.random.default_rng(4)
    yield pytest.param(rng.normal(size=3000), None, 0, id="default-grid")
    # entropies partly below and above the grid, moved to its ends
    yield pytest.param(rng.normal(2.5, 1.6, size=5000), _H_GRID, 0, id="clipped")
    # a tight cluster and a far one: the gap between them is many times 78h
    # wide, so whole blocks of 16 grid points sum no sample at all
    gap = np.concatenate([rng.normal(0.0, 0.1, 900), rng.normal(50.0, 0.1, 100)])
    yield pytest.param(gap, None, 16, id="gap")


@pytest.mark.parametrize("samples, grid, min_zeros", _kde_cases())
def test_kde_matches_the_full_matrix(samples, grid, min_zeros):
    res = kde_silverman(samples, grid=grid)
    oracle_grid, oracle = full_matrix_kde(samples, grid)
    assert (res.grid == oracle_grid).all()
    # only the order of the sums differs, and the zeros are the same zeros
    np.testing.assert_allclose(res.density, oracle, rtol=1e-12, atol=0)
    assert (oracle == 0).sum() >= min_zeros


def test_kde_memory_does_not_grow_with_the_grid():
    # the full matrix would take 20,000 x 1000 x 8 bytes = 160 MB per temporary
    samples = np.random.default_rng(5).normal(2.5, 1.0, size=20_000)
    tracemalloc.start()
    try:
        kde_silverman(samples, grid=_H_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("grid", [[0.5], [], [1.0, 0.5, 0.0], [0.0, 0.5, 0.5, 1.0], [0.0, np.nan, 1.0]])
def test_kde_rejects_a_grid_that_is_not_strictly_increasing(grid):
    with pytest.raises(MelicError, match="^KDE grid must hold at least 2 strictly increasing points$"):
        kde_silverman([0.1, 0.4, 0.7], grid=np.array(grid))


def test_kde_clamp_keeps_mass():
    grid = np.linspace(0, 1, 200)
    res = kde_silverman([5.0, 6.0], grid=grid)
    step = grid[1] - grid[0]
    assert res.density.sum() * step == pytest.approx(1.0, abs=1e-6)


# --- JSD --------------------------------------------------------------------

def test_jsd_oracles():
    assert jsd([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0, abs=1e-12)
    assert jsd([1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-12)
    # closed form: H([3/4, 1/4]) - 1/2
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)) - 0.5
    assert jsd([1, 0], [0.5, 0.5]) == pytest.approx(expected, abs=1e-9)


def test_jsd_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rng.random(8)
        q = rng.random(8)
        assert jsd(p, q) == pytest.approx(jsd(q, p), abs=1e-12)
        assert 0.0 <= jsd(p, q) <= 1.0


def test_jsd_of_histograms_that_share_no_bin_is_exactly_1():
    # the entropy difference H(m) - (H(p) + H(q))/2 misses 1 by rounding on
    # about half of such pairs
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(2, 201))
        bins = rng.permutation(k)
        cut = int(rng.integers(1, k))
        p, q = np.zeros(k), np.zeros(k)
        p[bins[:cut]] = rng.integers(1, 50, cut)
        q[bins[cut:]] = rng.integers(1, 50, k - cut)
        assert jsd(p, q) == 1.0


def test_jsd_errors():
    with pytest.raises(MelicError, match="mismatch"):
        jsd([1, 2], [1, 2, 3])
    with pytest.raises(MelicError, match="empty"):
        jsd([0, 0], [1, 1])


# --- Pearson ----------------------------------------------------------------

def t_sf_oracle(t, df):
    """Survival function of Student-t via numerical integration of the pdf."""
    const = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    xs = np.linspace(t, t + 60, 400001)
    pdf = const * (1 + xs * xs / df) ** (-(df + 1) / 2)
    return float(np.trapezoid(pdf, xs))


def test_pearson_exact_linear():
    x = [1.0, 2.0, 3.0, 4.0]
    r, p = pearson(x, [2 * v for v in x])
    assert r == 1.0 and p == 0.0
    r, p = pearson(x, [-v + 7 for v in x])
    assert r == -1.0 and p == 0.0


def test_pearson_p_value_oracle():
    # construct data with r = 0.5 exactly, n = 12
    rng = np.random.default_rng(3)
    x = rng.normal(size=12)
    z = rng.normal(size=12)
    x = (x - x.mean()) / x.std()
    z = z - z.mean()
    z -= x * (x @ z) / (x @ x)  # orthogonalize
    z /= z.std()
    r_target = 0.5
    y = r_target * x + math.sqrt(1 - r_target**2) * z
    r, p = pearson(x, y)
    assert r == pytest.approx(0.5, abs=1e-9)
    t = 0.5 * math.sqrt(10 / (1 - 0.25))
    assert p == pytest.approx(2 * t_sf_oracle(t, 10), abs=1e-6)
    assert p == pytest.approx(0.0976, abs=5e-4)


def test_pearson_p_value_is_scipy_t_sf_bit_for_bit():
    from scipy import stats as sps

    rng = np.random.default_rng(21)
    for n in (3, 4, 5, 8, 13, 30, 100, 300):
        for r_target in (-0.99, -0.7, -0.3, -0.05, 0.0, 0.1, 0.5, 0.9, 0.999):
            x = rng.normal(size=n)
            y = r_target * x + math.sqrt(1 - r_target**2) * rng.normal(size=n)
            r, p = pearson(x, y)
            t = r * np.sqrt((n - 2) / (1 - r * r))
            assert p == 2 * float(sps.t.sf(abs(t), n - 2)), (n, r)


def test_pearson_errors():
    with pytest.raises(MelicError, match="^need at least 3 points$"):
        pearson([1, 2], [1, 2])
    with pytest.raises(MelicError, match="^zero variance$"):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(MelicError, match="^length mismatch$"):
        pearson([1, 2, 3], [1, 2])


# --- Benjamini-Hochberg -----------------------------------------------------

def test_bh_oracles():
    assert benjamini_hochberg([0.01, 0.02, 0.04], 0.05) == [True, True, True]
    assert benjamini_hochberg([1.0, 1.0, 1.0], 0.05) == [False, False, False]
    assert benjamini_hochberg([0.04], 0.05) == [True]
    # step-up: a late small rank rescues earlier ones
    assert benjamini_hochberg([0.04, 0.001, 0.9], 0.05) == [False, True, False]


def test_bh_contains_bonferroni():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(1, 20))
        pvals = list(rng.random(m))
        q = 0.1
        bh = benjamini_hochberg(pvals, q)
        bonf = [p <= q / m for p in pvals]
        assert all(b or not bo for b, bo in zip(bh, bonf))


def test_bh_validation():
    with pytest.raises(MelicError, match=r"^p-values must lie in \[0, 1\]$"):
        benjamini_hochberg([1.5], 0.05)
    with pytest.raises(MelicError, match=r"^q must lie in \(0, 1\)$"):
        benjamini_hochberg([0.5], 1.0)


# --- joint-entropy null -----------------------------------------------------

def means_fixture(rows):
    return [
        CorpusMeans(corpus_id=f"c{i}", h_chroma=hc, h_duration=hd, i_chroma_duration=mi, region=reg)
        for i, (hc, hd, mi, reg) in enumerate(rows)
    ]


def test_joint_null_degenerate():
    means = means_fixture([(2.0, 1.0, 0.5, "a")] * 4)
    res = joint_entropy_null(means, n_samples=100, rng=np.random.default_rng(0))
    assert res.degenerate and res.ratio == 1.0 and res.null_variance == 0.0


def test_joint_null_anticorrelated_pools_inflate_variance():
    # H_chroma + H_duration constant empirically: null breaks the coupling
    rows = [(2.0 + d, 2.0 - d, 0.0, "a") for d in np.linspace(-0.8, 0.8, 10)]
    res = joint_entropy_null(means_fixture(rows), n_samples=20000, rng=np.random.default_rng(1))
    assert res.empirical_variance == pytest.approx(0.0, abs=1e-12)
    assert res.null_variance > 0.1


def test_joint_null_independent_pools_additive():
    rng = np.random.default_rng(2)
    rows = [(float(a), float(b), float(c), "a") for a, b, c in rng.random((200, 3))]
    means = means_fixture(rows)
    res = joint_entropy_null(means, n_samples=200000, rng=rng)
    hc = np.array([m.h_chroma for m in means])
    hd = np.array([m.h_duration for m in means])
    mi = np.array([m.i_chroma_duration for m in means])
    expected = hc.var() + hd.var() + mi.var()
    assert res.null_variance == pytest.approx(expected, rel=0.05)


def test_joint_null_needs_two():
    with pytest.raises(MelicError, match="^need at least 2 corpora$"):
        joint_entropy_null(means_fixture([(1, 1, 0, "a")]))


def test_joint_null_needs_an_rng():
    with pytest.raises(MelicError, match="^the joint-entropy null requires an explicit rng$"):
        joint_entropy_null(means_fixture([(1.0, 3.0, 0.1, "a"), (2.0, 2.5, 0.2, "b")]))


# --- region-balanced correlation --------------------------------------------

def test_region_balance_reduces_to_plain_pearson():
    rows = [(1.0, 3.0, 0, "a"), (2.0, 2.5, 0, "b"), (3.0, 1.0, 0, "c"), (4.0, 0.5, 0, "d")]
    means = means_fixture(rows)
    mean_r, (lo, hi) = region_balanced_correlation(
        means, max_per_region=2, n_resamples=20, rng=np.random.default_rng(0)
    )
    plain, _ = pearson([r[0] for r in rows], [r[1] for r in rows])
    assert mean_r == pytest.approx(plain, abs=1e-12)
    assert lo == pytest.approx(hi)


def test_region_balance_negative_correlation_ci():
    rng = np.random.default_rng(5)
    rows = []
    for i in range(40):
        h = rng.uniform(1, 3)
        rows.append((h, 4 - h + rng.normal(0, 0.05), 0.0, f"r{i % 5}"))
    mean_r, (lo, hi) = region_balanced_correlation(
        means_fixture(rows), max_per_region=3, n_resamples=300, rng=rng
    )
    assert mean_r < -0.9 and hi < 0


def test_region_balance_validation():
    means = means_fixture([(1, 1, 0, "a"), (2, 2, 0, "b")])
    with pytest.raises(MelicError, match="^max_per_region must be >= 1$"):
        region_balanced_correlation(means, max_per_region=0)
    with pytest.raises(MelicError, match="^need at least 2 regions$"):
        region_balanced_correlation(means_fixture([(1, 1, 0, "a"), (2, 2, 0, "a")]), 1)


def test_region_balance_needs_an_rng():
    means = means_fixture([(1.0, 3.0, 0, "a"), (2.0, 2.5, 0, "b"), (3.0, 1.0, 0, "c")])
    with pytest.raises(MelicError, match="^region-balanced resampling requires an explicit rng$"):
        region_balanced_correlation(means, max_per_region=1)


# --- n-gram similarity ------------------------------------------------------

def _mint_targets(corpus):
    return [extract_viewpoint(m, ViewpointKind.MINT).symbols for m in corpus.melodies]


def test_similarity_verbatim_query_matches():
    rng = np.random.default_rng(6)
    mels = [
        melody_from_pitches(f"m{i}", list(60 + np.cumsum(rng.integers(-3, 4, 20))))
        for i in range(10)
    ]
    corpus = corpus_of(mels)
    query = extract_viewpoint(mels[3], ViewpointKind.MINT)
    rep = ngram_similarity(query, _mint_targets(corpus), n=5)
    assert rep.n_matches >= 1
    assert rep.enrichment == pytest.approx(rep.n_matches / rep.expected_paper)


def test_similarity_chance_formulas():
    # alphabet of 5 distinct intervals, n = 10
    syms = tuple([1, 2, 3, 4, -1] * 4)
    query = ViewpointSequence(ViewpointKind.MINT, syms)
    corpus = corpus_of([melody_from_pitches("m", list(60 + np.cumsum([1] * 30)))])
    rep = ngram_similarity(query, _mint_targets(corpus), n=10)
    # 29 intervals in the target melody -> 20 candidate windows
    assert rep.expected_paper == pytest.approx(5.0 ** (-20) * (29 - 10 + 1))
    assert rep.expected_fixed_query == pytest.approx(5.0 ** (-10) * (29 - 10 + 1))


def test_similarity_agrees_with_naive_scan():
    rng = np.random.default_rng(7)
    mels = [
        melody_from_pitches(f"m{i}", list(60 + np.cumsum(rng.integers(-2, 3, 15))))
        for i in range(30)
    ]
    corpus = corpus_of(mels)
    query = extract_viewpoint(mels[0], ViewpointKind.MINT)
    n = 4
    rep = ngram_similarity(query, _mint_targets(corpus), n=n)
    gram = query.symbols[:n]
    naive = sum(
        any(
            extract_viewpoint(m, ViewpointKind.MINT).symbols[i : i + n] == gram
            for i in range(len(extract_viewpoint(m, ViewpointKind.MINT).symbols) - n + 1)
        )
        for m in mels
    )
    assert rep.n_matches == naive


def test_similarity_validation():
    query = ViewpointSequence(ViewpointKind.MINT, (1, 2, 3))
    corpus = corpus_of([melody_from_pitches("m", [60, 62, 64])])
    with pytest.raises(MelicError, match="^n must be >= 2$"):
        ngram_similarity(query, _mint_targets(corpus), n=1)
    with pytest.raises(MelicError, match="^query shorter than n=9$"):
        ngram_similarity(query, _mint_targets(corpus), n=9)
