"""Statistical plumbing: Silverman KDE, Jensen-Shannon divergence, Pearson
correlation, Benjamini-Hochberg, the joint-entropy null model, region-balanced
subsampling, and n-gram melodic similarity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import MelicError
from .viewpoints import symbols_of


# --- kernel density estimation ---------------------------------------------

@dataclass(frozen=True)
class KDEResult:
    grid: np.ndarray
    density: np.ndarray


def silverman_bandwidth(samples: np.ndarray) -> float:
    """h = 0.9 * min(sigma, IQR/1.34) * n^(-1/5); the KDE needs at least 2
    samples and a spread above 0."""
    n = samples.size
    if n < 2:
        raise MelicError("KDE needs at least 2 samples")
    sigma = samples.std(ddof=1)
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = q75 - q25
    spread = min(sigma, iqr / 1.34) if iqr > 0 else sigma
    h = 0.9 * spread * n ** (-0.2)
    if h <= 0:
        raise MelicError("zero-spread samples: the density is a delta, not a KDE")
    return h


_KDE_BLOCK = 16  # grid points per block: memory is one block's window, not grid x samples
_KDE_REACH = 39.0  # exp(-0.5 z*z) is exactly 0.0 in float64 once |z| > ~38.6


def kde_silverman(samples, grid: np.ndarray | None = None) -> KDEResult:
    """Gaussian KDE with Silverman bandwidth, renormalized on the grid.

    Samples outside the grid are moved to the nearest grid boundary rather
    than losing their mass; the default grid, min - 4h to max + 4h, holds
    every sample. A given grid must hold at least 2 strictly increasing
    points. Each grid point sums only the samples within _KDE_REACH * h of
    it: every term left out is exactly 0.
    """
    samples = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples, dtype=float)
    h = silverman_bandwidth(samples)
    if grid is None:
        lo = samples.min() - 4 * h
        hi = samples.max() + 4 * h
        grid = np.linspace(lo, hi, 512)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.size < 2 or not (np.diff(grid) > 0).all():
            raise MelicError("KDE grid must hold at least 2 strictly increasing points")
    samples = np.sort(np.clip(samples, grid[0], grid[-1]))
    starts = np.searchsorted(samples, grid - _KDE_REACH * h)
    ends = np.searchsorted(samples, grid + _KDE_REACH * h, side="right")
    sums = np.empty(grid.size)
    for i in range(0, grid.size, _KDE_BLOCK):
        rows = grid[i : i + _KDE_BLOCK]
        # the windows move up with the grid: one slice holds every row's window
        z = (rows[:, None] - samples[None, starts[i] : ends[i + rows.size - 1]]) / h
        sums[i : i + rows.size] = np.exp(-0.5 * z * z).sum(axis=1)
    dens = sums / (samples.size * h * np.sqrt(2 * np.pi))
    step = grid[1] - grid[0]
    total = dens.sum() * step
    if total <= 0:
        raise MelicError("all sample mass falls outside the evaluation grid")
    return KDEResult(grid=grid, density=dens / total)


# --- divergences and correlation -------------------------------------------

def _hist_entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def jsd(p, q) -> float:
    """Jensen-Shannon divergence in bits between two histograms on shared bins:
    exactly 1 where they share no bin, else clamped to [0, 1] against rounding."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise MelicError(f"binning mismatch: {p.shape} vs {q.shape}")
    if p.sum() <= 0 or q.sum() <= 0:
        raise MelicError("empty histogram")
    if not ((p > 0) & (q > 0)).any():
        return 1.0
    p = p / p.sum()
    q = q / q.sum()
    m = 0.5 * (p + q)
    return min(1.0, max(0.0, _hist_entropy(m) - 0.5 * (_hist_entropy(p) + _hist_entropy(q))))


def _pearson_r(x, y) -> float:
    """Product-moment r of at least 3 paired points, each side with variance;
    an r at or beyond +-1 by rounding is exactly +-1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise MelicError("length mismatch")
    if x.size < 3:
        raise MelicError("need at least 3 points")
    if x.std() == 0 or y.std() == 0:
        raise MelicError("zero variance")
    r = float(np.corrcoef(x, y)[0, 1])
    return r if abs(r) < 1.0 else (1.0 if r > 0 else -1.0)


def pearson(x, y) -> tuple[float, float]:
    """Product-moment r with a two-sided Student-t p-value."""
    r = _pearson_r(x, y)
    if abs(r) == 1.0:
        return r, 0.0
    # scipy.stats.t.sf(x, df) is special.stdtr(df, -x); importing scipy.special
    # here, not scipy.stats at module level, keeps ~1 s off every CLI start
    from scipy.special import stdtr

    n = np.size(x)
    t = r * np.sqrt((n - 2) / (1 - r * r))
    p = 2 * float(stdtr(n - 2, -abs(t)))
    return r, p


def benjamini_hochberg(pvals, q: float) -> list[bool]:
    """Step-up FDR control; flags returned in original index order."""
    pvals = list(pvals)
    if any(not 0 <= p <= 1 for p in pvals):
        raise MelicError("p-values must lie in [0, 1]")
    if not 0 < q < 1:
        raise MelicError("q must lie in (0, 1)")
    m = len(pvals)
    order = sorted(range(m), key=lambda i: pvals[i])
    k_max = 0
    for rank, i in enumerate(order, start=1):
        if pvals[i] <= rank * q / m:
            k_max = rank
    flags = [False] * m
    for rank, i in enumerate(order, start=1):
        if rank <= k_max:
            flags[i] = True
    return flags


# --- corpus-level operations -----------------------------------------------

@dataclass(frozen=True)
class CorpusMeans:
    corpus_id: str
    h_chroma: float
    h_duration: float
    i_chroma_duration: float
    region: str = ""


@dataclass(frozen=True)
class JointNullResult:
    null_variance: float
    empirical_variance: float
    ratio: float
    degenerate: bool = False


_MAX_NULL_SAMPLES = 10**7  # joint-entropy null draws at most: a run at the limit peaks near 270 MiB


def joint_entropy_null(means: list[CorpusMeans], n_samples: int = 10000, rng=None) -> JointNullResult:
    """Null joint-entropy distribution assuming independent pitch entropy,
    rhythm entropy and mutual information pools; H(C,D) = H(C) + H(D) - I."""
    if len(means) < 2:
        raise MelicError("need at least 2 corpora")
    if not 1 <= n_samples <= _MAX_NULL_SAMPLES:
        bound = ">= 1" if n_samples < 1 else f"<= {_MAX_NULL_SAMPLES}"
        raise MelicError(f"n_samples must be {bound}, got {n_samples}")
    if rng is None:
        raise MelicError("the joint-entropy null requires an explicit rng")
    hc = np.array([m.h_chroma for m in means])
    hd = np.array([m.h_duration for m in means])
    mi = np.array([m.i_chroma_duration for m in means])
    n = len(means)
    null = (
        hc[rng.integers(0, n, n_samples)]
        + hd[rng.integers(0, n, n_samples)]
        - mi[rng.integers(0, n, n_samples)]
    )
    emp = hc + hd - mi
    null_var = float(null.var())
    emp_var = float(emp.var())
    if null_var == 0.0:
        return JointNullResult(0.0, emp_var, 1.0, degenerate=True)
    ratio = null_var / emp_var if emp_var > 0 else float("inf")
    return JointNullResult(null_var, emp_var, ratio)


def region_balanced_correlation(
    means: list[CorpusMeans], max_per_region: int, n_resamples: int = 1000, rng=None
) -> tuple[float, tuple[float, float]]:
    """Pearson r between pitch and rhythm entropy under region-capped
    resampling; returns (mean r, 2.5/97.5 percentile CI)."""
    if max_per_region < 1:
        raise MelicError("max_per_region must be >= 1")
    if n_resamples < 1:
        raise MelicError(f"n_resamples must be >= 1, got {n_resamples}")
    regions: dict[str, list[CorpusMeans]] = {}
    for m in means:
        regions.setdefault(m.region, []).append(m)
    if len(regions) < 2:
        raise MelicError("need at least 2 regions")
    if rng is None:
        raise MelicError("region-balanced resampling requires an explicit rng")
    rs = []
    for _ in range(n_resamples):
        kept: list[CorpusMeans] = []
        for _, group in sorted(regions.items()):
            if len(group) <= max_per_region:
                kept.extend(group)
            else:
                idx = rng.choice(len(group), size=max_per_region, replace=False)
                kept.extend(group[i] for i in idx)
        rs.append(_pearson_r([m.h_chroma for m in kept], [m.h_duration for m in kept]))
    rs = np.array(rs)
    lo, hi = np.percentile(rs, [2.5, 97.5])
    return float(rs.mean()), (float(lo), float(hi))


@dataclass(frozen=True)
class SimilarityReport:
    n_matches: int
    enrichment: float | None
    expected_paper: float
    expected_fixed_query: float


def ngram_query(query, n: int) -> tuple[tuple, int]:
    """The query's leading n-gram and its alphabet size; n must be >= 2 and
    the query at least n symbols long."""
    if n < 2:
        raise MelicError("n must be >= 2")
    syms = symbols_of(query)
    if len(syms) < n:
        raise MelicError(f"query shorter than n={n}")
    return syms[:n], len(set(syms))


def ngram_similarity(query, targets, n: int = 10) -> SimilarityReport:
    """Count the target symbol sequences containing the query's leading
    n-gram, against the chance expectation A^(-2n) per candidate position.

    expected_fixed_query uses the A^(-n) fixed-query convention alongside the
    two-random-sequences figure, so both numbers are visible.
    """
    gram, a = ngram_query(query, n)
    p_paper = float(a) ** (-2 * n)
    p_fixed = float(a) ** (-n)
    n_matches = 0
    exp_paper = 0.0
    exp_fixed = 0.0
    for target in targets:
        positions = len(target) - n + 1
        if positions < 1:
            continue
        exp_paper += p_paper * positions
        exp_fixed += p_fixed * positions
        if any(target[i : i + n] == gram for i in range(positions)):
            n_matches += 1
    enrichment = n_matches / exp_paper if exp_paper > 0 else None
    return SimilarityReport(
        n_matches=n_matches,
        enrichment=enrichment,
        expected_paper=exp_paper,
        expected_fixed_query=exp_fixed,
    )
