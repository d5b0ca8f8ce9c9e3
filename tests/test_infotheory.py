"""Entropy, Gini, mutual information, and the entropy lower bound."""

import functools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melic.corpus import MelicError
from melic.infotheory import (
    Distribution,
    _plugin_entropy,
    distribution_of,
    entropy,
    entropy_lower_bound,
    entropy_of,
    gini,
    mutual_information_excess,
)
from melic.viewpoints import ViewpointKind, extract_viewpoint, pairs_of, symbols_of

from conftest import melody_from_pitches


def uniform(a):
    return Distribution(alphabet=tuple(range(a)), probs=(1.0 / a,) * a)


def gini_pairwise(probs):
    """Mean-absolute-difference oracle: G = sum_ij |p_i - p_j| / (2A)."""
    p = np.asarray(probs)
    return float(np.abs(p[:, None] - p[None, :]).sum() / (2 * p.size))


def test_distribution_of_counts_and_order():
    d = distribution_of(("b", "a", "b", "c"))
    assert d.alphabet == ("a", "b", "c")
    assert d.probs == (0.25, 0.5, 0.25)


def test_distribution_validation():
    with pytest.raises(MelicError, match="^cannot build a distribution from an empty sequence$"):
        distribution_of(())
    with pytest.raises(MelicError, match=r"^probabilities sum to 1\.2, not 1$"):
        Distribution(alphabet=(0, 1), probs=(0.6, 0.6))
    with pytest.raises(MelicError, match="^negative probability$"):
        Distribution(alphabet=(0, 1), probs=(-0.5, 1.5))


def test_entropy_uniform_and_degenerate():
    assert entropy(uniform(8)) == pytest.approx(3.0, abs=1e-12)
    h = entropy(uniform(1))
    assert h == 0.0 and math.copysign(1, h) == 1.0  # no negative zero


def test_gini_uniform_zero_and_skewed():
    assert gini(uniform(5)) == pytest.approx(0.0, abs=1e-12)
    d = Distribution(alphabet=(0, 1), probs=(0.25, 0.75))
    assert gini(d) == pytest.approx(0.25, abs=1e-12)  # |0.75-0.25| / (2*2) * 2


def test_gini_matches_pairwise_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.integers(2, 20)
        p = rng.dirichlet(np.ones(a))
        d = Distribution(alphabet=tuple(range(a)), probs=tuple(p))
        assert gini(d) == pytest.approx(gini_pairwise(p), abs=1e-9)


def test_gini_approaches_its_supremum_from_below():
    # over distributions on A symbols the Gini supremum is (A - 1) / A, 0.75 for
    # A = 4; a nearly-degenerate distribution approaches it
    eps = 1e-9
    d = Distribution(alphabet=(0, 1, 2, 3), probs=(1 - 3 * eps, eps, eps, eps))
    assert gini(d) < 0.75
    assert gini(d) == pytest.approx(0.75, abs=1e-6)


def exhaustive_min_entropy(a, length):
    """Minimum entropy over every composition of `length` into `a` positive counts."""
    best = math.inf

    def rec(remaining, parts, counts):
        nonlocal best
        if parts == 1:
            cs = counts + [remaining]
            h = -sum(c / length * math.log2(c / length) for c in cs)
            best = min(best, h)
            return
        for c in range(1, remaining - parts + 2):
            rec(remaining - c, parts - 1, counts + [c])

    rec(length, a, [])
    return best


def test_entropy_lower_bound_small_exhaustive():
    for length in range(1, 9):
        for a in range(1, length + 1):
            assert entropy_lower_bound(a, length) == pytest.approx(
                exhaustive_min_entropy(a, length), abs=1e-12
            )


def test_entropy_lower_bound_validation():
    with pytest.raises(MelicError, match="^need 1 <= A <= L, got A=5, L=4$"):
        entropy_lower_bound(5, 4)
    with pytest.raises(MelicError, match="^need 1 <= A <= L, got A=0, L=4$"):
        entropy_lower_bound(0, 4)


def test_mutual_information_identical_sequences():
    seq = (0, 1, 2, 0, 1, 2)
    i_obs, _, _ = mutual_information_excess(seq, seq, n_shuffles=0)
    assert i_obs == pytest.approx(entropy_of(seq), abs=1e-12)


def test_mutual_information_shuffle_null_near_zero():
    rng = np.random.default_rng(5)
    x = tuple(rng.integers(0, 4, 200))
    y = tuple(rng.integers(0, 4, 200))
    i_obs, i_ran, i_star = mutual_information_excess(x, y, n_shuffles=20, rng=rng)
    assert i_obs >= 0
    assert abs(i_star) < 0.05


def test_mutual_information_errors():
    with pytest.raises(MelicError, match="^length mismatch: 2 vs 1$"):
        mutual_information_excess((0, 1), (0,), n_shuffles=0)
    with pytest.raises(MelicError, match="^shuffled null requires an explicit rng$"):
        mutual_information_excess((0, 1), (0, 1), n_shuffles=2)  # rng required


# --- MI against the tuple-of-symbols oracle -------------------------------------

def _oracle_mi(symsP: tuple, symsR: tuple) -> float:
    joint = entropy_of(tuple(zip(symsP, symsR)))
    return entropy_of(symsP) + entropy_of(symsR) - joint


def oracle_mi(seqP, seqR, n_shuffles=10, rng=None):
    """MI on tuples of the symbols themselves, with one rng.permutation per
    shuffle: mutual_information_excess before it ran on interned codes."""
    symsP = symbols_of(seqP)
    symsR = symbols_of(seqR)
    if len(symsP) != len(symsR):
        raise MelicError(f"length mismatch: {len(symsP)} vs {len(symsR)}")
    if n_shuffles < 0:
        raise MelicError("n_shuffles must be >= 0")
    i_obs = _oracle_mi(symsP, symsR)
    if n_shuffles == 0:
        return i_obs, 0.0, i_obs
    if rng is None:
        raise MelicError("shuffled null requires an explicit rng")
    acc = 0.0
    n = len(symsR)
    for _ in range(n_shuffles):
        perm = rng.permutation(n)
        acc += _oracle_mi(symsP, tuple(symsR[i] for i in perm))
    i_ran = acc / n_shuffles
    return i_obs, i_ran, i_obs - i_ran


def _random_melodies(seed, count):
    rng = np.random.default_rng(seed)
    values = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    for i in range(count):
        n = int(rng.integers(2, 60))
        pitches = 60 + np.cumsum(rng.integers(-5, 6, n))
        durations = [values[k] for k in rng.integers(0, int(rng.integers(1, len(values) + 1)), n)]
        yield melody_from_pitches(f"r{i}", list(pitches), durations)


_PAIRS = [
    (ViewpointKind.CHROMA, ViewpointKind.DURATION),
    (ViewpointKind.MINT, ViewpointKind.IOI),
    (ViewpointKind.JOINT_CHROMA_DURATION, ViewpointKind.DURATION_RATIO),
    (ViewpointKind.PITCH, ViewpointKind.JOINT_MINT_DURATION),
]


@pytest.mark.parametrize("n_shuffles", [0, 10])
@pytest.mark.parametrize("pkind, rkind", _PAIRS)
def test_mutual_information_equals_the_oracle(pkind, rkind, n_shuffles):
    rng_new, rng_old = np.random.default_rng(11), np.random.default_rng(11)
    for m in _random_melodies(7, 60):
        p, r = extract_viewpoint(m, pkind).symbols, extract_viewpoint(m, rkind).symbols
        n = min(len(p), len(r))
        got = mutual_information_excess(p[:n], r[:n], n_shuffles=n_shuffles, rng=rng_new)
        assert got == oracle_mi(p[:n], r[:n], n_shuffles=n_shuffles, rng=rng_old)
    # the same draws were taken from both streams
    assert rng_new.random() == rng_old.random()


def test_mutual_information_of_empty_sequences_is_the_oracle_error():
    for n_shuffles, rng in ((0, None), (10, np.random.default_rng(0))):
        with pytest.raises(MelicError, match="^cannot build a distribution from an empty sequence$"):
            mutual_information_excess((), (), n_shuffles=n_shuffles, rng=rng)
        with pytest.raises(MelicError, match="^cannot build a distribution from an empty sequence$"):
            oracle_mi((), (), n_shuffles=n_shuffles, rng=rng)


# --- properties ----------------------------------------------------------------

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
_symbols = st.lists(st.integers(0, 11), min_size=1, max_size=60)


@PROPERTY
@given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), max_size=60))
def test_plugin_entropy_sums_its_terms_left_to_right(probs):
    # the defined float operations: ascending p, no compensated or pairwise sum, on any Python
    terms = [p * math.log2(p) for p in sorted(probs) if p > 0.0]
    assert _plugin_entropy(probs) == -functools.reduce(operator.add, terms, 0.0) + 0.0


_fraction = st.fractions(min_value=0, max_value=50, max_denominator=12)


@PROPERTY
@given(st.one_of(
    _symbols,
    st.lists(_fraction, min_size=1, max_size=60),
    st.lists(st.tuples(st.integers(0, 11), _fraction), min_size=1, max_size=60),
))
def test_entropy_of_counts_is_the_entropy_of_the_interned_distribution(seq):
    assert entropy_of(seq) == entropy(distribution_of(seq))


@PROPERTY
@given(st.lists(_fraction, min_size=1, max_size=60))
def test_entropy_of_pairs_is_that_of_their_fractions(values):
    assert entropy_of(pairs_of(values)) == entropy(distribution_of(values))


# H is a function of the count multiset: bit-equal under any permutation of the
# counts, so under any bijective relabelling of the symbols
_permuted_counts = st.lists(st.integers(1, 60), min_size=1, max_size=30).flatmap(
    lambda counts: st.tuples(st.just(counts), st.permutations(counts))
)


@PROPERTY
@given(_permuted_counts)
def test_plugin_entropy_is_invariant_under_permutations_of_the_counts(counts_and_permuted):
    counts, permuted = counts_and_permuted
    n = sum(counts)
    assert _plugin_entropy([c / n for c in permuted]) == _plugin_entropy([c / n for c in counts])


@PROPERTY
@given(_symbols, st.permutations(range(12)))
def test_entropy_of_is_invariant_under_relabelling_the_symbols(seq, relabel):
    h = entropy_of(seq)
    assert entropy_of([relabel[s] for s in seq]) == h
    assert entropy_of([-s for s in seq]) == h


@PROPERTY
@given(
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 5)), min_size=1, max_size=60),
    st.permutations(range(12)),
    st.permutations(range(6)),
)
def test_mutual_information_is_invariant_under_relabelling_the_symbols(pairs, relabel_p, relabel_r):
    p, r = zip(*pairs)
    mi = mutual_information_excess(p, r, n_shuffles=0)
    assert mutual_information_excess([relabel_p[s] for s in p], [relabel_r[s] for s in r], n_shuffles=0) == mi
    assert mutual_information_excess([-s for s in p], [-s for s in r], n_shuffles=0) == mi


def test_entropy_of_an_empty_sequence_is_an_error():
    with pytest.raises(MelicError, match="^cannot build a distribution from an empty sequence$"):
        entropy_of(())


@PROPERTY
@given(_symbols)
def test_entropy_at_most_log2_alphabet(seq):
    d = distribution_of(seq)
    assert entropy(d) <= math.log2(d.alphabet_size) + 1e-12


@PROPERTY
@given(_symbols)
def test_gini_below_its_maximum(seq):
    d = distribution_of(seq)
    g = gini(d)
    assert g >= -1e-12  # 0 up to rounding, reached by a uniform distribution
    if d.alphabet_size > 1:
        assert g < (d.alphabet_size - 1) / d.alphabet_size


@PROPERTY
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=1, max_size=40),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
)
def test_mutual_information_is_nonnegative(pairs, n_shuffles, seed):
    p, r = zip(*pairs)
    i_obs, i_ran, _ = mutual_information_excess(p, r, n_shuffles=n_shuffles, rng=np.random.default_rng(seed))
    assert i_obs >= -1e-12
    assert i_ran >= -1e-12
