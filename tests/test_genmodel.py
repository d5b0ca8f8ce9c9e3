"""Generative pitch/rhythm models, JSD fitting, and the scale-entropy pipeline."""

import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melic import _kernels, genmodel
from melic.corpus import MelicError
from melic.genmodel import (
    PITCH_JSD_MAX,
    RHYTHM_JSD_MAX,
    RHYTHM_VALUE_SETS,
    PitchModelSpec,
    RhythmModelSpec,
    _chroma_entropy,
    _metrical_base,
    _walk_half_width,
    _weights,
    check_fit,
    complex_value_set,
    fit_generative_model,
    generate_pitch_sequences,
    generate_rhythm_sequences,
    pitch_fit_objective,
    pitch_ratios,
    prob_entropy_below,
    rhythm_fit_objective,
    rhythm_pair,
    scale_loglikelihood,
    simple_value_set,
    simulate_scale_entropy,
)
from melic.infotheory import Distribution, distribution_of, entropy, entropy_of
from melic.viewpoints import ViewpointKind, extract_viewpoint, pairs_of, pitch_symbols, ratios

from conftest import melody_from_pitches


def triangular_intervals():
    vals = tuple(range(-5, 6))
    w = np.array([6 - abs(v) for v in vals], dtype=float)
    w /= w.sum()
    return Distribution(alphabet=vals, probs=tuple(w))


def fixed_length(length):
    return Distribution(alphabet=(length,), probs=(1.0,))


def test_spec_validation():
    with pytest.raises(MelicError, match="^unknown pitch family 'X'$"):
        PitchModelSpec(family="X", dist=1, a=5, length=20)
    with pytest.raises(MelicError, match="^unknown distribution code 4$"):
        PitchModelSpec(family="S", dist=4, a=5, length=20)
    with pytest.raises(MelicError, match="^unknown rhythm value set 'XX'$"):
        RhythmModelSpec(value_set="XX", dist=1, a=5, length=20)
    assert PitchModelSpec(family="IS", dist=3, a=5, length=20).name == "IS3"
    assert RhythmModelSpec(value_set="SI", dist=4, a=5, length=20).name == "SI4"


def test_weights():
    rng = np.random.default_rng(0)
    assert np.allclose(_weights(4, RhythmModelSpec("SI", 1, a=4, length=2), rng), 0.25)
    w2 = _weights(6, RhythmModelSpec("SI", 2, a=6, length=2, exponent=1.5), rng)
    assert w2.sum() == pytest.approx(1.0)
    assert sorted(w2, reverse=True)[0] == pytest.approx(max(w2))
    w3 = _weights(5, RhythmModelSpec("SI", 3, a=5, length=2), rng)
    assert np.argmax(w3) == 2  # center-peaked
    assert np.allclose(w3, w3[::-1])


def test_value_sets():
    assert simple_value_set(5) == [
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1),
        Fraction(2),
        Fraction(4),
    ]
    cv = complex_value_set(6)
    ratios = {a / b for a in cv for b in cv if a != b}
    # prime/reciprocal construction: all pairwise ratios distinct
    assert len(ratios) == 6 * 5
    # a distinct primes, so the 15-prime table covers a <= 15
    assert len(set(complex_value_set(15))) == 15
    with pytest.raises(MelicError, match="a must be <= 15, got 16"):
        complex_value_set(16)


def test_fit_statistics_are_none_where_the_base_entropy_is_0():
    assert pitch_ratios((60, 60, 60)) is None
    assert pitch_ratios((60, 72)) is None  # one chroma in two octaves
    # H(Chroma) = 1 bit; H(M-Int) = H(S-Int) = 0.918 bits
    assert pitch_ratios((60, 64, 60, 64)) == pytest.approx((0.9182958, 0.9182958))
    # H(Chroma) = 1 bit; one M-Int and one S-Int, so both are 0
    assert pitch_ratios((60, 64)) == pytest.approx((0.0, 0.0))
    assert rhythm_pair([(1, 1)] * 3) is None
    # H(IOI) = 1 bit; the IOI ratios 2, 1/2, 2 have H = 0.918 bits
    assert rhythm_pair([(x, 1) for x in (1, 2, 1, 2)]) == pytest.approx((1.0, 0.9182958))


@given(st.lists(st.integers(-30, 130), min_size=1, max_size=40))
def test_pitch_ratios_are_the_entropy_ratios_of_the_pitch_symbols(pitches):
    hc = entropy_of(pitch_symbols(pitches, ViewpointKind.CHROMA))
    if hc == 0.0:
        assert pitch_ratios(pitches) is None
    else:
        h_mint, h_sint = (entropy_of(pitch_symbols(pitches, k)) for k in (ViewpointKind.MINT, ViewpointKind.SINT))
        assert pitch_ratios(pitches) == (h_mint / hc, h_sint / hc)


_ioi = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6))


@given(st.lists(_ioi, min_size=1, max_size=30))
def test_rhythm_pair_is_the_entropy_ratio_of_the_melody_viewpoints(iois):
    melody = melody_from_pitches("m", [60] * (len(iois) + 1), [*iois, 1])
    ioi, iratio = (extract_viewpoint(melody, k).symbols for k in (ViewpointKind.IOI, ViewpointKind.IOI_RATIO))
    assert list(ioi) == iois
    hi = entropy_of(ioi)
    if hi == 0.0:
        assert rhythm_pair(pairs_of(iois)) is None
    else:
        assert rhythm_pair(pairs_of(iois)) == (hi, entropy_of(iratio) / hi)


def oracle_ratios(values):
    # Oracle: viewpoints.ratios when it divided Fractions
    try:
        return [b / a for a, b in zip(values, values[1:])]
    except ZeroDivisionError:
        raise MelicError("degenerate input: zero IOI (simultaneous onsets)") from None


def oracle_rhythm_pair(iois):
    # Oracle: rhythm_pair on Fractions, its entropies over interned symbols
    iratio = oracle_ratios(iois)
    hi = entropy(distribution_of(iois))
    return None if hi == 0.0 else (hi, entropy(distribution_of(iratio)) / hi)


# a CR-sized IOI: a product of prime powers over a product of others, up to
# 15 primes with exponents up to 80, as a CR model's running products reach
_prime_power = st.tuples(st.sampled_from(genmodel._PRIMES), st.integers(0, 80))
_cr_ioi = st.builds(
    lambda up, down: Fraction(math.prod(p**e for p, e in up), math.prod(p**e for p, e in down)),
    st.lists(_prime_power, max_size=15), st.lists(_prime_power, max_size=15),
)
_rational = st.one_of(_ioi, _cr_ioi, st.fractions(min_value=Fraction(1, 10**6), max_value=10**6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(iois=st.lists(_rational, min_size=1, max_size=40), zero_at=st.integers(0, 40))
def test_rhythm_pair_on_reduced_pairs_equals_the_fraction_oracle(iois, zero_at):
    # zero_at < len(iois) puts a zero IOI there: before the last IOI both
    # sides fail with the same error; as the last IOI, both give it ratio 0
    if zero_at < len(iois):
        iois[zero_at] = Fraction(0)
    try:
        want, want_ratios = oracle_rhythm_pair(iois), oracle_ratios(iois)
    except MelicError as exc:
        assert 0 <= zero_at < len(iois) - 1
        for fn in (ratios, rhythm_pair):
            with pytest.raises(MelicError, match=f"^{re.escape(str(exc))}$"):
                fn(pairs_of(iois))
        return
    assert ratios(pairs_of(iois)) == pairs_of(want_ratios)
    assert rhythm_pair(pairs_of(iois)) == want


def test_metrical_base():
    # onset num/den, reduced or not
    assert _metrical_base(0, 1) == 4
    assert _metrical_base(4, 1) == 4
    assert _metrical_base(2, 1) == 3
    assert _metrical_base(1, 1) == 2
    assert _metrical_base(3, 1) == 2
    assert _metrical_base(1, 2) == 1
    assert _metrical_base(12, 3) == 4 and _metrical_base(14, 7) == 3 and _metrical_base(9, 6) == 1


def test_generate_pitch_scale_family():
    spec = PitchModelSpec(family="S", dist=1, a=5, length=30, o=2)
    rng = np.random.default_rng(1)
    for pitches in generate_pitch_sequences(spec, 10, rng):
        chroma = pitch_symbols(pitches, ViewpointKind.CHROMA)
        mint = pitch_symbols(pitches, ViewpointKind.MINT)
        sdeg = pitch_symbols(pitches, ViewpointKind.SCALE_DEGREE)
        assert len(chroma) == 30 and len(mint) == 29
        assert len(set(chroma)) <= 5
        assert max(sdeg) <= len(set(chroma)) - 1


def test_generate_pitch_interval_family_respects_window():
    spec = PitchModelSpec(family="I", dist=1, a=3, length=40, o=1.0)
    rng = np.random.default_rng(2)
    for pitches in generate_pitch_sequences(spec, 10, rng):
        mint = pitch_symbols(pitches, ViewpointKind.MINT)
        assert pitches[0] == 0 and min(pitches) >= -2 and max(pitches) <= 2
        assert all(abs(i) <= 3 for i in mint)


def test_generate_pitch_interval_scale_family():
    spec = PitchModelSpec(family="IS", dist=1, a=4, length=25, o=2.0)
    rng = np.random.default_rng(3)
    for pitches in generate_pitch_sequences(spec, 10, rng):
        chroma = pitch_symbols(pitches, ViewpointKind.CHROMA)
        assert 0 in chroma  # walks start on the tonic
        assert len(set(chroma)) <= 4


def _constrained_walk(vals, probs, length, lo, hi, on_scale, rng, max_retries=100):
    """Draw a pitch walk from 0; each interval is drawn from the base
    distribution conditioned on the legal moves (equivalent to rejection
    resampling of the offending interval)."""
    for _ in range(max_retries):
        pitch = 0
        pitches = [0]
        ok = True
        for _ in range(length - 1):
            mask = np.array(
                [lo <= pitch + v <= hi and (on_scale is None or (pitch + v) % 12 in on_scale) for v in vals]
            )
            w = probs * mask
            tot = w.sum()
            if tot <= 0:
                ok = False
                break
            pitch += int(rng.choice(vals, p=w / tot))
            pitches.append(pitch)
        if ok:
            return pitches
    raise MelicError("no legal move found after bounded retries")


def oracle_interval_sequences(spec, n, rng):
    # Oracle for the I and IS families: one rng.choice per step, walk by walk.
    out = []
    for _ in range(n):
        scale = None
        if spec.family == "IS":
            scale = {0} | set(int(c) for c in rng.choice(np.arange(1, 12), size=spec.a - 1, replace=False))
        vals = np.arange(-spec.a, spec.a + 1)
        w = _weights(len(vals), spec, rng)
        half = max(1, round(2 * spec.o))
        out.append(_constrained_walk(vals, w, spec.length, -half, half, scale, rng))
    return out


@pytest.mark.parametrize("family", ["I", "IS"])
@pytest.mark.parametrize("dist", [1, 2, 3])
def test_interval_families_match_the_per_step_oracle(family, dist):
    # Same sequences and the same generator state afterwards, on narrow
    # (half-width 1) to unbounded windows, a = 1 to 12 and lengths 2 to 50.
    params = np.random.default_rng([dist, len(family)])
    for a in (1, 2, 5, 12):
        for o in (0.25, 0.5, 1.5, 4.0, 1e300):
            length = int(params.integers(2, 51))
            spec = PitchModelSpec(family=family, dist=dist, a=a, length=length, o=o, exponent=float(params.uniform(0.5, 3)))
            seed = int(params.integers(1 << 30))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert generate_pitch_sequences(spec, 12, rng) == oracle_interval_sequences(spec, 12, ref_rng), spec
            assert rng.bit_generator.state == ref_rng.bit_generator.state, spec
    for length in (2, 3, 50):
        spec = PitchModelSpec(family=family, dist=dist, a=3, length=length, o=0.5)
        rng, ref_rng = np.random.default_rng(length), np.random.default_rng(length)
        assert generate_pitch_sequences(spec, 30, rng) == oracle_interval_sequences(spec, 30, ref_rng), spec
        assert rng.bit_generator.state == ref_rng.bit_generator.state, spec


def per_walk_row_sequences(spec, n, rng):
    # I walks as the kernel gets them with one weight row per walk, so that
    # every walk is its own class and builds its own state table
    vals = np.arange(-spec.a, spec.a + 1)
    probs, uniforms = np.empty((n, len(vals))), np.empty((n, spec.length - 1))
    for i in range(n):
        probs[i] = _weights(len(vals), spec, rng)
        uniforms[i] = rng.random(spec.length - 1)
    half = np.full(n, _walk_half_width(spec))
    return _kernels.walk_chunk(vals, probs, np.full(n, spec.length), -half, half, uniforms)[0].tolist()


@pytest.mark.parametrize("dist", [1, 3])
def test_i1_and_i3_walks_share_one_weight_row_and_draw_as_with_one_row_each(dist):
    # Dists 1 and 3 draw no weights, so one shared row gives the same
    # pitches and leaves the generator where one row per walk does.
    for a in (3, 7, 12, 127):
        for o, length in ((0.5, 40), (3.0, 2), (200.0, 40)):
            spec = PitchModelSpec(family="I", dist=dist, a=a, length=length, o=o, exponent=1.5)
            rng, ref_rng = np.random.default_rng(a), np.random.default_rng(a)
            assert generate_pitch_sequences(spec, 20, rng) == per_walk_row_sequences(spec, 20, ref_rng), spec
            assert rng.random() == ref_rng.random(), spec


def test_interval_walk_without_a_legal_weighted_interval_is_an_error():
    # exponent 2000 leaves one interval a weight above 0; from 0 in +-2 no
    # walk can keep stepping by it
    spec = PitchModelSpec(family="I", dist=2, a=3, length=30, o=1.0, exponent=2000.0)
    with pytest.raises(MelicError, match="I2: a walk found no legal interval with a weight above 0"):
        generate_pitch_sequences(spec, 5, np.random.default_rng(0))


def test_generate_rhythm_iid_and_ratio_families():
    rng = np.random.default_rng(4)
    spec = RhythmModelSpec(value_set="SI", dist=1, a=5, length=20)
    for ioi in generate_rhythm_sequences(spec, 5, rng):
        ratio = ratios(ioi)
        assert len(ioi) == 20 and len(ratio) == 19
        assert set(ioi) <= set(pairs_of(simple_value_set(5)))
        assert all(Fraction(*ratio[i]) == Fraction(*ioi[i + 1]) / Fraction(*ioi[i]) for i in range(19))
    spec_r = RhythmModelSpec(value_set="SR", dist=1, a=5, length=20)
    for ioi in generate_rhythm_sequences(spec_r, 5, rng):
        ratio = ratios(ioi)
        assert len(ratio) == 20 and len(ioi) == 21 and ioi[0] == (1, 1)
        assert set(ratio) <= set(pairs_of(simple_value_set(5)))


def test_generate_rhythm_metrical_prefers_strong_beats():
    rng = np.random.default_rng(5)
    spec = RhythmModelSpec(value_set="SI", dist=4, a=5, length=200, exponent=3.0)
    ioi, = generate_rhythm_sequences(spec, 1, rng)
    onsets = np.cumsum([p / q for p, q in ioi])
    on_grid = np.mean([o == int(o) for o in onsets])
    assert on_grid > 0.5  # heavily weighted toward integer beats


def oracle_metrical_base(onset: Fraction) -> int:
    # 4/4 grid in quarter-note units, beats counted from 1 at onset 0
    if onset.denominator != 1:
        return 1
    m = int(onset) % 4
    if m == 0:
        return 4
    if m == 2:
        return 3
    return 2


def oracle_rhythm_pairs(spec, n, rng):
    # Oracle: the generator that returned (ioi, ratio) pairs of tuples, with
    # drawn ratios for SR/CR and the IOIs divided out for SI/CI, and one
    # rng.choice per metrical step on Fraction onsets.
    is_ratio_set = spec.value_set in ("SR", "CR")
    values = simple_value_set(spec.a) if spec.value_set in ("SI", "SR") else complex_value_set(spec.a)
    out = []
    for _ in range(n):
        if spec.dist != 4:
            w = _weights(len(values), spec, rng)
            draws = [values[i] for i in rng.choice(len(values), size=spec.length, p=w)]
        else:
            draws = []
            onset = Fraction(0)
            cur_ioi = Fraction(1)
            for _ in range(spec.length):
                next_iois = [cur_ioi * v for v in values] if is_ratio_set else values
                b = np.array([oracle_metrical_base(onset + nv) for nv in next_iois], dtype=float)
                w = b ** spec.exponent
                w /= w.sum()
                i = int(rng.choice(len(values), p=w))
                draws.append(values[i])
                onset += next_iois[i]
                if is_ratio_set:
                    cur_ioi = next_iois[i]
        if is_ratio_set:
            ratio = list(draws)
            iois = [Fraction(1)]
            for r in ratio:
                iois.append(iois[-1] * r)
        else:
            iois = list(draws)
            ratio = [b / a for a, b in zip(iois, iois[1:])]
        out.append((tuple(iois), tuple(ratio)))
    return out


@pytest.mark.parametrize("value_set", RHYTHM_VALUE_SETS)
@pytest.mark.parametrize("dist", [1, 2, 3, 4])
def test_rhythm_models_match_the_pair_oracle(value_set, dist):
    # The same IOIs as reduced pairs, the oracle's ratios from viewpoints.ratios, and the same
    # next draw, over 135 (a, L, exponent, seed) settings per model, and 24
    # more with long sequences, flat, inverted and near one-hot weights and,
    # for CI/CR, a = 15, where the denominators grow largest
    settings = list(itertools.product((1, 2, 3, 6, 15), (2, 3, 12), (0.5, 1.0, 2.5), range(3)))
    settings += itertools.product((3, 15 if value_set[0] == "C" else 9), (80,), (0.0, -1.5, 40.0, -40.0), range(3))
    for a, length, exponent, seed in settings:
        spec = RhythmModelSpec(value_set=value_set, dist=dist, a=a, length=length, exponent=exponent)
        rng, ref_rng = np.random.default_rng([seed, a]), np.random.default_rng([seed, a])
        got, ref = generate_rhythm_sequences(spec, 4, rng), oracle_rhythm_pairs(spec, 4, ref_rng)
        assert got == [pairs_of(iois) for iois, _ in ref], spec
        assert [ratios(iois) for iois in got] == [pairs_of(ratio) for _, ratio in ref], spec
        assert rng.random() == ref_rng.random(), spec


class _Uniforms:
    """A stand-in rng whose random(size) returns the next size given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size):
        drawn, self.uniforms = self.uniforms[:size], self.uniforms[size:]
        return np.array(drawn)


@pytest.mark.parametrize("value_set, dist", [("SI", 1), ("SR", 3), ("CI", 4), ("CR", 4)])
def test_a_uniform_on_a_cdf_step_picks_the_next_value(value_set, dist):
    # Generator.choice picks searchsorted(cdf, u, side="right"), so a uniform
    # equal to a CDF value picks the value after it. Flat weights on a = 4 put
    # the CDF at exactly 0.25, 0.5, 0.75 and 1, which random uniforms all but
    # never hit
    u = [0.0, 0.25, 0.5, 0.75, 0.5]
    picks = [0, 1, 2, 3, 2]
    spec = RhythmModelSpec(value_set=value_set, dist=dist, a=4, length=len(u), exponent=0.0)
    values = simple_value_set(4) if value_set[0] == "S" else complex_value_set(4)
    drawn = [values[i] for i in picks]
    expected = list(itertools.accumulate(drawn, lambda ioi, r: ioi * r, initial=Fraction(1))) if value_set[1] == "R" else drawn
    assert generate_rhythm_sequences(spec, 1, _Uniforms(u)) == [pairs_of(expected)]


def _pitch_pairs(seq_sets):
    """The pitch_ratios of each generated sequence where they are defined."""
    return [r for pitches in seq_sets if (r := pitch_ratios(pitches)) is not None]


def test_fit_generative_model_recovers_planted_setting():
    rng = np.random.default_rng(6)
    target_spec = PitchModelSpec(family="S", dist=1, a=5, length=30)
    target = generate_pitch_sequences(target_spec, 150, rng)
    grid = [
        PitchModelSpec(family="S", dist=1, a=a, length=30) for a in (2, 5, 10)
    ]
    best, score, ties = fit_generative_model(_pitch_pairs(target), grid, n_per_setting=60, seed=7)
    assert best.a == 5
    assert score < 0.5
    assert ties == 1


def test_uninformative_grid_points_tie_at_the_objective_maximum():
    # every model sequence's ratios lie below the one empirical pair's bin, so
    # each grid point compares histograms that share no bin, twice
    grid = [PitchModelSpec(family="S", dist=1, a=a, length=30) for a in (3, 5, 7, 9)]
    assert fit_generative_model([(3.99, 3.99)], grid, n_per_setting=20, seed=0) == (grid[0], PITCH_JSD_MAX, 4)


def test_rhythm_objective_is_exactly_its_maximum_where_no_model_sequence_lands():
    # bins of 2, 2, 1 and 1 melodies: weights summed as 2/6 + 2/6 + 1/6 + 1/6 give 0.9999999999999999
    empirical = [(0.2, 1.0), (0.3, 1.0), (0.7, 1.0), (0.8, 1.0), (1.2, 1.0), (1.7, 1.0)]
    assert rhythm_fit_objective(_rhythm_seqs([list(range(1, 25))]), empirical) == RHYTHM_JSD_MAX


def test_fit_generative_model_validation():
    with pytest.raises(MelicError, match="^empty empirical targets$"):
        fit_generative_model([], [None])
    with pytest.raises(MelicError, match="^empty parameter grid$"):
        fit_generative_model([(1.0, 1.0)], [])


_STEPS = "above the limit of 1000000 per grid point"
_CR = "above the CR limit of 100000000"
_CELLS = "(--grid-o, --grid-a, --grid-l) times {} intervals (--grid-a) exceeds its limit of 4194304 cells"


@pytest.mark.parametrize(
    "spec, n, beyond, n_beyond, message",
    [
        # sequences times length: 10**6 steps
        (PitchModelSpec("S", 1, a=12, length=10**6, o=10), 1, {"length": 10**6 + 1}, 1,
         f"S1: --n-per-setting 1 times --grid-l 1000001 is 1000001 steps, {_STEPS}"),
        (RhythmModelSpec("SR", 1, a=15, length=1000), 1000, {}, 1001,
         f"SR1: --n-per-setting 1001 times --grid-l 1000 is 1001000 steps, {_STEPS}"),
        # a CR grid point's sequences times length squared: 10**8
        (RhythmModelSpec("CR", 4, a=15, length=10**4), 1, {"length": 10**4 + 1}, 1,
         f"CR4: --n-per-setting 1 times --grid-l 10001 squared is 100020001, {_CR}"),
        (RhythmModelSpec("CR", 1, a=15, length=1000), 100, {}, 101,
         f"CR1: --n-per-setting 101 times --grid-l 1000 squared is 101000000, {_CR}"),
        # an I/IS walk table of 2**22 cells: 2 * 8223 + 1 window pitches times
        # 255 intervals is 4,193,985 cells, and 2 * 83884 + 1 times 25 is 4,194,225
        (PitchModelSpec("I", 1, a=127, length=10**6, o=4111.5), 1, {"o": 4112}, 1,
         "I1: a walk table of 16449 window pitches " + _CELLS.format(255)),
        (PitchModelSpec("IS", 1, a=12, length=10**6, o=41942), 1, {"o": 41943}, 1,
         "IS1: a walk table of 167773 window pitches " + _CELLS.format(25)),
    ],
)
def test_check_fit_bounds_each_grid_points_work(spec, n, beyond, n_beyond, message):
    # a grid point at each limit passes; one step, one length or one window pitch more fails
    check_fit([spec], n)
    with pytest.raises(MelicError, match=f"^{re.escape(message)}$"):
        check_fit([dataclasses.replace(spec, **beyond)], n_beyond)


def test_pitch_objective_zero_for_identical():
    rng = np.random.default_rng(7)
    seqs = generate_pitch_sequences(PitchModelSpec(family="S", dist=1, a=5, length=30), 50, rng)
    assert pitch_fit_objective(seqs, _pitch_pairs(seqs)) == pytest.approx(0.0, abs=1e-12)


def _rhythm_seqs(ioi_lists):
    """IOI sequences of integers as reduced pairs, as generate_rhythm_sequences returns them."""
    return [[(x, 1) for x in xs] for xs in ioi_lists]


# H(IOI) values include multiples of 0.5 bit, where the bins meet
_h_ioi = st.one_of(st.integers(1, 8).map(lambda k: k / 2), st.floats(0.01, 4.0))
_pairs = st.lists(st.tuples(_h_ioi, st.floats(0.0, 3.99)), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    empirical=_pairs,
    ioi_lists=st.lists(st.lists(st.integers(1, 4), min_size=2, max_size=12), min_size=1, max_size=8),
    data=st.data(),
)
def test_rhythm_objective_weighs_every_melody_once_in_any_order(empirical, ioi_lists, data):
    # 24 equally used IOIs give H(IOI) = log2(24) > 4.5 bits, a bin no empirical
    # pair is in, so each bin scores 1 and the objective is the sum of the bin weights
    far = _rhythm_seqs([list(range(1, 25))])
    assert rhythm_fit_objective(far, empirical) == RHYTHM_JSD_MAX
    model = _rhythm_seqs(ioi_lists)
    shuffled_model = data.draw(st.permutations(model))
    shuffled_empirical = data.draw(st.permutations(empirical))
    assert rhythm_fit_objective(shuffled_model, shuffled_empirical) == rhythm_fit_objective(model, empirical)


# --- scale-entropy pipeline -------------------------------------------------

def test_simulate_deterministic_across_threads():
    idist = triangular_intervals()
    ldist = fixed_length(25)
    s1 = simulate_scale_entropy(idist, ldist, [1.0], 70000, seed=3, threads=1)
    s4 = simulate_scale_entropy(idist, ldist, [1.0], 70000, seed=3, threads=4)
    assert s1.per_a.keys() == s4.per_a.keys()
    for a in s1.per_a:
        assert np.array_equal(s1.per_a[a], s4.per_a[a])


def oracle_chroma_entropy(pitches, lengths, failed):
    # _chroma_entropy as it was before blocks bounded its input: 16 columns
    # at a time, chroma 12 counting the padding; H sums the counts in
    # ascending order
    n, width = pitches.shape
    counts = np.zeros(n * 13, dtype=np.int64)
    rows = np.arange(n)[:, None] * 13
    for j in range(0, width, 16):
        c = pitches[:, j : j + 16] % 12
        c[np.arange(j, j + c.shape[1]) >= lengths[:, None]] = 12
        counts += np.bincount((rows + c).ravel(), minlength=n * 13)
    p = np.sort(counts.reshape(n, 13)[:, :12], axis=1) / lengths.astype(np.float64)[:, None]
    h = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0).sum(axis=1)
    a = (p > 0).sum(axis=1)
    a[failed] = 0
    h[failed] = np.nan
    return a, h


def oracle_simulate_scale_entropy(interval_dist, length_dist, o_values, n_sequences, seed):
    # The simulation without a pool: one kernel call and one chroma count per
    # seeded block, block after block.
    vals = np.array(interval_dist.alphabet, dtype=np.int64)
    probs = np.asarray(interval_dist.probs, dtype=float)
    lvals = np.array(length_dist.alphabet, dtype=np.int64)
    lprobs = np.asarray(length_dist.probs, dtype=float)
    reach = int(np.abs(vals).max()) * (int(lvals.max()) - 1)
    half_widths = np.array([round(min(6.0 * o, reach)) for o in o_values], dtype=np.int64)
    block = genmodel._BLOCK
    seeds = np.random.SeedSequence(seed).spawn((n_sequences + block - 1) // block)
    results = []
    for bi, block_seed in enumerate(seeds):
        start, size = bi * block, min(block, n_sequences - bi * block)
        rng = np.random.default_rng(block_seed)
        lengths = rng.choice(lvals, size=size, p=lprobs).astype(np.int64)
        half = half_widths[(start + np.arange(size)) % len(o_values)]
        uniforms = rng.random((size, max(1, int(lengths.max()) - 1)))
        pitches, failed = _kernels.walk_chunk(vals, probs, lengths, -half, half, uniforms)
        results.append(oracle_chroma_entropy(pitches, lengths, failed))
    a, h = (np.concatenate(x) for x in zip(*results))
    return {int(k): np.sort(h[a == k]) for k in np.unique(a[a > 0])}, int((a == 0).sum())


def _two_lengths(short, long):
    return Distribution(alphabet=(short, long), probs=(0.5, 0.5))


@pytest.mark.parametrize(
    "intervals, o_values, n, some_fail",
    [
        # nine blocks, the last a partial one
        (triangular_intervals(), (0.5, 1.0, 1.5, 2.0), 8 * genmodel._BLOCK + 77, False),
        # from 0 in +-3, +2 is legal once and +7 never: the long walks fail
        (Distribution(alphabet=(2, 7), probs=(0.5, 0.5)), (0.5, 2.0), 8 * genmodel._BLOCK + 123, True),
    ],
)
def test_simulation_in_blocks_matches_the_chunk_at_once_oracle(intervals, o_values, n, some_fail):
    want, want_failed = oracle_simulate_scale_entropy(intervals, _two_lengths(2, 80), o_values, n, seed=11)
    assert (want_failed > 0) == some_fail and want_failed < n
    for threads in (1, 3):
        sim = simulate_scale_entropy(intervals, _two_lengths(2, 80), o_values, n, seed=11, threads=threads)
        assert sim.n_failed == want_failed
        assert sim.per_a.keys() == want.keys()
        assert all(np.array_equal(sim.per_a[a], want[a]) for a in want), threads


def test_scale_loglikelihood_is_the_same_for_any_thread_count():
    # lengths 2 and 80: A = 1 and A = 2 samples are degenerate, the rest KDEs
    sim = simulate_scale_entropy(triangular_intervals(), _two_lengths(2, 80), [0.5, 1.0, 1.5, 2.0], 20000, seed=12)
    emp = sim.per_a[7][::10]
    assert scale_loglikelihood(sim, emp, threads=3) == scale_loglikelihood(sim, emp, threads=1)


def test_the_pool_starts_at_most_eight_threads(monkeypatch):
    asked = []

    class Pool(genmodel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            asked.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(genmodel, "ThreadPoolExecutor", Pool)
    sim = simulate_scale_entropy(triangular_intervals(), fixed_length(30), [1.0, 2.0], 3 * genmodel._BLOCK, seed=1, threads=64)
    scale_loglikelihood(sim, sim.per_a[7][::10], threads=3)
    assert asked == [8, 3]


def _walk_chunk_loop(vals, probs, lengths, lo, hi, uniforms, out_a, out_h):
    # Reference for walk_chunk: the same walks, one at a time, step by step.
    n = lengths.shape[0]
    nv = vals.shape[0]
    counts = np.zeros(12, dtype=np.int64)
    for i in range(n):
        for c in range(12):
            counts[c] = 0
        pitch = 0
        counts[0] = 1
        length = lengths[i]
        ok = True
        for j in range(length - 1):
            tot = 0.0
            for k in range(nv):
                cand = pitch + vals[k]
                if lo[i] <= cand <= hi[i]:
                    tot += probs[k]
            if tot <= 0.0:
                ok = False
                break
            u = uniforms[i, j] * tot
            acc = 0.0
            pick = nv - 1
            for k in range(nv):
                cand = pitch + vals[k]
                if lo[i] <= cand <= hi[i]:
                    acc += probs[k]
                    if u < acc:
                        pick = k
                        break
            pitch += vals[pick]
            counts[((pitch % 12) + 12) % 12] += 1
        if not ok:
            out_a[i] = 0
            out_h[i] = np.nan
            continue
        a = 0
        h = 0.0
        for c in range(12):
            if counts[c] > 0:
                a += 1
                p = counts[c] / length
                h -= p * np.log2(p)
        out_a[i] = a
        out_h[i] = h


def test_walk_kernel_matches_per_walk_loop():
    # The per-walk loop is the reference: the numpy kernel must give the same
    # A and H on identical uniforms.
    rng = np.random.default_rng(9)
    vals = np.arange(-5, 6, dtype=np.int64)
    probs = np.array([6 - abs(v) for v in vals], dtype=float)
    probs /= probs.sum()
    n = 500
    lengths = rng.integers(1, 31, n).astype(np.int64)
    half = rng.choice([3, 6, 9, 12], n).astype(np.int64)
    uniforms = rng.random((n, 29))
    a_ref = np.zeros(n, dtype=np.int64)
    h_ref = np.zeros(n)
    _walk_chunk_loop(vals, probs, lengths, -half, half, uniforms, a_ref, h_ref)
    pitches, failed = _kernels.walk_chunk(vals, probs, lengths, -half, half, uniforms)
    a, h = _chroma_entropy(pitches, lengths, failed)
    assert np.array_equal(a, a_ref)
    assert np.allclose(h, h_ref, rtol=0, atol=1e-12, equal_nan=True)


def test_walk_kernel_matches_per_walk_loop_where_walks_fail():
    # Interval sets without 0 and narrow windows, so some walks meet a step
    # with no legal interval; zero weights and lengths 1-30 too.
    rng = np.random.default_rng(10)
    for _ in range(200):
        vals = np.unique(rng.integers(-6, 7, rng.integers(1, 6))).astype(np.int64)
        probs = rng.random(vals.size) * (rng.random(vals.size) < 0.8)
        if probs.sum() == 0:
            continue
        probs /= probs.sum()
        n = int(rng.integers(1, 40))
        lengths = rng.integers(1, 31, n).astype(np.int64)
        half = rng.integers(0, 8, n).astype(np.int64)
        uniforms = rng.random((n, 30))
        a_ref, h_ref = np.zeros(n, dtype=np.int64), np.zeros(n)
        _walk_chunk_loop(vals, probs, lengths, -half, half, uniforms, a_ref, h_ref)
        pitches, failed = _kernels.walk_chunk(vals, probs, lengths, -half, half, uniforms)
        a, h = _chroma_entropy(pitches, lengths, failed)
        assert np.array_equal(failed, a_ref == 0)
        assert np.array_equal(a, a_ref)
        assert np.allclose(h, h_ref, rtol=0, atol=1e-12, equal_nan=True)


def oracle_walk_chunk(vals, probs, lengths, lo, hi, uniforms, allowed=None):
    """Reference for walk_chunk: every running walk's CDF computed afresh at
    every step, on the same uniforms."""
    n = lengths.shape[0]
    # longest first, so the walks still running at step j are a prefix
    order = np.argsort(-lengths, kind="stable")
    steps = lengths[order] - 1
    lo, hi = lo[order], hi[order]
    probs = np.broadcast_to(probs, (n, len(vals)))[order]
    if allowed is not None:
        allowed = allowed[order]
    pitches = np.zeros((n, np.max(lengths, initial=1)), dtype=np.int64)
    pitch = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=bool)
    for j in range(pitches.shape[1] - 1):
        k = int(np.count_nonzero(steps > j))  # the walks still running
        p = pitch[:k]  # a view: updating it advances the walks
        cand = p[:, None] + vals[None, :]
        legal = (cand >= lo[:k, None]) & (cand <= hi[:k, None])
        if allowed is not None:
            legal &= np.take_along_axis(allowed[:k], cand % 12, axis=1)
        w = np.where(legal, probs[:k], 0.0)
        tot = w.sum(axis=1)
        failed[:k] |= ~(tot > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = np.cumsum(w / tot[:, None], axis=1)
            cdf /= cdf[:, -1:]
        pick = (cdf <= uniforms[order[:k], j][:, None]).sum(axis=1)
        p[:] = np.where(failed[:k], p, p + vals[pick])
        pitches[order[:k], j + 1] = p
    return pitches, failed[np.argsort(order)]


def _cdf_values(vals, probs, lo, hi, allowed):
    """The CDF values below 1 that the oracle computes for each walk at each
    pitch from -12 to 12, the uniforms at which a draw ties."""
    out = []
    pitch = np.arange(-12, 13)
    cand = pitch[:, None] + vals[None, :]
    for i in range(len(lo)):
        legal = (cand >= lo[i]) & (cand <= hi[i])
        if allowed is not None:
            legal &= allowed[i][cand % 12]
        w = np.where(legal, np.broadcast_to(probs, (len(lo), len(vals)))[i], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = np.cumsum(w / w.sum(axis=1)[:, None], axis=1)
            cdf /= cdf[:, -1:]
        out.append(cdf[cdf < 1.0])
    return np.concatenate(out)


@settings(max_examples=300, deadline=None)
@given(
    vals=st.sets(st.integers(-6, 6), min_size=1, max_size=9),
    n=st.integers(1, 40),
    per_walk=st.booleans(),
    masked=st.booleans(),
    same_window=st.booleans(),
    cells=st.sampled_from([1, 300, _kernels._CELLS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_walk_kernel_matches_the_oracle(vals, n, per_walk, masked, same_window, cells, seed):
    # Uniforms are salted with 0.0, the bucket edges k/256 of every guide
    # size, and exact CDF values, where `cdf <= u` ties. Walks that are their
    # own classes go in blocks of at most `cells` table cells: one walk per
    # block at 1, a few at 300.
    rng = np.random.default_rng(seed)
    vals = np.array(sorted(vals), dtype=np.int64)
    probs = rng.random((n, vals.size) if per_walk else vals.size) * (rng.random(vals.size) < 0.8)
    probs /= np.maximum(probs.sum(axis=-1, keepdims=True), 1e-300)  # an all-zero row stays zero
    lengths = rng.integers(1, 41, n).astype(np.int64)
    lo = -rng.integers(0, 13, 1 if same_window else n).repeat(n if same_window else 1)
    hi = rng.integers(0, 13, 1 if same_window else n).repeat(n if same_window else 1)
    allowed = rng.random((n, 12)) < 0.6 if masked else None
    uniforms = rng.random((n, 39))
    salt = np.concatenate(([0.0], np.arange(256) / 256, _cdf_values(vals, probs, lo, hi, allowed)))
    where = rng.random(uniforms.shape) < 0.5
    uniforms[where] = rng.choice(salt, int(where.sum()))
    default, _kernels._CELLS = _kernels._CELLS, cells
    try:
        got = _kernels.walk_chunk(vals, probs, lengths, lo, hi, uniforms, allowed)
    finally:
        _kernels._CELLS = default
    want = oracle_walk_chunk(vals, probs, lengths, lo, hi, uniforms, allowed)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_walk_kernel_memory_stays_near_its_output():
    # A scale chunk: the kernel allocates its (walks, max length) output and
    # per-walk vectors, not a second (walks, steps) array.
    rng = np.random.default_rng(0)
    vals = np.arange(-5, 6, dtype=np.int64)
    probs = (6.0 - np.abs(vals)) / 36.0
    n = 16384
    lengths = rng.integers(20, 81, n).astype(np.int64)
    half = rng.choice([3, 6, 9, 12], n).astype(np.int64)
    uniforms = rng.random((n, 79))
    tracemalloc.start()
    try:
        pitches, _ = _kernels.walk_chunk(vals, probs, lengths, -half, half, uniforms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pitches.nbytes + 3 * 2**20


def test_simulate_tight_window_caps_alphabet():
    # window of +-3 semitones admits at most 7 chromas
    idist = triangular_intervals()
    sim = simulate_scale_entropy(idist, fixed_length(40), [0.5], 20000, seed=1)
    assert max(sim.per_a) <= 7
    assert sim.n_failed == 0


def test_simulate_entropy_consistent_with_alphabet():
    idist = triangular_intervals()
    sim = simulate_scale_entropy(idist, fixed_length(20), [1.0], 5000, seed=2)
    for a, samples in sim.per_a.items():
        assert samples.min() >= 0.0
        assert samples.max() <= math.log2(a) + 1e-9
        assert np.all(np.diff(samples) >= 0)  # stored sorted


def test_prob_entropy_below_monotone_in_threshold():
    idist = triangular_intervals()
    sim = simulate_scale_entropy(idist, fixed_length(30), [1.0], 20000, seed=4)
    lo = prob_entropy_below(sim, 1.5)
    hi = prob_entropy_below(sim, 3.0)
    assert all(lo[a] <= hi[a] for a in lo)


def test_scale_loglikelihood_prefers_matching_alphabet():
    idist = triangular_intervals()
    sim = simulate_scale_entropy(idist, fixed_length(30), [0.5, 1, 1.5, 2], 60000, seed=5)
    # empirical sample drawn from the simulated A=7 population itself
    emp = sim.per_a[7][::10]
    logl = scale_loglikelihood(sim, emp)
    assert max(logl, key=logl.get) == 7
    assert all(math.isfinite(v) for v in logl.values())


def test_scale_loglikelihood_validation():
    idist = triangular_intervals()
    sim = simulate_scale_entropy(idist, fixed_length(10), [1.0], 2000, seed=6)
    with pytest.raises(MelicError, match="^KDE needs at least 2 samples$"):
        scale_loglikelihood(sim, [])
    with pytest.raises(MelicError, match=r"^alpha must be in \(0, 1\], got 1.5$"):
        scale_loglikelihood(sim, [1.0, 2.0], alpha=1.5)


def test_simulate_validation():
    idist = triangular_intervals()
    with pytest.raises(MelicError, match="^need at least one pitch-range value$"):
        simulate_scale_entropy(idist, fixed_length(10), [], 100)
    with pytest.raises(MelicError, match=r"^melody lengths \(--lengths\) must be 1 to 2048, got 0 to 0$"):
        simulate_scale_entropy(idist, Distribution(alphabet=(0,), probs=(1.0,)), [1.0], 100)
    for o in (math.inf, -math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(MelicError, match=f"o must be finite and > 0, got {o}"):
            simulate_scale_entropy(idist, fixed_length(10), [1.0, o], 100)


def test_simulate_windows_wider_than_the_reach_give_the_same_walks():
    # +-5 intervals over 9 steps reach 45 semitones: o = 7.5 is a window of
    # exactly +-45, and every wider one gives the same walks
    idist = triangular_intervals()
    ref = simulate_scale_entropy(idist, fixed_length(10), [7.5], 3000, seed=8)
    for o in (7.6, 100.0, 1e300):
        sim = simulate_scale_entropy(idist, fixed_length(10), [o], 3000, seed=8)
        assert sim.per_a.keys() == ref.per_a.keys()
        assert all(np.array_equal(sim.per_a[a], ref.per_a[a]) for a in ref.per_a)
