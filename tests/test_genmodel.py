"""Generative pitch/rhythm models, JSD fitting, and the scale-entropy pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melic import _kernels
from melic.corpus import MelicError
from melic.genmodel import (
    PitchModelSpec,
    RhythmModelSpec,
    _chroma_entropy,
    _metrical_base,
    _weights,
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
from melic.infotheory import Distribution, entropy_of
from melic.viewpoints import ViewpointKind, pitch_symbols


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
    assert np.allclose(_weights(4, 1, 1.0, rng), 0.25)
    w2 = _weights(6, 2, 1.5, rng)
    assert w2.sum() == pytest.approx(1.0)
    assert sorted(w2, reverse=True)[0] == pytest.approx(max(w2))
    w3 = _weights(5, 3, 1.0, rng)
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
    assert rhythm_pair((1, 1, 1), (1, 1)) is None
    assert rhythm_pair((1, 2, 1, 2), (2, Fraction(1, 2), 2)) == pytest.approx((1.0, 0.9182958))


@given(st.lists(st.integers(-30, 130), min_size=1, max_size=40))
def test_pitch_ratios_are_the_entropy_ratios_of_the_pitch_symbols(pitches):
    hc = entropy_of(pitch_symbols(pitches, ViewpointKind.CHROMA))
    if hc == 0.0:
        assert pitch_ratios(pitches) is None
    else:
        h_mint, h_sint = (entropy_of(pitch_symbols(pitches, k)) for k in (ViewpointKind.MINT, ViewpointKind.SINT))
        assert pitch_ratios(pitches) == (h_mint / hc, h_sint / hc)


def test_metrical_base():
    assert _metrical_base(Fraction(0)) == 4
    assert _metrical_base(Fraction(4)) == 4
    assert _metrical_base(Fraction(2)) == 3
    assert _metrical_base(Fraction(1)) == 2
    assert _metrical_base(Fraction(3)) == 2
    assert _metrical_base(Fraction(1, 2)) == 1


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
        w = _weights(len(vals), spec.dist, spec.exponent, rng)
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


def test_interval_walk_without_a_legal_weighted_interval_is_an_error():
    # exponent 2000 leaves one interval a weight above 0; from 0 in +-2 no
    # walk can keep stepping by it
    spec = PitchModelSpec(family="I", dist=2, a=3, length=30, o=1.0, exponent=2000.0)
    with pytest.raises(MelicError, match="I2: a walk found no legal interval with a weight above 0"):
        generate_pitch_sequences(spec, 5, np.random.default_rng(0))


def test_generate_rhythm_iid_and_ratio_families():
    rng = np.random.default_rng(4)
    spec = RhythmModelSpec(value_set="SI", dist=1, a=5, length=20)
    for ioi, ratio in generate_rhythm_sequences(spec, 5, rng):
        assert len(ioi) == 20 and len(ratio) == 19
        assert set(ioi) <= set(simple_value_set(5))
        assert all(ratio[i] == ioi[i + 1] / ioi[i] for i in range(19))
    spec_r = RhythmModelSpec(value_set="SR", dist=1, a=5, length=20)
    for ioi, ratio in generate_rhythm_sequences(spec_r, 5, rng):
        assert len(ratio) == 20 and len(ioi) == 21
        assert set(ratio) <= set(simple_value_set(5))


def test_generate_rhythm_metrical_prefers_strong_beats():
    rng = np.random.default_rng(5)
    spec = RhythmModelSpec(value_set="SI", dist=4, a=5, length=200, exponent=3.0)
    (ioi, _), = generate_rhythm_sequences(spec, 1, rng)
    onsets = np.cumsum([float(v) for v in ioi])
    on_grid = np.mean([o == int(o) for o in onsets])
    assert on_grid > 0.5  # heavily weighted toward integer beats


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
    best, score = fit_generative_model(_pitch_pairs(target), grid, n_per_setting=60, seed=7)
    assert best.a == 5
    assert score < 0.5


def test_fit_generative_model_validation():
    with pytest.raises(MelicError, match="^empty empirical targets$"):
        fit_generative_model([], [None])
    with pytest.raises(MelicError, match="^empty parameter grid$"):
        fit_generative_model([(1.0, 1.0)], [])


def test_pitch_objective_zero_for_identical():
    rng = np.random.default_rng(7)
    seqs = generate_pitch_sequences(PitchModelSpec(family="S", dist=1, a=5, length=30), 50, rng)
    assert pitch_fit_objective(seqs, _pitch_pairs(seqs)) == pytest.approx(0.0, abs=1e-12)


def _rhythm_seqs(ioi_lists):
    """(ioi, ratio) sequences, as generate_rhythm_sequences returns them."""
    iois = [tuple(Fraction(x) for x in xs) for xs in ioi_lists]
    return [(ioi, tuple(b / a for a, b in zip(ioi, ioi[1:]))) for ioi in iois]


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
    assert rhythm_fit_objective(far, empirical) == pytest.approx(1.0, abs=1e-12)
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
    with pytest.raises(MelicError, match="^melody lengths must be >= 1$"):
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
