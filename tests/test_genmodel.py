"""Generative pitch/rhythm models, JSD fitting, and the scale-entropy pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from melic import _kernels
from melic.genmodel import (
    GenModelError,
    PitchModelSpec,
    RhythmModelSpec,
    _metrical_base,
    _weights,
    complex_value_set,
    fit_generative_model,
    generate_pitch_sequences,
    generate_rhythm_sequences,
    pitch_fit_objective,
    prob_entropy_below,
    scale_loglikelihood,
    simple_value_set,
    simulate_scale_entropy,
)
from melic.infotheory import Distribution


def triangular_intervals():
    vals = tuple(range(-5, 6))
    w = np.array([6 - abs(v) for v in vals], dtype=float)
    w /= w.sum()
    return Distribution(alphabet=vals, probs=tuple(w))


def fixed_length(length):
    return Distribution(alphabet=(length,), probs=(1.0,))


def test_spec_validation():
    with pytest.raises(GenModelError):
        PitchModelSpec(family="X", dist=1, a=5, length=20)
    with pytest.raises(GenModelError):
        PitchModelSpec(family="S", dist=4, a=5, length=20)
    with pytest.raises(GenModelError):
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
    seqs = generate_pitch_sequences(spec, 10, rng)
    for chroma, mint, sdeg, sint in seqs:
        assert len(chroma) == 30 and len(mint) == 29
        assert len(set(chroma)) <= 5
        assert max(sdeg) <= len(set(chroma)) - 1


def test_generate_pitch_interval_family_respects_window():
    spec = PitchModelSpec(family="I", dist=1, a=3, length=40, o=1.0)
    rng = np.random.default_rng(2)
    for chroma, mint, _, _ in generate_pitch_sequences(spec, 10, rng):
        pitches = np.concatenate([[0], np.cumsum(mint)])
        assert pitches.min() >= -2 and pitches.max() <= 2
        assert all(abs(i) <= 3 for i in mint)


def test_generate_pitch_interval_scale_family():
    spec = PitchModelSpec(family="IS", dist=1, a=4, length=25, o=2.0)
    rng = np.random.default_rng(3)
    for chroma, _, _, _ in generate_pitch_sequences(spec, 10, rng):
        assert 0 in chroma  # walks start on the tonic
        assert len(set(chroma)) <= 4


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


def test_fit_generative_model_recovers_planted_setting():
    rng = np.random.default_rng(6)
    target_spec = PitchModelSpec(family="S", dist=1, a=5, length=30)
    target = generate_pitch_sequences(target_spec, 150, rng)
    from melic.genmodel import _ratio_samples_pitch

    mint_r, sint_r = _ratio_samples_pitch(target)
    grid = [
        PitchModelSpec(family="S", dist=1, a=a, length=30) for a in (2, 5, 10)
    ]
    best, score = fit_generative_model(
        "pitch", {"mint_ratio": mint_r, "sint_ratio": sint_r}, grid, n_per_setting=60, seed=7
    )
    assert best.a == 5
    assert score < 0.5


def test_fit_generative_model_validation():
    with pytest.raises(GenModelError):
        fit_generative_model("pitch", {"mint_ratio": []}, [None])
    with pytest.raises(GenModelError):
        fit_generative_model("pitch", {"mint_ratio": [1.0], "sint_ratio": [1.0]}, [])


def test_pitch_objective_zero_for_identical():
    rng = np.random.default_rng(7)
    seqs = generate_pitch_sequences(PitchModelSpec(family="S", dist=1, a=5, length=30), 50, rng)
    from melic.genmodel import _ratio_samples_pitch

    mint_r, sint_r = _ratio_samples_pitch(seqs)
    assert pitch_fit_objective(seqs, {"mint_ratio": mint_r, "sint_ratio": sint_r}) == pytest.approx(
        0.0, abs=1e-12
    )


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


def test_kernel_backends_agree():
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
    a = np.zeros(n, dtype=np.int64)
    h = np.zeros(n)
    _kernels.walk_chunk(vals, probs, lengths, -half, half, uniforms, a, h)
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
    with pytest.raises(GenModelError):
        scale_loglikelihood(sim, [])
    with pytest.raises(GenModelError):
        scale_loglikelihood(sim, [1.0, 2.0], alpha=1.5)


def test_simulate_validation():
    idist = triangular_intervals()
    with pytest.raises(GenModelError):
        simulate_scale_entropy(idist, fixed_length(10), [], 100)
    with pytest.raises(GenModelError):
        simulate_scale_entropy(idist, Distribution(alphabet=(0,), probs=(1.0,)), [1.0], 100)
