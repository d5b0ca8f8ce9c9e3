"""Generative sequence models: the nine pitch models, sixteen rhythm models,
JSD-based grid fitting, and the scale-degree likelihood pipeline."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .corpus import MelicError
from .infotheory import Distribution, distribution_of, entropy
from .stats import jsd, kde_silverman
from .viewpoints import _scale_degrees

PITCH_FAMILIES = ("S", "I", "IS")
RHYTHM_VALUE_SETS = ("SI", "CI", "SR", "CR")

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class GenModelError(MelicError):
    pass


@dataclass(frozen=True)
class PitchModelSpec:
    family: str  # S | I | IS
    dist: int  # 1 uniform, 2 power-law random, 3 power-law central
    a: int
    length: int
    o: float = 2.0  # pitch-range parameter
    exponent: float = 1.0

    def __post_init__(self):
        if self.family not in PITCH_FAMILIES:
            raise GenModelError(f"unknown pitch family {self.family!r}")
        if self.dist not in (1, 2, 3):
            raise GenModelError(f"unknown distribution code {self.dist}")

    @property
    def name(self) -> str:
        return f"{self.family}{self.dist}"


@dataclass(frozen=True)
class RhythmModelSpec:
    value_set: str  # SI | CI | SR | CR
    dist: int  # 1 uniform, 2 power-law random, 3 power-law central, 4 metrical
    a: int
    length: int
    exponent: float = 1.0

    def __post_init__(self):
        if self.value_set not in RHYTHM_VALUE_SETS:
            raise GenModelError(f"unknown rhythm value set {self.value_set!r}")
        if self.dist not in (1, 2, 3, 4):
            raise GenModelError(f"unknown distribution code {self.dist}")

    @property
    def name(self) -> str:
        return f"{self.value_set}{self.dist}"


def _weights(k: int, dist: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    if dist == 1:
        w = np.ones(k)
    elif dist == 2:
        w = np.arange(1, k + 1, dtype=float) ** (-exponent)
        w = w[rng.permutation(k)]
    elif dist == 3:
        center = (k - 1) / 2.0
        w = (1.0 + np.abs(np.arange(k) - center)) ** (-exponent)
    else:  # pragma: no cover
        raise GenModelError(f"bad dist {dist}")
    return w / w.sum()


def _derive(chromas: list[int], mints: list[int]):
    sdeg = _scale_degrees(chromas)
    sint = [b - a for a, b in zip(sdeg, sdeg[1:])]
    return tuple(chromas), tuple(mints), tuple(sdeg), tuple(sint)


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
    raise GenModelError("no legal move found after bounded retries")


def generate_pitch_sequences(spec: PitchModelSpec, n: int, rng: np.random.Generator):
    """Generate n sequences; each item is (chroma, mint, sdeg, sint) tuples."""
    out = []
    for _ in range(n):
        if spec.family == "S":
            scale = sorted(rng.choice(12, size=spec.a, replace=False))
            octaves = max(1, round(spec.o))
            alphabet = np.array([s + 12 * k for k in range(octaves) for s in scale])
            alphabet.sort()
            w = _weights(len(alphabet), spec.dist, spec.exponent, rng)
            pitches = [int(p) for p in rng.choice(alphabet, size=spec.length, p=w)]
        elif spec.family == "I":
            vals = np.arange(-spec.a, spec.a + 1)
            w = _weights(len(vals), spec.dist, spec.exponent, rng)
            half = max(1, round(2 * spec.o))
            pitches = _constrained_walk(vals, w, spec.length, -half, half, None, rng)
        else:  # IS
            scale = {0} | set(int(c) for c in rng.choice(np.arange(1, 12), size=spec.a - 1, replace=False))
            vals = np.arange(-spec.a, spec.a + 1)
            w = _weights(len(vals), spec.dist, spec.exponent, rng)
            half = max(1, round(2 * spec.o))
            pitches = _constrained_walk(vals, w, spec.length, -half, half, scale, rng)
        chromas = [p % 12 for p in pitches]
        mints = [b - a for a, b in zip(pitches, pitches[1:])]
        out.append(_derive(chromas, mints))
    return out


# --- rhythm models ---------------------------------------------------------

def simple_value_set(a: int) -> list[Fraction]:
    """Powers of two centered on 1."""
    k = a // 2
    return [Fraction(2) ** (i - k) for i in range(a)]


def complex_value_set(a: int) -> list[Fraction]:
    """Primes and reciprocals of primes: every pairwise ratio is unique."""
    if a > 2 * len(_PRIMES):
        raise GenModelError("prime table exhausted")
    vals = []
    for i in range(a):
        p = _PRIMES[i // 2 if i % 2 == 0 else (i - 1) // 2 + (a + 1) // 2]
        vals.append(Fraction(p) if i % 2 == 0 else Fraction(1, p))
    return sorted(vals)


def _metrical_base(onset: Fraction) -> int:
    # 4/4 grid in quarter-note units, beats counted from 1 at onset 0
    if onset.denominator != 1:
        return 1
    m = int(onset) % 4
    if m == 0:
        return 4
    if m == 2:
        return 3
    return 2


def generate_rhythm_sequences(spec: RhythmModelSpec, n: int, rng: np.random.Generator):
    """Generate n sequences; each item is (ioi, ioi_ratio) tuples of rationals."""
    is_ratio_set = spec.value_set in ("SR", "CR")
    values = simple_value_set(spec.a) if spec.value_set in ("SI", "SR") else complex_value_set(spec.a)
    out = []
    for _ in range(n):
        if spec.dist != 4:
            w = _weights(len(values), spec.dist, spec.exponent, rng)
            draws = [values[i] for i in rng.choice(len(values), size=spec.length, p=w)]
        else:
            # sequential choice weighted by metrical fit of the landing onset
            draws = []
            onset = Fraction(0)
            cur_ioi = Fraction(1)
            for _ in range(spec.length):
                next_iois = [cur_ioi * v for v in values] if is_ratio_set else values
                b = np.array([_metrical_base(onset + nv) for nv in next_iois], dtype=float)
                w = b ** spec.exponent
                w /= w.sum()
                i = int(rng.choice(len(values), p=w))
                draws.append(values[i])
                onset += next_iois[i]
                if is_ratio_set:
                    cur_ioi = next_iois[i]
        if is_ratio_set:
            ratios = list(draws)
            iois = [Fraction(1)]
            for r in ratios:
                iois.append(iois[-1] * r)
        else:
            iois = list(draws)
            ratios = [b / a for a, b in zip(iois, iois[1:])]
        out.append((tuple(iois), tuple(ratios)))
    return out


# --- JSD fitting -----------------------------------------------------------

def _hist(samples, bins) -> np.ndarray:
    h, _ = np.histogram(np.asarray(samples, dtype=float), bins=bins)
    return h.astype(float)


def _ratio_samples_pitch(seq_sets) -> tuple[list[float], list[float]]:
    mint_r, sint_r = [], []
    for chroma, mint, _sdeg, sint in seq_sets:
        hc = entropy(distribution_of(chroma))
        if hc <= 0 or len(mint) == 0:
            continue
        mint_r.append(entropy(distribution_of(mint)) / hc)
        sint_r.append(entropy(distribution_of(sint)) / hc)
    return mint_r, sint_r


def pitch_fit_objective(seq_sets, empirical_targets, bin_width: float = 0.02) -> float:
    """JSD of H(M-Int)/H(Chroma) plus JSD of H(S-Int)/H(Chroma) histograms."""
    bins = np.arange(0.0, 4.0 + bin_width, bin_width)
    mint_r, sint_r = _ratio_samples_pitch(seq_sets)
    if not mint_r:
        return 2.0
    return jsd(_hist(mint_r, bins), _hist(empirical_targets["mint_ratio"], bins)) + jsd(
        _hist(sint_r, bins), _hist(empirical_targets["sint_ratio"], bins)
    )


def rhythm_fit_objective(seq_sets, empirical_targets, bin_width: float = 0.02, h_bin: float = 0.5) -> float:
    """Expected JSD of P(H(IOI-ratio)/H(IOI) | H(IOI)) under the empirical
    H(IOI) distribution."""
    emp = empirical_targets["ioi_pairs"]  # list of (H_ioi, ratio)
    model_pairs = []
    for ioi, ratio in seq_sets:
        hi = entropy(distribution_of(ioi))
        if hi <= 0 or len(ratio) == 0:
            continue
        model_pairs.append((hi, entropy(distribution_of(ratio)) / hi))
    if not model_pairs:
        return 1.0
    bins = np.arange(0.0, 4.0 + bin_width, bin_width)
    emp_h = np.array([p[0] for p in emp])
    total = 0.0
    weight_sum = 0.0
    h_edges = np.arange(0.0, max(emp_h.max(), 0.5) + h_bin, h_bin)
    for lo, hi_edge in zip(h_edges, h_edges[1:]):
        emp_in = [r for h, r in emp if lo <= h < hi_edge]
        if not emp_in:
            continue
        mod_in = [r for h, r in model_pairs if lo <= h < hi_edge]
        weight = len(emp_in) / len(emp)
        if not mod_in:
            total += weight * 1.0  # maximal divergence when the model never lands here
        else:
            total += weight * jsd(_hist(mod_in, bins), _hist(emp_in, bins))
        weight_sum += weight
    return total if weight_sum > 0 else 1.0


def fit_generative_model(
    spec_family: str,
    empirical_targets: dict,
    param_grid: list,
    n_per_setting: int = 100,
    seed: int = 0,
    bin_width: float = 0.02,
):
    """Grid search minimizing the JSD objective; deterministic tie-break to
    the earliest grid point. spec_family is 'pitch' or 'rhythm'."""
    if not empirical_targets or not any(len(v) for v in empirical_targets.values()):
        raise GenModelError("empty empirical targets")
    if not param_grid:
        raise GenModelError("empty parameter grid")
    best_spec = None
    best_score = math.inf
    for i, spec in enumerate(param_grid):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        if spec_family == "pitch":
            seqs = generate_pitch_sequences(spec, n_per_setting, rng)
            score = pitch_fit_objective(seqs, empirical_targets, bin_width)
        elif spec_family == "rhythm":
            seqs = generate_rhythm_sequences(spec, n_per_setting, rng)
            score = rhythm_fit_objective(seqs, empirical_targets, bin_width)
        else:
            raise GenModelError(f"unknown family {spec_family!r}")
        if score < best_score:
            best_score = score
            best_spec = spec
    return best_spec, best_score


# --- scale-entropy pipeline ------------------------------------------------

@dataclass
class ScaleSimResult:
    per_a: dict[int, np.ndarray]
    n_sequences: int
    o_values: tuple[float, ...]
    n_failed: int = 0


def _dist_arrays(d: Distribution):
    vals = np.array([int(v) for v in d.alphabet], dtype=np.int64)
    probs = np.asarray(d.probs, dtype=float)
    return vals, probs


def simulate_scale_entropy(
    interval_dist: Distribution,
    length_dist: Distribution,
    o_values,
    n_sequences: int,
    seed: int = 0,
    threads: int = 1,
    chunk_size: int = 1 << 15,
) -> ScaleSimResult:
    """Sample interval walks (length and intervals from the given
    distributions, pitch confined to a 12*O-semitone window), fold to chroma,
    and record (A, H) per sequence grouped by A.

    Chunks get independent derived seeds, so the output is identical for any
    thread count.
    """
    if n_sequences < 1:
        raise GenModelError(f"need at least one walk, got {n_sequences}")
    o_values = tuple(float(o) for o in o_values)
    if not o_values:
        raise GenModelError("need at least one pitch-range value")
    vals, probs = _dist_arrays(interval_dist)
    lvals, lprobs = _dist_arrays(length_dist)
    if lvals.min() < 1:
        raise GenModelError("melody lengths must be >= 1")
    half_widths = np.array([round(6.0 * o) for o in o_values], dtype=np.int64)
    n_chunks = (n_sequences + chunk_size - 1) // chunk_size
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)

    def run_chunk(ci: int):
        start = ci * chunk_size
        size = min(chunk_size, n_sequences - start)
        rng = np.random.default_rng(seeds[ci])
        lengths = rng.choice(lvals, size=size, p=lprobs).astype(np.int64)
        half = half_widths[(start + np.arange(size)) % len(o_values)]
        l_max = int(lengths.max())
        uniforms = rng.random((size, max(1, l_max - 1)))
        out_a = np.zeros(size, dtype=np.int64)
        out_h = np.zeros(size, dtype=np.float64)
        _kernels.walk_chunk(vals, probs, lengths, -half, half, uniforms, out_a, out_h)
        return out_a, out_h

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, range(n_chunks)))
    else:
        results = [run_chunk(ci) for ci in range(n_chunks)]

    per_a: dict[int, list] = {}
    n_failed = 0
    for out_a, out_h in results:
        n_failed += int((out_a == 0).sum())
        for a in range(1, 13):
            mask = out_a == a
            if mask.any():
                per_a.setdefault(a, []).append(out_h[mask])
    # sorted samples keep downstream statistics independent of merge order
    merged = {a: np.sort(np.concatenate(chunks)) for a, chunks in per_a.items()}
    return ScaleSimResult(per_a=merged, n_sequences=n_sequences, o_values=o_values, n_failed=n_failed)


def scale_loglikelihood(
    sim: ScaleSimResult,
    empirical_h,
    alpha: float = 0.999,
    bin_width: float = 0.005,
    min_samples: int = 30,
) -> dict[int, float]:
    """log-likelihood per melody that scales of each alphabet size generated
    the empirical chroma-entropy distribution.

    P'(H) = alpha * KDE(empirical) + (1 - alpha)/5 on [0, 5] bits;
    logL(A) = sum over bins of Q_A(H) * log2 P'(H) * bin_width.
    """
    empirical_h = np.asarray(list(empirical_h), dtype=float)
    if empirical_h.size == 0:
        raise GenModelError("empty empirical entropy sample")
    if not 0 < alpha <= 1:
        raise GenModelError("alpha must be in (0, 1]")
    grid = np.arange(bin_width / 2, 5.0, bin_width)
    p = kde_silverman(empirical_h, grid=grid, clamp=True).density if alpha > 0 else np.zeros_like(grid)
    p_prime = alpha * p + (1.0 - alpha) / 5.0
    out: dict[int, float] = {}
    for a, samples in sorted(sim.per_a.items()):
        if samples.size < min_samples:
            continue  # flagged unreliable
        if np.ptp(samples) == 0:
            # degenerate sample (e.g. A=1 always gives H=0): delta mass in its bin
            q = np.zeros_like(grid)
            q[int(np.clip(samples[0] // bin_width, 0, grid.size - 1))] = 1.0 / bin_width
        else:
            q = kde_silverman(samples, grid=grid, clamp=True).density
        out[a] = float(np.sum(q * np.log2(p_prime)) * bin_width)
    return out


def prob_entropy_below(sim: ScaleSimResult, threshold: float = 2.8) -> dict[int, float]:
    """P(H < threshold | A) from the simulation samples."""
    return {a: float((s < threshold).mean()) for a, s in sorted(sim.per_a.items())}
