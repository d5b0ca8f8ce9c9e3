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
from .infotheory import Distribution, entropy_of
from .stats import jsd, kde_silverman
from .viewpoints import ViewpointKind, pitch_symbols

PITCH_FAMILIES = ("S", "I", "IS")
RHYTHM_VALUE_SETS = ("SI", "CI", "SR", "CR")

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _check_spec(spec, a_max: float) -> None:
    """Reject an alphabet size, sequence length or exponent the generators
    cannot use."""
    if not 1 <= spec.a <= a_max:
        bound = ">= 1" if spec.a < 1 else f"<= {a_max}"
        raise MelicError(f"{spec.name}: alphabet size must be {bound}, got {spec.a}")
    if spec.length < 2:
        raise MelicError(f"{spec.name}: sequence length must be >= 2, got {spec.length}")
    if not math.isfinite(spec.exponent):
        raise MelicError(f"{spec.name}: exponent must be finite, got {spec.exponent}")


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
            raise MelicError(f"unknown pitch family {self.family!r}")
        if self.dist not in (1, 2, 3):
            raise MelicError(f"unknown distribution code {self.dist}")
        # S and IS draw a distinct chromas
        _check_spec(self, 12 if self.family in ("S", "IS") else math.inf)
        if not 0 < self.o < math.inf:
            raise MelicError(f"{self.name}: o must be finite and > 0, got {self.o}")
        # S draws from round(o) octaves of its scale: 10 octaves are 120 pitches, within MIDI's 128
        if self.family == "S" and round(self.o) > 10:
            raise MelicError(f"{self.name}: o must round to at most 10 octaves, got {self.o}")

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
            raise MelicError(f"unknown rhythm value set {self.value_set!r}")
        if self.dist not in (1, 2, 3, 4):
            raise MelicError(f"unknown distribution code {self.dist}")
        _check_spec(self, len(_PRIMES) if self.value_set in ("CI", "CR") else math.inf)

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
        raise MelicError(f"bad dist {dist}")
    return w / w.sum()


def generate_pitch_sequences(spec: PitchModelSpec, n: int, rng: np.random.Generator):
    """Generate n pitch sequences, each a list of spec.length pitches.

    I and IS are walks from pitch 0 inside +-2*o semitones, an IS walk on its
    own scale. Each walk draws its scale (IS), its weights and one uniform
    per step: the stream of one rng.choice per step."""
    if spec.family == "S":
        out = []
        for _ in range(n):
            scale = np.sort(rng.choice(12, size=spec.a, replace=False))
            k = spec.a * max(1, round(spec.o))
            w = _weights(k, spec.dist, spec.exponent, rng)
            # index i is pitch scale[i % a] + 12 * (i // a): the sorted alphabet, octave by octave
            i = rng.choice(k, size=spec.length, p=w)
            out.append((scale[i % spec.a] + 12 * (i // spec.a)).tolist())
        return out
    vals = np.arange(-spec.a, spec.a + 1)
    probs = np.empty((n, len(vals)))
    uniforms = np.empty((n, spec.length - 1))
    allowed = np.zeros((n, 12), dtype=bool) if spec.family == "IS" else None
    for i in range(n):
        if allowed is not None:
            allowed[i, [0, *rng.choice(np.arange(1, 12), size=spec.a - 1, replace=False)]] = True
        probs[i] = _weights(len(vals), spec.dist, spec.exponent, rng)
        uniforms[i] = rng.random(spec.length - 1)
    # a window as wide as the walks' reach gives the same walks as any wider one
    half = np.full(n, min(max(1, round(2 * spec.o)), spec.a * (spec.length - 1)))
    pitches, failed = _kernels.walk_chunk(vals, probs, np.full(n, spec.length), -half, half, uniforms, allowed)
    if failed.any():
        raise MelicError(f"{spec.name}: a walk found no legal interval with a weight above 0 (exponent {spec.exponent})")
    return pitches.tolist()


# --- rhythm models ---------------------------------------------------------

def simple_value_set(a: int) -> list[Fraction]:
    """Powers of two centered on 1."""
    k = a // 2
    return [Fraction(2) ** (i - k) for i in range(a)]


def complex_value_set(a: int) -> list[Fraction]:
    """Primes and reciprocals of primes: every pairwise ratio is unique."""
    if a > len(_PRIMES):  # a distinct primes
        raise MelicError(f"prime table exhausted: a must be <= {len(_PRIMES)}, got {a}")
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

_RATIO_BINS = np.arange(0.0, 4.0 + 0.02, 0.02)  # the fit objectives' entropy-ratio bins, 0.02 wide


def _hist(samples) -> np.ndarray:
    return np.histogram(samples, bins=_RATIO_BINS)[0]  # counts; jsd takes them as floats


def pitch_ratios(pitches) -> tuple[float, float] | None:
    """(H(M-Int)/H(Chroma), H(S-Int)/H(Chroma)) of a pitch sequence, or None
    where H(Chroma) is 0."""
    sdeg = pitch_symbols(pitches, ViewpointKind.SCALE_DEGREE)
    # scale degrees rank the chromas in chroma order, so their entropy is H(Chroma) bit for bit
    hc = entropy_of(sdeg)
    if hc == 0.0:
        return None
    # S-Int is the M-Int of the scale degrees
    mint, sint = pitch_symbols(pitches, ViewpointKind.MINT), pitch_symbols(sdeg, ViewpointKind.MINT)
    return entropy_of(mint) / hc, entropy_of(sint) / hc


def rhythm_pair(ioi, ratio) -> tuple[float, float] | None:
    """(H(IOI), H(IOI-ratio)/H(IOI)), or None where H(IOI) is 0."""
    hi = entropy_of(ioi)
    return None if hi == 0.0 else (hi, entropy_of(ratio) / hi)


def pitch_fit_objective(seq_sets, empirical) -> float:
    """JSD of H(M-Int)/H(Chroma) plus JSD of H(S-Int)/H(Chroma) histograms,
    the model sequences' pitch_ratios against the empirical ones."""
    model = [r for pitches in seq_sets if (r := pitch_ratios(pitches)) is not None]
    if not model:
        return 2.0
    (mint_m, sint_m), (mint_e, sint_e) = zip(*model), zip(*empirical)
    return jsd(_hist(mint_m), _hist(mint_e)) + jsd(_hist(sint_m), _hist(sint_e))


def _h_bins(pairs) -> dict[float, list[float]]:
    """The ratios of (H(IOI), ratio) pairs grouped by H(IOI) bins of 0.5
    bits: key k holds k/2 <= H(IOI) < (k+1)/2."""
    bins: dict[float, list[float]] = {}
    for h, r in pairs:
        bins.setdefault(h // 0.5, []).append(r)
    return bins


def rhythm_fit_objective(seq_sets, empirical) -> float:
    """Expected JSD of P(H(IOI-ratio)/H(IOI) | H(IOI)) under the empirical
    H(IOI) distribution, the model sequences' rhythm_pairs against the
    empirical ones, over H(IOI) bins of 0.5 bits."""
    model = _h_bins(p for ioi, ratio in seq_sets if (p := rhythm_pair(ioi, ratio)) is not None)
    if not model:
        return 1.0
    total = 0.0
    for k, emp_in in sorted(_h_bins(empirical).items()):
        mod_in = model.get(k)
        divergence = jsd(_hist(mod_in), _hist(emp_in)) if mod_in else 1.0  # maximal where the model never lands
        total += len(emp_in) / len(empirical) * divergence
    return total


def check_fit(param_grid: list, n_per_setting: int) -> None:
    """Reject an empty grid or fewer than 1 sequence per grid point."""
    if not param_grid:
        raise MelicError("empty parameter grid")
    if n_per_setting < 1:
        raise MelicError(f"n_per_setting must be >= 1, got {n_per_setting}")


def fit_generative_model(empirical: list, param_grid: list, n_per_setting: int = 100, seed: int = 0):
    """Grid search over pitch or rhythm specs minimizing the JSD objective
    between model sequences and empirical, the per-melody pitch_ratios or
    rhythm_pairs; deterministic tie-break to the earliest grid point."""
    if not empirical:
        raise MelicError("empty empirical targets")
    check_fit(param_grid, n_per_setting)
    if isinstance(param_grid[0], PitchModelSpec):
        generate, objective = generate_pitch_sequences, pitch_fit_objective
    else:
        generate, objective = generate_rhythm_sequences, rhythm_fit_objective
    scores = []
    for i, spec in enumerate(param_grid):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        scores.append(objective(generate(spec, n_per_setting, rng), empirical))
    best = min(range(len(scores)), key=scores.__getitem__)  # the earliest of equal scores
    return param_grid[best], scores[best]


# --- scale-entropy pipeline ------------------------------------------------

@dataclass
class ScaleSimResult:
    per_a: dict[int, np.ndarray]
    n_sequences: int
    n_failed: int = 0


_CHUNK = 1 << 15  # walks per kernel call, each chunk with its own derived seed, so the output depends on it


def _dist_arrays(d: Distribution):
    vals = np.array([int(v) for v in d.alphabet], dtype=np.int64)
    probs = np.asarray(d.probs, dtype=float)
    return vals, probs


def _chroma_entropy(pitches, lengths, failed):
    """(A, H) of each walk's chroma counts over its lengths[i] pitches; a
    failed walk gets A = 0 and H = nan."""
    n, width = pitches.shape
    counts = np.zeros(n * 13, dtype=np.int64)  # chroma 12 counts the padding
    rows = np.arange(n)[:, None] * 13
    for j in range(0, width, 16):  # 16 columns at a time keep temporaries small
        c = pitches[:, j : j + 16] % 12
        c[np.arange(j, j + c.shape[1]) >= lengths[:, None]] = 12
        counts += np.bincount((rows + c).ravel(), minlength=n * 13)
    p = counts.reshape(n, 13)[:, :12] / lengths.astype(np.float64)[:, None]
    h = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0).sum(axis=1)
    a = (p > 0).sum(axis=1)
    a[failed] = 0
    h[failed] = np.nan
    return a, h


def simulate_scale_entropy(
    interval_dist: Distribution,
    length_dist: Distribution,
    o_values,
    n_sequences: int,
    seed: int = 0,
    threads: int = 1,
) -> ScaleSimResult:
    """Sample interval walks (length and intervals from the given
    distributions, pitch confined to a 12*O-semitone window), fold to chroma,
    and record (A, H) per sequence grouped by A.

    Chunks get independent derived seeds, so the output is identical for any
    thread count.
    """
    if n_sequences < 1:
        raise MelicError(f"need at least one walk, got {n_sequences}")
    o_values = tuple(float(o) for o in o_values)
    if not o_values:
        raise MelicError("need at least one pitch-range value")
    for o in o_values:
        if not 0 < o < math.inf:
            raise MelicError(f"o must be finite and > 0, got {o}")
    vals, probs = _dist_arrays(interval_dist)
    lvals, lprobs = _dist_arrays(length_dist)
    if lvals.min() < 1:
        raise MelicError("melody lengths must be >= 1")
    # a window as wide as the walks' reach gives the same walks as any wider one
    reach = int(np.abs(vals).max()) * (int(lvals.max()) - 1)
    half_widths = np.array([min(round(6.0 * o), reach) for o in o_values], dtype=np.int64)
    n_chunks = (n_sequences + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)

    def run_chunk(ci: int):
        start = ci * _CHUNK
        size = min(_CHUNK, n_sequences - start)
        rng = np.random.default_rng(seeds[ci])
        lengths = rng.choice(lvals, size=size, p=lprobs).astype(np.int64)
        half = half_widths[(start + np.arange(size)) % len(o_values)]
        l_max = int(lengths.max())
        uniforms = rng.random((size, max(1, l_max - 1)))
        pitches, failed = _kernels.walk_chunk(vals, probs, lengths, -half, half, uniforms)
        return _chroma_entropy(pitches, lengths, failed)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run_chunk, range(n_chunks)))

    a, h = (np.concatenate(x) for x in zip(*results))
    # sorted samples keep downstream statistics independent of merge order
    per_a = {int(k): np.sort(h[a == k]) for k in np.unique(a[a > 0])}
    return ScaleSimResult(per_a=per_a, n_sequences=n_sequences, n_failed=int((a == 0).sum()))


_H_BIN = 0.005  # bits: the width of the scale log-likelihood's entropy bins
_MIN_SAMPLES = 30  # an alphabet size with fewer simulated walks gets no logL


def check_alpha(alpha: float) -> None:
    """Reject a KDE mixing weight outside (0, 1]."""
    if not 0 < alpha <= 1:
        raise MelicError(f"alpha must be in (0, 1], got {alpha}")


def scale_loglikelihood(sim: ScaleSimResult, empirical_h, alpha: float = 0.999) -> dict[int, float]:
    """log-likelihood per melody that scales of each alphabet size generated
    the empirical chroma-entropy distribution.

    P'(H) = alpha * KDE(empirical) + (1 - alpha)/5 on [0, 5] bits;
    logL(A) = sum over bins of Q_A(H) * log2 P'(H) * _H_BIN.
    """
    empirical_h = np.asarray(list(empirical_h), dtype=float)
    check_alpha(alpha)
    grid = np.arange(_H_BIN / 2, 5.0, _H_BIN)
    p = kde_silverman(empirical_h, grid=grid).density
    p_prime = alpha * p + (1.0 - alpha) / 5.0
    out: dict[int, float] = {}
    for a, samples in sorted(sim.per_a.items()):
        if samples.size < _MIN_SAMPLES:
            continue  # flagged unreliable
        if np.ptp(samples) == 0:
            # degenerate sample (e.g. A=1 always gives H=0): delta mass in its bin
            q = np.zeros_like(grid)
            q[int(np.clip(samples[0] // _H_BIN, 0, grid.size - 1))] = 1.0 / _H_BIN
        else:
            q = kde_silverman(samples, grid=grid).density
        out[a] = float(np.sum(q * np.log2(p_prime)) * _H_BIN)
    return out


def prob_entropy_below(sim: ScaleSimResult, threshold: float = 2.8) -> dict[int, float]:
    """P(H < threshold | A) from the simulation samples."""
    return {a: float((s < threshold).mean()) for a, s in sorted(sim.per_a.items())}
