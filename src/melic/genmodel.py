"""Generative sequence models: the nine pitch models, sixteen rhythm models,
JSD-based grid fitting, and the scale-degree likelihood pipeline."""

from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .corpus import MelicError
from .infotheory import Distribution, entropy_of
from .stats import jsd, kde_silverman
from .viewpoints import ViewpointKind, pairs_of, pitch_symbols, ratios

PITCH_FAMILIES = ("S", "I", "IS")
RHYTHM_VALUE_SETS = ("SI", "CI", "SR", "CR")

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _check_spec(spec, a_max: int) -> None:
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
        # S and IS draw a distinct chromas; I's intervals span at most MIDI's 127 semitones
        _check_spec(self, 12 if self.family in ("S", "IS") else 127)
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
        # CI/CR take one prime per value; SI/SR's values 2^-(a//2)..2^(a-1-a//2)
        # and their exact products grow with a, so every set has at most 15 values
        _check_spec(self, len(_PRIMES))

    @property
    def name(self) -> str:
        return f"{self.value_set}{self.dist}"


def _normalized(w: np.ndarray, spec) -> np.ndarray:
    """w / w.sum(), or a MelicError where the sum is not finite and positive:
    a weight overflowed, or every weight underflowed to 0."""
    total = w.sum()
    if not 0.0 < total < math.inf:
        raise MelicError(f"{spec.name}: the weights have no finite, positive sum (exponent {spec.exponent})")
    return w / total


def _weights(k: int, spec, rng: np.random.Generator) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflow is reported by _normalized
        if spec.dist == 1:
            w = np.ones(k)
        elif spec.dist == 2:
            w = np.arange(1, k + 1, dtype=float) ** (-spec.exponent)
            w = w[rng.permutation(k)]
        elif spec.dist == 3:
            center = (k - 1) / 2.0
            w = (1.0 + np.abs(np.arange(k) - center)) ** (-spec.exponent)
        else:  # pragma: no cover
            raise MelicError(f"bad dist {spec.dist}")
    return _normalized(w, spec)


def _walk_half_width(spec: PitchModelSpec) -> int:
    """An I/IS walk's pitch window, +-2*o semitones, cut to the walk's reach:
    a window as wide as the reach gives the same walks as any wider one."""
    return max(1, round(min(2 * spec.o, spec.a * (spec.length - 1))))


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
            w = _weights(k, spec, rng)
            # index i is pitch scale[i % a] + 12 * (i // a): the sorted alphabet, octave by octave
            i = rng.choice(k, size=spec.length, p=w)
            out.append((scale[i % spec.a] + 12 * (i // spec.a)).tolist())
        return out
    vals = np.arange(-spec.a, spec.a + 1)
    # dists 1 and 3 draw no weights and I has no chroma mask, so I1/I3 walks
    # share one weight row, and the kernel builds one state table for them all
    shared = spec.family == "I" and spec.dist != 2
    probs = _weights(len(vals), spec, rng) if shared else np.empty((n, len(vals)))
    uniforms = np.empty((n, spec.length - 1))
    allowed = np.zeros((n, 12), dtype=bool) if spec.family == "IS" else None
    for i in range(n):
        if allowed is not None:
            allowed[i, [0, *rng.choice(np.arange(1, 12), size=spec.a - 1, replace=False)]] = True
        if not shared:
            probs[i] = _weights(len(vals), spec, rng)
        uniforms[i] = rng.random(spec.length - 1)
    half = np.full(n, _walk_half_width(spec))
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


_BEAT_BASES = (4, 2, 3, 2)  # 4/4 in quarter-note units: the metrical base of beats 1-4


def _metrical_base(num: int, den: int) -> int:
    """The metrical base of onset num/den (den > 0, not necessarily reduced),
    beats counted from 1 at onset 0; 1 off the beat."""
    return 1 if num % den else _BEAT_BASES[num // den % 4]


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def _cdf_row(w: np.ndarray) -> list[float]:
    """Generator.choice's CDF for normalized weights w, with its float
    operations: a draw u picks bisect_right(row, u)."""
    cdf = w.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def generate_rhythm_sequences(spec: RhythmModelSpec, n: int, rng: np.random.Generator):
    """Generate n sequences, each a list of IOIs as reduced (num, den) integer
    pairs: spec.length drawn from an IOI set (SI, CI), or for a ratio set (SR,
    CR) 1 and then spec.length IOIs, each the one before times a drawn ratio.
    Metrical models (dist 4) weigh each value by the metrical base of the
    onset it lands on.

    A sequence draws its weights (dists 1-3), then spec.length uniforms; a step
    picks bisect_right(row, u) on Generator.choice's CDF row: the draws of one
    rng.choice per sequence, or per step for dist 4, whose rows are cached per
    tuple of landing bases. Onsets are reduced pairs too, so onset N/D plus
    IOI a/b is an integer only where b == D and D divides N + a."""
    pairs = pairs_of(simple_value_set(spec.a) if spec.value_set in ("SI", "SR") else complex_value_set(spec.a))
    is_ratio_set = spec.value_set in ("SR", "CR")
    metrical = spec.dist == 4
    rows: dict[tuple, list[float]] = {}  # landing bases -> CDF row
    cands = pairs  # a step's candidate IOIs; dist 4 recomputes a ratio set's
    out = []
    for _ in range(n):
        if not metrical:
            row = _cdf_row(_weights(len(pairs), spec, rng))
        iois = [(1, 1)] if is_ratio_set else []
        p, q = 1, 1  # the last IOI
        num, den = 0, 1  # the onset, for dist 4; a ratio set's first IOI of 1 does not move it
        for u in rng.random(spec.length).tolist():
            if metrical:
                cands = [_reduced(p * a, q * b) for a, b in pairs] if is_ratio_set else pairs
                bases = tuple([_metrical_base(num + a, den) if b == den else 1 for a, b in cands])
                row = rows.get(bases)
                if row is None:
                    with np.errstate(over="ignore"):  # an overflow is reported by _normalized
                        row = rows[bases] = _cdf_row(_normalized(np.array(bases, dtype=float) ** spec.exponent, spec))
            i = bisect_right(row, u)
            # a ratio set's IOI is the last one times the drawn ratio, which dist 4 has computed
            ioi = _reduced(p * pairs[i][0], q * pairs[i][1]) if is_ratio_set and not metrical else cands[i]
            iois.append(ioi)
            p, q = ioi
            if metrical:
                num, den = _reduced(num * q + p * den, den * q)
        out.append(iois)
    return out


# --- JSD fitting -----------------------------------------------------------

PITCH_JSD_MAX = 2.0  # the pitch objective's maximum: two JSDs in bits
RHYTHM_JSD_MAX = 1.0  # the rhythm objective's maximum: an average of JSDs in bits
_RATIO_BINS = np.arange(0.0, 4.0 + 0.02, 0.02)  # the fit objectives' entropy-ratio bins, 0.02 wide


def _hist(samples) -> np.ndarray:
    # an entropy ratio can exceed 4: the last bin, closed on the right, takes every one above it
    return np.histogram(np.minimum(samples, _RATIO_BINS[-1]), bins=_RATIO_BINS)[0]  # counts; jsd takes them as floats


def pitch_ratios(pitches) -> tuple[float, float] | None:
    """(H(M-Int)/H(Chroma), H(S-Int)/H(Chroma)) of a pitch sequence, or None
    where H(Chroma) is 0."""
    sdeg = pitch_symbols(pitches, ViewpointKind.SCALE_DEGREE)
    hc = entropy_of(sdeg)  # the scale degrees count as the chromas do, so this is H(Chroma)
    if hc == 0.0:
        return None
    # S-Int is the M-Int of the scale degrees
    mint, sint = pitch_symbols(pitches, ViewpointKind.MINT), pitch_symbols(sdeg, ViewpointKind.MINT)
    return entropy_of(mint) / hc, entropy_of(sint) / hc


def rhythm_pair(iois) -> tuple[float, float] | None:
    """(H(IOI), H(IOI-ratio)/H(IOI)) of a sequence of IOIs, reduced (num, den)
    pairs, or None where H(IOI) is 0. The IOI ratios come from
    viewpoints.ratios, as a melody's do; they are derived first, so a zero IOI
    before another is an error even there."""
    iratio = ratios(iois)
    hi = entropy_of(iois)
    return None if hi == 0.0 else (hi, entropy_of(iratio) / hi)


def pitch_fit_objective(seq_sets, empirical) -> float:
    """JSD of H(M-Int)/H(Chroma) plus JSD of H(S-Int)/H(Chroma) histograms,
    the model sequences' pitch_ratios against the empirical ones."""
    model = [r for pitches in seq_sets if (r := pitch_ratios(pitches)) is not None]
    if not model:
        return PITCH_JSD_MAX
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
    model = _h_bins(p for iois in seq_sets if (p := rhythm_pair(iois)) is not None)
    if not model:
        return RHYTHM_JSD_MAX
    total = 0.0
    for k, emp_in in sorted(_h_bins(empirical).items()):
        mod_in = model.get(k)
        divergence = jsd(_hist(mod_in), _hist(emp_in)) if mod_in else 1.0  # maximal where the model never lands
        total += len(emp_in) * divergence
    return total / len(empirical)  # one division, so maximal divergences give exactly 1


_MAX_FIT_STEPS = 10**6  # sequences times length at one grid point: a run at the limit peaks near 330 MiB
_MAX_CR_WORK = 10**8  # sequences times length squared at a CR grid point: a run at the limit peaks near 75 MiB


def check_fit(param_grid: list, n_per_setting: int) -> None:
    """Reject an empty grid, fewer than 1 sequence per grid point, or a grid
    point whose generated sequences or walk table could outgrow memory."""
    if not param_grid:
        raise MelicError("empty parameter grid")
    if n_per_setting < 1:
        raise MelicError(f"n_per_setting must be >= 1, got {n_per_setting}")
    for spec in param_grid:
        work = f"{spec.name}: --n-per-setting {n_per_setting} times --grid-l {spec.length}"
        steps = n_per_setting * spec.length
        if steps > _MAX_FIT_STEPS:
            raise MelicError(f"{work} is {steps} steps, above the limit of {_MAX_FIT_STEPS} per grid point")
        # a CR step multiplies in a new prime, so an IOI's size grows with its position
        if isinstance(spec, RhythmModelSpec) and spec.value_set == "CR" and steps * spec.length > _MAX_CR_WORK:
            raise MelicError(f"{work} squared is {steps * spec.length}, above the CR limit of {_MAX_CR_WORK}")
        if isinstance(spec, PitchModelSpec) and spec.family != "S":  # an I/IS walk's table is never split
            rows = 2 * _walk_half_width(spec) + 1
            if rows * (2 * spec.a + 1) > _MAX_TABLE_CELLS:
                raise MelicError(
                    f"{spec.name}: a walk table of {rows} window pitches (--grid-o, --grid-a, --grid-l) "
                    f"times {2 * spec.a + 1} intervals (--grid-a) exceeds its limit of {_MAX_TABLE_CELLS} cells"
                )


def fit_generative_model(empirical: list, param_grid: list, n_per_setting: int = 100, seed: int = 0):
    """Grid search over pitch or rhythm specs minimizing the JSD objective
    between model sequences and empirical, the per-melody pitch_ratios or
    rhythm_pairs; deterministic tie-break to the earliest grid point.
    Returns (best spec, its score, how many grid points score the same)."""
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
    return param_grid[best], scores[best], scores.count(scores[best])


# --- scale-entropy pipeline ------------------------------------------------

@dataclass
class ScaleSimResult:
    per_a: dict[int, np.ndarray]
    n_sequences: int
    n_failed: int = 0


_BLOCK = 1 << 12  # walks per derived seed and pool task, a constant, so the walks do not depend on --threads
_MAX_THREADS = 8  # pool threads at most, whatever --threads asks for
_MAX_WALKS = 10**7  # walks at most: a run at the limit peaks near 2.1 GiB at --threads 2, mostly the largest KDEs
_MAX_TABLE_CELLS = 1 << 22  # the walk table's cells at most: a run at the limit peaks near 240 MiB
# a block's walks times its longest walk at most (2048 notes per walk): a run at
# the limit peaks near 300 MiB at --threads 1 and 560 MiB at 2, one block a thread
_MAX_BLOCK_CELLS = 1 << 23


def _pool(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=min(threads, _MAX_THREADS))


def _dist_arrays(d: Distribution):
    vals = np.array([int(v) for v in d.alphabet], dtype=np.int64)
    probs = np.asarray(d.probs, dtype=float)
    return vals, probs


def _chroma_entropy(pitches, lengths, failed):
    """(A, H) of each walk's chroma counts over its lengths[i] pitches; a
    failed walk gets A = 0 and H = nan. H sums over the counts in ascending
    order, so walks with equal count multisets get bit-equal H."""
    n, width = pitches.shape
    cells = np.arange(n)[:, None] * 12 + pitches % 12
    counts = np.bincount(cells[np.arange(width) < lengths[:, None]], minlength=n * 12)
    p = np.sort(counts.reshape(n, 12), axis=1) / lengths.astype(np.float64)[:, None]
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

    Blocks of _BLOCK walks get independent derived seeds, and one pool task
    draws a block's lengths and uniforms and walks it. A walk's draws depend
    only on its block's seed and its window, so the output is identical for
    any thread count.
    """
    if not 1 <= n_sequences <= _MAX_WALKS:
        raise MelicError(
            f"need at least one walk, got {n_sequences}" if n_sequences < 1
            else f"need at most {_MAX_WALKS} walks (--n), got {n_sequences}"
        )
    o_values = tuple(float(o) for o in o_values)
    if not o_values:
        raise MelicError("need at least one pitch-range value")
    for o in o_values:
        if not 0 < o < math.inf:
            raise MelicError(f"o must be finite and > 0, got {o}")
    vals, probs = _dist_arrays(interval_dist)
    lvals, lprobs = _dist_arrays(length_dist)
    low, high = int(lvals.min()), int(lvals.max())
    if low < 1 or _BLOCK * high > _MAX_BLOCK_CELLS:  # a block pads its walks to the longest one
        raise MelicError(f"melody lengths (--lengths) must be 1 to {_MAX_BLOCK_CELLS // _BLOCK}, got {low} to {high}")
    # a window as wide as the walks' reach gives the same walks as any wider one
    step = int(np.abs(vals).max())
    reach = step * (high - 1)
    half_widths = [round(min(6.0 * o, reach)) for o in o_values]
    if max(half_widths) + step >= 2**63:  # a walk's candidate pitches must fit in int64
        raise MelicError(
            f"a pitch window of half-width {max(half_widths)} (--o-values) plus an interval of {step} "
            "(--intervals) does not fit in a 64-bit integer"
        )
    rows = sum(2 * h + 1 for h in set(half_widths))  # the walk table's states: each window's pitches
    if rows * len(vals) > _MAX_TABLE_CELLS:
        raise MelicError(
            f"a walk table of {rows} window pitches (--o-values) times {len(vals)} intervals "
            f"(--intervals) exceeds its limit of {_MAX_TABLE_CELLS} cells"
        )
    half_widths = np.array(half_widths, dtype=np.int64)
    seeds = np.random.SeedSequence(seed).spawn((n_sequences + _BLOCK - 1) // _BLOCK)

    def walk_block(bi: int):
        start = bi * _BLOCK
        size = min(_BLOCK, n_sequences - start)
        rng = np.random.default_rng(seeds[bi])
        lengths = rng.choice(lvals, size=size, p=lprobs).astype(np.int64)
        half = half_widths[(start + np.arange(size)) % len(o_values)]
        uniforms = rng.random((size, max(1, int(lengths.max()) - 1)))
        pitches, failed = _kernels.walk_chunk(vals, probs, lengths, -half, half, uniforms)
        return _chroma_entropy(pitches, lengths, failed)

    with _pool(threads) as pool:
        a, h = (np.concatenate(x) for x in zip(*pool.map(walk_block, range(len(seeds)))))
    # pool.map merges in block order; the std, the KDE and slices of per_a see each sample sorted
    per_a = {int(k): np.sort(h[a == k]) for k in np.unique(a[a > 0])}
    return ScaleSimResult(per_a=per_a, n_sequences=n_sequences, n_failed=int((a == 0).sum()))


_H_BIN = 0.005  # bits: the width of the scale log-likelihood's entropy bins
_MIN_SAMPLES = 30  # an alphabet size with fewer simulated walks gets no logL


def check_alpha(alpha: float) -> None:
    """Reject a KDE mixing weight outside (0, 1]."""
    if not 0 < alpha <= 1:
        raise MelicError(f"alpha must be in (0, 1], got {alpha}")


def scale_loglikelihood(sim: ScaleSimResult, empirical_h, alpha: float = 0.999, threads: int = 1) -> dict[int, float]:
    """log-likelihood per melody that scales of each alphabet size generated
    the empirical chroma-entropy distribution. The per-A KDEs run in a pool
    of `threads` threads.

    P'(H) = alpha * KDE(empirical) + (1 - alpha)/5 on [0, 5] bits;
    logL(A) = sum over bins of Q_A(H) * log2 P'(H) * _H_BIN.
    """
    empirical_h = np.asarray(list(empirical_h), dtype=float)
    check_alpha(alpha)
    grid = np.arange(_H_BIN / 2, 5.0, _H_BIN)
    p = kde_silverman(empirical_h, grid=grid).density
    log_p = np.log2(alpha * p + (1.0 - alpha) / 5.0)

    def density(samples):
        if np.ptp(samples) != 0:
            return kde_silverman(samples, grid=grid).density
        # degenerate sample (e.g. A=1 always gives H=0): delta mass in its bin
        q = np.zeros_like(grid)
        q[int(np.clip(samples[0] // _H_BIN, 0, grid.size - 1))] = 1.0 / _H_BIN
        return q

    # an alphabet size with fewer than _MIN_SAMPLES walks is flagged unreliable and gets no logL
    kept = {a: s for a, s in sorted(sim.per_a.items()) if s.size >= _MIN_SAMPLES}
    with _pool(threads) as pool:
        return {a: float(np.sum(q * log_p) * _H_BIN) for a, q in zip(kept, pool.map(density, kept.values()))}


def prob_entropy_below(sim: ScaleSimResult, threshold: float = 2.8) -> dict[int, float]:
    """P(H < threshold | A) from the simulation samples."""
    return {a: float((s < threshold).mean()) for a, s in sorted(sim.per_a.items())}
