"""Unigram information measures: entropy, Gini coefficient, mutual information
with a shuffle null, entropy lower bound, power-law contours, and constructed
bounds on first/second-order entropy ratios."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import MelicError
from .viewpoints import intern


@dataclass(frozen=True)
class Distribution:
    """Alphabet with probabilities, sorted ascending by symbol."""

    alphabet: tuple
    probs: tuple[float, ...]
    counts: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.alphabet) < 1:
            raise MelicError("distribution needs at least one symbol")
        if any(p < 0 for p in self.probs):
            raise MelicError("negative probability")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise MelicError(f"probabilities sum to {sum(self.probs)}, not 1")

    @property
    def alphabet_size(self) -> int:
        return len(self.alphabet)


def distribution_of(seq) -> Distribution:
    """Empirical relative frequencies of a symbol sequence."""
    codes, alphabet = intern(seq)
    if not codes:
        raise MelicError("cannot build a distribution from an empty sequence")
    counts = tuple(np.bincount(codes).tolist())
    n = len(codes)
    return Distribution(alphabet=alphabet, probs=tuple(c / n for c in counts), counts=counts)


def _plugin_entropy(probs) -> float:
    """-sum p log2 p in bits, summed in the given (ascending-symbol) order."""
    return float(-sum(p * math.log2(p) for p in probs if p > 0.0)) + 0.0


def entropy(d: Distribution) -> float:
    """Plug-in Shannon entropy in bits."""
    return _plugin_entropy(d.probs)


def entropy_of(seq) -> float:
    return entropy(distribution_of(seq))


def gini(d: Distribution) -> float:
    """Gini coefficient from the Lorenz curve of the ascending-sorted probabilities.

    G = 1 - (2/A) * sum_i theta(p_i) + 1/A, theta the cumulative sum; 0 for a
    uniform distribution, approaching 1 for maximal inequality as A grows.
    """
    p = np.sort(np.asarray(d.probs, dtype=float))
    a = p.size
    theta = np.cumsum(p)
    return float(1.0 - (2.0 / a) * theta.sum() + 1.0 / a)


# --- mutual information with shuffle null ----------------------------------

def _entropy_of_codes(codes: np.ndarray) -> float:
    """entropy(distribution_of(symbols)) from the symbols' `intern` codes."""
    n = codes.size
    return _plugin_entropy(c / n for c in np.bincount(codes).tolist())


def mutual_information_excess(seqP, seqR, n_shuffles: int = 10, rng: np.random.Generator | None = None):
    """Nonnegative MI between two aligned sequences, the shuffle-null mean, and
    their difference I* = I - I_ran.

    Runs on `intern` codes; the joint symbol (p, r) is coded p * |R| + r,
    which orders the pairs as the pairs of symbols sort."""
    codesP, _ = intern(seqP)
    codesR, tableR = intern(seqR)
    if len(codesP) != len(codesR):
        raise MelicError(f"length mismatch: {len(codesP)} vs {len(codesR)}")
    if n_shuffles < 0:
        raise MelicError("n_shuffles must be >= 0")
    if not codesP:
        raise MelicError("cannot build a distribution from an empty sequence")
    cP = np.array(codesP, dtype=np.int64)
    cR = np.array(codesR, dtype=np.int64)
    joint_base = cP * len(tableR)
    # a shuffle permutes R, which changes neither marginal entropy
    h_marginals = _entropy_of_codes(cP) + _entropy_of_codes(cR)
    i_obs = h_marginals - _entropy_of_codes(joint_base + cR)
    if n_shuffles == 0:
        return i_obs, 0.0, i_obs
    if rng is None:
        raise MelicError("shuffled null requires an explicit rng")
    acc = 0.0
    n = len(cR)
    for _ in range(n_shuffles):
        acc += h_marginals - _entropy_of_codes(joint_base + cR[rng.permutation(n)])
    i_ran = acc / n_shuffles
    return i_obs, i_ran, i_obs - i_ran


# --- entropy lower bound ---------------------------------------------------

def entropy_lower_bound(A: int, L: int) -> float:
    """Minimum entropy of a length-L sequence using exactly A symbols: one
    symbol repeated L - A + 1 times, all others heard once."""
    if not 1 <= A <= L:
        raise MelicError(f"need 1 <= A <= L, got A={A}, L={L}")
    return _plugin_entropy(c / L for c in [L - A + 1] + [1] * (A - 1))


# --- power-law entropy/Gini contour ----------------------------------------

def _powerlaw_dist(A: int, exponent: float) -> Distribution:
    if A < 1:
        raise MelicError("A must be >= 1")
    w = np.arange(1, A + 1, dtype=float) ** (-float(exponent))
    p = w / w.sum()
    return Distribution(alphabet=tuple(range(A)), probs=tuple(p))


def powerlaw_entropy_gini(A: int, exponent: float) -> tuple[float, float]:
    """Entropy and Gini of p_i proportional to i^-exponent, i = 1..A."""
    d = _powerlaw_dist(A, exponent)
    return entropy(d), gini(d)


def max_gini(A: int) -> float:
    """Supremum of the Gini coefficient over distributions on A symbols."""
    return (A - 1) / A


def solve_powerlaw_H(A: int, G: float, tol: float = 1e-8) -> float:
    """Entropy of the power-law distribution on A symbols whose Gini equals G,
    found by bisection on the exponent."""
    if A < 1:
        raise MelicError("A must be >= 1")
    if G < 0 or G >= max_gini(A) or (A == 1 and G > 0):
        raise MelicError(f"G={G} outside achievable range [0, {max_gini(A)}) for A={A}")
    if G == 0 or A == 1:
        return math.log2(A)
    lo, hi = 0.0, 1.0
    while powerlaw_entropy_gini(A, hi)[1] < G:
        hi *= 2.0
        if hi > 1e6:
            raise MelicError(f"G={G} not reachable by a power law on A={A} symbols")
    while True:
        mid = 0.5 * (lo + hi)
        h, g = powerlaw_entropy_gini(A, mid)
        if abs(g - G) <= tol:
            return h
        if g < G:
            lo = mid
        else:
            hi = mid


# --- constructed entropy-ratio bound families ------------------------------

def _measure(pitches: list[int]) -> dict:
    h_pitch = entropy_of(pitches)
    h_mint = entropy_of([b - a for a, b in zip(pitches, pitches[1:])])
    ratio = math.inf if h_mint == 0.0 else h_pitch / h_mint
    return {"length": len(pitches), "H_pitch": h_pitch, "H_mint": h_mint, "ratio": ratio}


def entropy_ratio_bounds(L: int) -> list[dict]:
    """Construct three explicit pitch-sequence families and measure the
    H(Pitch)/H(M-Int) ratio each achieves at length L."""
    if L < 3:
        raise MelicError("L must be >= 3")
    climb = list(range(L))
    chromatic = [i % 2 for i in range(L)]
    wave = [0 if i % 2 == 0 else (i + 1) // 2 for i in range(L)]
    out = []
    for name, seq in (("climb", climb), ("chromatic", chromatic), ("stop_start_wave", wave)):
        rec = {"family": name}
        rec.update(_measure(seq))
        out.append(rec)
    return out
