"""Unigram information measures: entropy, Gini coefficient, mutual information
with a shuffle null, and the entropy lower bound."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import MelicError
from .viewpoints import intern, symbols_of


@dataclass(frozen=True)
class Distribution:
    """Alphabet with probabilities, sorted ascending by symbol."""

    alphabet: tuple
    probs: tuple[float, ...]

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
    n = len(codes)
    return Distribution(alphabet=alphabet, probs=tuple(c / n for c in np.bincount(codes).tolist()))


def _plugin_entropy(probs) -> float:
    """-sum p log2 p in bits, summed left to right in ascending order of p:
    an explicit loop, so no Python version's builtin sum can move the last
    bits. Equal count multisets give bit-equal H, whatever their symbols."""
    acc = 0.0
    for p in sorted(probs):
        if p > 0.0:
            acc += p * math.log2(p)
    return -acc + 0.0


def entropy(d: Distribution) -> float:
    """Plug-in Shannon entropy in bits."""
    return _plugin_entropy(d.probs)


def entropy_of(seq) -> float:
    """entropy(distribution_of(seq)) from the symbols' counts."""
    symbols = symbols_of(seq)
    if not symbols:
        raise MelicError("cannot build a distribution from an empty sequence")
    n = len(symbols)
    return _plugin_entropy(c / n for c in Counter(symbols).values())


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
    # drops bincount's zeros (codes absent here), so _plugin_entropy sorts only the counts that occur
    return _plugin_entropy([c / n for c in np.bincount(codes).tolist() if c])


def mutual_information_excess(seqP, seqR, n_shuffles: int = 10, rng: np.random.Generator | None = None):
    """Nonnegative MI between two aligned sequences, the shuffle-null mean, and
    their difference I* = I - I_ran.

    Runs on `intern` codes; the joint symbol (p, r) is coded p * |R| + r."""
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
