"""Variable-order Markov prediction (PPM, escape method C, no exclusion) and
the controlled within-corpus repetition measure built on it."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, MelicError
from .viewpoints import ViewpointError, ViewpointKind, extract_viewpoint, symbols_of


class SeqModelError(MelicError):
    pass


@dataclass
class PPMModel:
    max_order: int
    alphabet: tuple
    context_counts: dict[tuple, dict]
    _dist_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {a: i for i, a in enumerate(self.alphabet)}


@dataclass(frozen=True)
class ICResult:
    per_symbol_bits: tuple[float, ...]
    mean_bits: float


def train_ppm(sequences, max_order: int, alphabet) -> PPMModel:
    """Count all n-grams up to max_order over the training sequences."""
    if max_order < 0:
        raise SeqModelError("max_order must be >= 0")
    alphabet = tuple(sorted(set(alphabet)))
    alpha_set = set(alphabet)
    counts: dict[tuple, dict] = {}
    for seq in sequences:
        syms = symbols_of(seq)
        for i, sym in enumerate(syms):
            if sym not in alpha_set:
                raise SeqModelError(f"training symbol {sym!r} outside declared alphabet")
            for k in range(min(i, max_order) + 1):
                ctx = syms[i - k : i]
                counts.setdefault(ctx, {})
                counts[ctx][sym] = counts[ctx].get(sym, 0) + 1
    return PPMModel(max_order=max_order, alphabet=alphabet, context_counts=counts)


def _level_dist(model: PPMModel, ctx: tuple) -> np.ndarray:
    """Predictive distribution over the alphabet for one context.

    Escape method C: a symbol seen in this context gets c/(n+e); the escape
    mass e/(n+e) goes to the lower-order distribution restricted to the
    unseen symbols, bottoming out at uniform below order 0. When every
    symbol is seen, the escape mass blends the lower order over the whole
    alphabet so probabilities still sum to one.
    """
    cached = model._dist_cache.get(ctx)
    if cached is not None:
        return cached
    a = len(model.alphabet)
    table = model.context_counts.get(ctx)
    if not table:
        out = _level_dist(model, ctx[1:]) if ctx else np.full(a, 1.0 / a)
        model._dist_cache[ctx] = out
        return out
    lower = _level_dist(model, ctx[1:]) if ctx else np.full(a, 1.0 / a)
    n = sum(table.values())
    e = len(table)
    out = np.zeros(a)
    seen = np.zeros(a, dtype=bool)
    for sym, c in table.items():
        i = model._index[sym]
        out[i] = c / (n + e)
        seen[i] = True
    esc = e / (n + e)
    if seen.all():
        out += esc * lower
    else:
        z = lower[~seen].sum()
        out[~seen] = esc * lower[~seen] / z
    model._dist_cache[ctx] = out
    return out


def predict_distribution(model: PPMModel, context) -> dict:
    """P(next symbol | context) over the whole alphabet; sums to 1."""
    ctx = tuple(context)[-model.max_order :] if model.max_order > 0 else ()
    probs = _level_dist(model, ctx)
    return {a: float(p) for a, p in zip(model.alphabet, probs)}


def information_content(model: PPMModel, seq) -> ICResult:
    """Per-symbol surprisal -log2 P under the PPM mixture, and its mean."""
    syms = symbols_of(seq)
    if not syms:
        raise SeqModelError("empty sequence")
    bits = []
    for i, sym in enumerate(syms):
        if sym not in model._index:
            raise SeqModelError(f"symbol {sym!r} outside model alphabet")
        ctx = syms[max(0, i - model.max_order) : i]
        p = _level_dist(model, ctx)[model._index[sym]]
        bits.append(float(-np.log2(p)))
    return ICResult(per_symbol_bits=tuple(bits), mean_bits=float(np.mean(bits)))


# --- within-corpus repetition ----------------------------------------------

@dataclass(frozen=True)
class WithinCorpusResult:
    mean_ic: float
    mean_ic_r: float
    repetition_bits: float
    per_target: tuple[tuple[str, float, float], ...]
    left_out: tuple[tuple[str, str], ...]  # (id, reason) of each non-target, in corpus order


def _target_seed(base_seed: int, melody_id: str) -> int:
    # derived from the target id so results do not depend on iteration order
    digest = hashlib.sha256(f"{base_seed}:{melody_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def within_corpus_repetition(
    corpus: Corpus,
    kind: ViewpointKind = ViewpointKind.MINT,
    n_train: int = 10,
    truncate: int = 50,
    n_shuffle_reps: int = 10,
    max_order: int = 5,
    seed: int = 0,
) -> WithinCorpusResult:
    """Mean information content of each melody under a PPM model trained on
    other melodies of the corpus, against retrainings on within-melody
    shuffled copies; repetition_bits = IC_r - IC. A melody whose truncated
    sequence is empty, or on which the viewpoint is undefined, stays in the
    training pool as an empty sequence but is left out as a target."""
    if truncate < 1:
        raise SeqModelError(f"truncate must be >= 1, got {truncate}")
    if len(corpus.melodies) < n_train + 1:
        raise SeqModelError(
            f"corpus {corpus.meta.corpus_id!r}: needs at least {n_train + 1} melodies, has {len(corpus.melodies)}"
        )
    seqs, undefined = {}, {}
    for m in corpus.melodies:
        try:
            seqs[m.id] = extract_viewpoint(m, kind).symbols[:truncate]
        except ViewpointError as exc:
            seqs[m.id] = ()
            undefined[m.id] = str(exc)
    alphabet = sorted({s for syms in seqs.values() for s in syms})
    per_target = []
    left_out = []
    for m in corpus.melodies:
        target = seqs[m.id]
        if not target:
            left_out.append((m.id, undefined.get(m.id, f"empty {kind.value} sequence")))
            continue
        # candidate pool in id order, so results do not depend on corpus ordering
        others = [seqs[mid] for mid in sorted(seqs) if mid != m.id]
        rng = np.random.default_rng(_target_seed(seed, m.id))
        idx = rng.choice(len(others), size=n_train, replace=False)
        train = [others[i] for i in idx]
        model = train_ppm(train, max_order, alphabet)
        ic = information_content(model, target).mean_bits
        acc = 0.0
        for _ in range(n_shuffle_reps):
            shuffled = [tuple(t[j] for j in rng.permutation(len(t))) for t in train]
            acc += information_content(train_ppm(shuffled, max_order, alphabet), target).mean_bits
        ic_r = acc / n_shuffle_reps
        per_target.append((m.id, ic, ic_r))
    if not per_target:
        raise SeqModelError(f"corpus {corpus.meta.corpus_id!r}: no melody has a {kind.value} symbol")
    mean_ic = float(np.mean([t[1] for t in per_target]))
    mean_ic_r = float(np.mean([t[2] for t in per_target]))
    return WithinCorpusResult(
        mean_ic=mean_ic,
        mean_ic_r=mean_ic_r,
        repetition_bits=mean_ic_r - mean_ic,
        per_target=tuple(per_target),
        left_out=tuple(left_out),
    )
