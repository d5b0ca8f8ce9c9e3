"""Variable-order Markov prediction (PPM, escape method C, no exclusion) and
the controlled within-corpus repetition measure built on it. A model keeps
its training codes and counts a context when a prediction first reads it."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, MelicError
from .viewpoints import ViewpointKind, extract_viewpoint, intern


@dataclass
class PPMModel:
    max_order: int
    alphabet: tuple
    codes: np.ndarray  # every training code, with -1 before each sequence
    context_counts: dict[tuple, np.ndarray]  # context codes -> count of each next code, filled as read
    _dist_cache: dict = field(default_factory=dict, repr=False)  # context -> (positions, distribution)


@dataclass(frozen=True)
class ICResult:
    per_symbol_bits: tuple[float, ...]
    mean_bits: float


def _codes(seq, alphabet: tuple, what: str) -> tuple[int, ...]:
    try:
        return intern(seq, alphabet)[0]
    except KeyError as exc:
        raise MelicError(f"{what} {exc.args[0]!r} outside model alphabet") from None


def train_ppm(sequences, max_order: int, alphabet) -> PPMModel:
    """Keep the training sequences as one array of codes; a context's counts
    are taken when a prediction first reads it."""
    if max_order < 0:
        raise MelicError("max_order must be >= 0")
    alphabet = intern(alphabet)[1]
    codes = [-1]  # the -1 before each sequence keeps contexts inside it
    for seq in sequences:
        codes += _codes(seq, alphabet, "training symbol")
        codes.append(-1)
    return PPMModel(max_order, alphabet, np.array(codes, dtype=np.int64), context_counts={})


def _level_dist(model: PPMModel, ctx: tuple) -> np.ndarray:
    """Predictive distribution over the alphabet for one context of codes.

    Escape method C: a symbol seen in this context gets c/(n+e); the escape
    mass e/(n+e) goes to the lower-order distribution restricted to the
    unseen symbols, bottoming out at uniform below order 0. When every
    symbol is seen, the escape mass blends the lower order over the whole
    alphabet so probabilities still sum to one.
    """
    cache = model._dist_cache
    hit = cache.get(ctx)
    if hit is not None:
        return hit[1]
    codes, a = model.codes, len(model.alphabet)
    out = np.full(a, 1.0 / a)
    # built order by order from order 0: the training positions that follow a
    # suffix are those of the suffix one code shorter that one more code
    # matches; the first suffix with none ends the walk, and it and every
    # longer suffix predict as the suffix below it
    for k in range(len(ctx) + 1):
        suffix = ctx[len(ctx) - k :]
        hit = cache.get(suffix)
        if hit is None:
            pos = np.flatnonzero(codes >= 0) if k == 0 else pos[codes[pos - k] == suffix[0]]
            if not pos.size:
                break
            row = model.context_counts[suffix] = np.bincount(codes[pos], minlength=a)
            n, e = int(row.sum()), np.count_nonzero(row)
            lower, out = out, row / (n + e)
            esc = e / (n + e)
            if e == a:
                out += esc * lower
            else:
                unseen = row == 0
                rest = lower[unseen]
                out[unseen] = esc * rest / rest.sum()
            hit = cache[suffix] = (pos, out)
        pos, out = hit
    cache[ctx] = (pos, out)
    return out


def predict_distribution(model: PPMModel, context) -> dict:
    """P(next symbol | context) over the whole alphabet; sums to 1."""
    codes = _codes(context, model.alphabet, "context symbol")
    probs = _level_dist(model, codes[max(0, len(codes) - model.max_order) :])
    return {a: float(p) for a, p in zip(model.alphabet, probs)}


def information_content(model: PPMModel, seq) -> ICResult:
    """Per-symbol surprisal -log2 P under the PPM mixture, and its mean."""
    codes = _codes(seq, model.alphabet, "symbol")
    if not codes:
        raise MelicError("empty sequence")
    bits = [
        float(-np.log2(_level_dist(model, codes[max(0, i - model.max_order) : i])[code]))
        for i, code in enumerate(codes)
    ]
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
    for name, value in (("n_train", n_train), ("truncate", truncate), ("n_shuffle_reps", n_shuffle_reps)):
        if value < 1:
            raise MelicError(f"{name} must be >= 1, got {value}")
    if len(corpus.melodies) < n_train + 1:
        raise MelicError(
            f"corpus {corpus.meta.corpus_id!r}: needs at least {n_train + 1} melodies, has {len(corpus.melodies)}"
        )
    seqs, undefined = {}, {}
    for m in corpus.melodies:
        try:
            seqs[m.id] = extract_viewpoint(m, kind).symbols[:truncate]
        except MelicError as exc:
            seqs[m.id] = ()
            undefined[m.id] = str(exc)
    # codes keep the symbol order, so PPM on them gives the symbols' bits
    table = intern([s for syms in seqs.values() for s in syms])[1]
    seqs = {mid: intern(syms, table)[0] for mid, syms in seqs.items()}
    alphabet = range(len(table))
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
        raise MelicError(f"corpus {corpus.meta.corpus_id!r}: no melody has a {kind.value} symbol")
    mean_ic = float(np.mean([t[1] for t in per_target]))
    mean_ic_r = float(np.mean([t[2] for t in per_target]))
    return WithinCorpusResult(
        mean_ic=mean_ic,
        mean_ic_r=mean_ic_r,
        repetition_bits=mean_ic_r - mean_ic,
        per_target=tuple(per_target),
        left_out=tuple(left_out),
    )
