"""Variable-order Markov prediction (PPM, escape method C, no exclusion) and
the controlled within-corpus repetition measure built on it. A model keeps
its training codes; a prediction counts the contexts it reads, one order at
a time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, MelicError
from .viewpoints import ViewpointKind, extract_viewpoint, intern, symbols_of


@dataclass
class PPMModel:
    max_order: int
    alphabet: tuple
    codes: np.ndarray  # every training code, with -1 before each sequence
    # always empty: a prediction counts its contexts and keeps none; kept
    # because the benchmark's span counter reads its length
    context_counts: dict


@dataclass(frozen=True)
class ICResult:
    per_symbol_bits: tuple[float, ...]
    mean_bits: float


def _codes(seq, rank: dict, what: str) -> list[int]:
    try:
        return [rank[s] for s in symbols_of(seq)]
    except KeyError as exc:
        raise MelicError(f"{what} {exc.args[0]!r} outside model alphabet") from None


def train_ppm(sequences, max_order: int, alphabet) -> PPMModel:
    """Keep the training sequences as one array of codes; a context's counts
    are taken when a prediction reads it."""
    if max_order < 0:
        raise MelicError("max_order must be >= 0")
    alphabet = intern(alphabet)[1]
    rank = {s: i for i, s in enumerate(alphabet)}
    codes = [-1]  # the -1 before each sequence keeps contexts inside it
    for seq in sequences:
        codes += _codes(seq, rank, "training symbol")
        codes.append(-1)
    return PPMModel(max_order, alphabet, np.array(codes, dtype=np.int64), context_counts={})


def _escape_c(counts: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Escape method C, row by row: a symbol seen c times in a context of n
    counts and e distinct symbols gets c/(n+e); the escape mass e/(n+e) goes
    to the row's lower-order distribution restricted to the unseen symbols,
    or, when every symbol is seen, blends it over the whole alphabet so the
    row still sums to one. The unseen mass is summed left to right in code
    order, a sum whose bits do not depend on numpy's pairwise summation."""
    e = np.count_nonzero(counts, axis=1)[:, None]
    total = counts.sum(axis=1, keepdims=True) + e
    unseen = counts == 0
    full = e == counts.shape[1]
    z = np.where(full, 1.0, np.where(unseen, lower, 0.0).cumsum(axis=1)[:, -1:])
    return counts / total + np.where(unseen | full, e / total * lower / z, 0.0)


def _dists(model: PPMModel, codes: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Predictive distribution after codes[:end], from its last max_order
    codes, for each end: one row over the alphabet each.

    All rows walk the context orders 0, 1, 2, ... together. The contexts at
    order k are the distinct (context at order k - 1, code k back) pairs of
    the rows still live, and their training positions are those of the
    parent where the code k back matches. A row whose context has no
    positions keeps its parent's distribution, as does every longer context,
    so it retires there; a row at its last order retires with its context's.
    """
    train, a = model.codes, len(model.alphabet)
    out = np.empty((len(ends), a))
    rows = np.arange(len(ends))  # the rows still live, and each one's context
    ctx = np.zeros(len(ends), dtype=np.int64)
    dist = np.full((1, a), 1.0 / a)  # each context's distribution; uniform below order 0
    parent = np.zeros(1, dtype=np.int64)  # each context's index in the order before
    pos = np.flatnonzero(train >= 0)  # training positions, as (context, position) pairs
    pos_ctx = np.zeros(len(pos), dtype=np.int64)
    k = 0
    while rows.size:
        if k:
            # a training -1 keys as slot a of the context before, which no row has
            keys, ctx = np.unique(ctx * (a + 1) + codes[ends[rows] - k], return_inverse=True)
            pos_keys = pos_ctx * (a + 1) + train[pos - k]
            pos_ctx = np.minimum(np.searchsorted(keys, pos_keys), len(keys) - 1)
            hit = keys[pos_ctx] == pos_keys
            pos, pos_ctx, parent = pos[hit], pos_ctx[hit], keys // (a + 1)
        counts = np.bincount(pos_ctx * a + train[pos], minlength=len(parent) * a).reshape(-1, a)
        seen = counts.any(axis=1)
        unread = ~seen[ctx]
        out[rows[unread]] = dist[parent[ctx[unread]]]
        dist = _escape_c(counts[seen], dist[parent[seen]])
        renumber = np.cumsum(seen) - 1
        pos_ctx, ctx = renumber[pos_ctx], renumber[ctx]
        done = ~unread & ((ends[rows] == k) | (k == model.max_order))
        out[rows[done]] = dist[ctx[done]]
        live = ~(unread | done)
        rows, ctx = rows[live], ctx[live]
        k += 1
    return out


def _target_codes(model: PPMModel, seq, what: str) -> np.ndarray:
    return np.array(_codes(seq, {s: i for i, s in enumerate(model.alphabet)}, what), dtype=np.int64)


def predict_distribution(model: PPMModel, context) -> dict:
    """P(next symbol | context) over the whole alphabet; sums to 1."""
    codes = _target_codes(model, context, "context symbol")
    probs = _dists(model, codes, np.array([len(codes)]))[0]
    return {a: float(p) for a, p in zip(model.alphabet, probs)}


def information_content(model: PPMModel, seq) -> ICResult:
    """Per-symbol surprisal -log2 P under the PPM mixture, and its mean."""
    codes = _target_codes(model, seq, "symbol")
    if not codes.size:
        raise MelicError("empty sequence")
    ends = np.arange(len(codes))
    bits = -np.log2(_dists(model, codes, ends)[ends, codes])
    return ICResult(per_symbol_bits=tuple(bits.tolist()), mean_bits=float(np.mean(bits)))


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
    # imported here: about 4 ms of start-up, which numpy.random pays too, but entropy and totalinfo do not
    import hashlib

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
        train = [np.array(t, dtype=np.int64) for t in train]
        acc = 0.0
        for _ in range(n_shuffle_reps):
            # one permutation per sequence, drawn in order, empty ones included
            shuffled = [t[rng.permutation(len(t))].tolist() for t in train]
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
