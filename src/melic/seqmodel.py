"""Variable-order Markov prediction (PPM, escape method C, no exclusion) and
the controlled within-corpus repetition measure built on it. A model keeps
its training codes and counts a context when a prediction first reads it."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, MelicError
from .viewpoints import ViewpointKind, extract_viewpoint, intern


@dataclass
class PPMModel:
    max_order: int
    alphabet: tuple
    codes: np.ndarray  # every training code, with -1 before each sequence
    # suffix trie, filled as read: (id of the context one code shorter, the
    # code before it) -> (id, training positions, distribution); a context
    # with no positions holds its suffix's distribution
    context_counts: dict[tuple[int, int], tuple[int, np.ndarray, np.ndarray]]


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


def _level_dist(model: PPMModel, codes, end: int) -> np.ndarray:
    """Predictive distribution over the alphabet after codes[:end], from its
    last max_order codes.

    Escape method C: a symbol seen in this context gets c/(n+e); the escape
    mass e/(n+e) goes to the lower-order distribution restricted to the
    unseen symbols, bottoming out at uniform below order 0. When every
    symbol is seen, the escape mass blends the lower order over the whole
    alphabet so probabilities still sum to one.
    """
    trie, train, a = model.context_counts, model.codes, len(model.alphabet)
    entry, out = -1, np.full(a, 1.0 / a)
    # walked from order 0 (keyed (-1, -1)): the training positions that follow
    # a context are those of its suffix one code shorter where one more code
    # matches; a context with none keeps its suffix's distribution and ends
    # the walk, since every longer context has none either
    for k in range(min(end, model.max_order) + 1):
        code = codes[end - k] if k else -1
        hit = trie.get((entry, code))
        if hit is None:
            pos = np.flatnonzero(train >= 0) if k == 0 else pos[train[pos - k] == code]
            if pos.size:
                row = np.bincount(train[pos], minlength=a)
                n, e = int(row.sum()), np.count_nonzero(row)
                lower, out = out, row / (n + e)
                esc = e / (n + e)
                if e == a:
                    out += esc * lower
                else:
                    unseen = row == 0
                    rest = lower[unseen]
                    out[unseen] = esc * rest / rest.sum()
            hit = trie[entry, code] = (len(trie), pos, out)
        entry, pos, out = hit
        if not pos.size:
            break
    return out


def predict_distribution(model: PPMModel, context) -> dict:
    """P(next symbol | context) over the whole alphabet; sums to 1."""
    codes = _codes(context, model.alphabet, "context symbol")
    probs = _level_dist(model, codes, len(codes))
    return {a: float(p) for a, p in zip(model.alphabet, probs)}


def information_content(model: PPMModel, seq) -> ICResult:
    """Per-symbol surprisal -log2 P under the PPM mixture, and its mean."""
    codes = _codes(seq, model.alphabet, "symbol")
    if not codes:
        raise MelicError("empty sequence")
    bits = [float(-np.log2(_level_dist(model, codes, i)[code])) for i, code in enumerate(codes)]
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
