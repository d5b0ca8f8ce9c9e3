"""The interval walk behind the scale-entropy Monte Carlo and the I/IS pitch
models. `walk_chunk` advances a chunk of walks together, step by step, on
pre-drawn uniforms, so results do not depend on thread count. No step
computes a CDF: each state's CDF row and guide-table row (Chen & Asau 1974)
are built once, with the operations a step would apply, so the draws are
bit-identical to computing each walk's CDF at each step."""

from __future__ import annotations

import numpy as np

_CELLS = 1 << 18  # state-table cells per block of walks that are their own classes
_FALLBACK = np.iinfo(np.int64).min  # a guide cell whose bucket holds a CDF value


def backend() -> str:
    # kept for the benchmark harness, which records it with every run
    return "numpy"


def walk_chunk(vals, probs, lengths, lo, hi, uniforms, allowed=None):
    """Interval walks from pitch 0. Step j of walk i draws from vals with
    uniforms[i, j] as ``Generator.choice(vals, p=w / w.sum())`` does, where w
    is probs (one row, or one per walk) on the intervals landing inside
    [lo[i], hi[i]] and, given the (walks, 12) mask `allowed`, on an allowed
    chroma. Returns the (walks, max length) pitches and the failed walks,
    which met a step with no legal interval and stopped there.

    A walk's next draw depends only on its state: its class and its pitch.
    With one probs row and no mask, the walks with one window share a class;
    otherwise each walk is its own class, and the walks go in blocks of at
    most _CELLS state-table cells, so a wide window cannot outgrow memory."""
    n = lengths.shape[0]
    pitches = np.zeros((n, np.max(lengths, initial=1)), dtype=np.int64)
    failed = np.zeros(n, dtype=bool)
    shared = probs.ndim == 1 and allowed is None
    cells = int(np.max(np.maximum(hi, 0) - np.minimum(lo, 0) + 1, initial=1)) * len(vals)
    block = max(1, n if shared else _CELLS // cells)
    for i in range(0, n, block):
        b = slice(i, i + block)
        _walk_block(
            vals, probs if probs.ndim == 1 else probs[b], lengths[b], lo[b], hi[b], uniforms[b],
            None if allowed is None else allowed[b], shared, pitches[b], failed[b],
        )
    return pitches, failed


def _walk_block(vals, probs, lengths, lo, hi, uniforms, allowed, shared, pitches, failed):
    """walk_chunk on one block, into views of its outputs. A class's states
    are the pitches of its window and 0, where its walks start."""
    n, nv = lengths.shape[0], len(vals)
    if shared:
        span = hi.max() - hi.min() + 1  # lo * span + hi numbers the windows
        keys, cls = np.unique(lo * span + hi, return_inverse=True)
        rep = np.zeros(len(keys), dtype=np.int64)
        rep[cls] = np.arange(n)  # a walk of each class
    else:
        rep = cls = np.arange(n)
    plo = np.minimum(lo[rep], 0)
    size = np.maximum(hi[rep], 0) - plo + 1
    first = np.cumsum(size) - size - plo  # the state of a class's pitch 0
    walker = np.repeat(rep, size)  # a walk of each state's class
    cand = (np.arange(size.sum()) - np.repeat(first, size))[:, None] + vals[None, :]
    legal = (cand >= lo[walker, None]) & (cand <= hi[walker, None])
    if allowed is not None:
        legal &= np.take_along_axis(allowed[walker], cand % 12, axis=1)
    w = np.where(legal, np.broadcast_to(probs, (n, nv))[walker], 0.0)
    tot = w.sum(axis=1)
    dead = ~(tot > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf = np.cumsum(w / tot[:, None], axis=1)
        cdf /= cdf[:, -1:]
    # A draw u picks count(cdf <= u). With B a power of two, b = int(u * B)
    # is exact and u in [b/B, (b+1)/B), so the count lies between g_lo and
    # g_hi; where they are equal, the guide holds the move. B is the largest
    # power of two up to 256 that gives no more cells than draws.
    draws = int(np.sum(lengths - 1))
    B = 1 << min(8, max(1, draws // len(cdf)).bit_length() - 1)
    edges = np.arange(B + 1) / B
    g_lo = np.count_nonzero(cdf[:, None, :] <= edges[:-1, None], axis=2)
    g_hi = np.count_nonzero(cdf[:, None, :] < edges[1:, None], axis=2)
    guide = np.where(g_lo == g_hi, vals[np.minimum(g_lo, nv - 1)], _FALLBACK)
    guide[dead] = 0  # a walk in a dead state stays where it is
    guide = guide.ravel()

    # longest first, so the walks still running at step j are a prefix
    order = np.argsort(-lengths, kind="stable")
    steps = lengths[order] - 1
    running = np.searchsorted(-steps, -np.arange(int(steps.max(initial=0))))
    start = first[cls[order]]
    state = start.copy()
    # flat indices, so each step makes one strided gather and one scatter
    u_at, p_at = order * uniforms.shape[1], order * pitches.shape[1] + 1
    u_flat, p_flat = uniforms.reshape(-1), pitches.reshape(-1)
    for j, k in enumerate(running):
        s = state[:k]  # a view: updating it advances the walks
        u = u_flat[u_at[:k] + j]
        move = guide[s * B + (u * B).astype(np.int64)]
        m = np.flatnonzero(move == _FALLBACK)
        move[m] = vals[(cdf[s[m]] <= u[m, None]).sum(axis=1)]
        s += move
        p_flat[p_at[:k] + j] = s - start[:k]
    # dead states are absorbing: a walk failed iff it began its last step in one
    last = pitches[order, np.maximum(steps - 1, 0)]
    failed[order] = (steps > 0) & dead[start + last]
