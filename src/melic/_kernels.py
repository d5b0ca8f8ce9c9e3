"""The interval walk behind the scale-entropy Monte Carlo and the I/IS pitch
models. `walk_chunk` advances a chunk of walks together, step by step, on
pre-drawn uniforms, so results do not depend on thread count."""

from __future__ import annotations

import numpy as np


def backend() -> str:
    # kept for the benchmark harness, which records it with every run
    return "numpy"


def walk_chunk(vals, probs, lengths, lo, hi, uniforms, allowed=None):
    """Interval walks from pitch 0. Step j of walk i draws from vals with
    uniforms[i, j] as ``Generator.choice(vals, p=w / w.sum())`` does, where w
    is probs (one row, or one per walk) on the intervals landing inside
    [lo[i], hi[i]] and, given the (walks, 12) mask `allowed`, on an allowed
    chroma. Returns the (walks, max length) pitches and the failed walks,
    which met a step with no legal interval and stopped there."""
    n = lengths.shape[0]
    # longest first, so the walks still running at step j are a prefix
    order = np.argsort(-lengths, kind="stable")
    steps = lengths[order] - 1
    lo, hi = lo[order], hi[order]
    probs = np.broadcast_to(probs, (n, len(vals)))[order]
    if allowed is not None:
        allowed = allowed[order]
    pitches = np.zeros((n, np.max(lengths, initial=1)), dtype=np.int64)
    pitch = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=bool)
    for j in range(pitches.shape[1] - 1):
        k = int(np.count_nonzero(steps > j))  # the walks still running
        p = pitch[:k]  # a view: updating it advances the walks
        cand = p[:, None] + vals[None, :]
        legal = (cand >= lo[:k, None]) & (cand <= hi[:k, None])
        if allowed is not None:
            legal &= np.take_along_axis(allowed[:k], cand % 12, axis=1)
        w = np.where(legal, probs[:k], 0.0)
        tot = w.sum(axis=1)
        failed[:k] |= ~(tot > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = np.cumsum(w / tot[:, None], axis=1)
            cdf /= cdf[:, -1:]
        pick = (cdf <= uniforms[order[:k], j][:, None]).sum(axis=1)
        p[:] = np.where(failed[:k], p, p + vals[pick])
        pitches[order[:k], j + 1] = p
    return pitches, failed[np.argsort(order)]
