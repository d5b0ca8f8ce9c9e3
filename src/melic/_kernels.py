"""Hot inner loop for the Monte Carlo scale-entropy simulation.

`walk_chunk` runs a chunk of interval walks at once with numpy: each step
advances every still-active walk together. It consumes pre-drawn uniforms,
so results do not depend on thread count.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    # kept for the benchmark harness, which records it with every run
    return "numpy"


def walk_chunk(vals, probs, lengths, lo, hi, uniforms, out_a, out_h):
    """Vectorized interval walks: at each step every active sequence samples
    from its interval distribution conditioned on staying inside [lo, hi]."""
    n = lengths.shape[0]
    nv = vals.shape[0]
    pitch = np.zeros(n, dtype=np.int64)
    counts = np.zeros((n, 12), dtype=np.int64)
    counts[np.arange(n), 0] += 1  # starting pitch 0 -> chroma 0
    max_steps = int(lengths.max()) - 1 if n else 0
    failed = np.zeros(n, dtype=bool)
    for j in range(max_steps):
        active = (j < lengths - 1) & ~failed
        if not active.any():
            break
        cand = pitch[:, None] + vals[None, :]
        w = np.where((cand >= lo[:, None]) & (cand <= hi[:, None]), probs[None, :], 0.0)
        tot = w.sum(axis=1)
        dead = active & (tot <= 0.0)
        failed |= dead
        active &= ~dead
        cum = np.cumsum(w, axis=1)
        u = uniforms[:, j] * tot
        pick = np.minimum((cum <= u[:, None]).sum(axis=1), nv - 1)
        step = vals[pick]
        pitch = np.where(active, pitch + step, pitch)
        chroma = ((pitch % 12) + 12) % 12
        idx = np.nonzero(active)[0]
        np.add.at(counts, (idx, chroma[idx]), 1)
    lengths_f = lengths.astype(np.float64)
    p = counts / lengths_f[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    out_h[:] = terms.sum(axis=1)
    out_a[:] = (counts > 0).sum(axis=1)
    out_a[failed] = 0
    out_h[failed] = np.nan
