"""In-memory span recording around calls into melic's layers.

The benchmark does not change the program: it rebinds each layer's public
functions, in every ``melic.*`` namespace that holds them, to a wrapper that
opens a span, calls the original and closes the span. Nested calls therefore
get parent spans (``train_ppm`` under ``within_corpus_repetition``,
``walk_chunk`` under ``simulate_scale_entropy``). Spans stay in memory and are
turned into per-layer metrics when the traced command ends.

A span's self time is its duration minus the part of its interval that its
child spans cover (the union, so children that overlap in worker threads are
not subtracted twice).
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Recorder:
    """Collects spans; each thread keeps its own stack of open spans.

    A span opened in a worker thread whose own stack is empty gets the
    innermost open span of the main thread as parent, since the only pools
    melic starts are started from inside a main-thread call.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span = Span(id=len(self.spans), name=name, parent=parent, start=time.perf_counter())
            self.spans.append(span)
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - union_length([(a, b) for a, b in kids if b > a])
    return out


def root_cover(spans: list[Span]) -> float:
    """Time covered by spans without a parent: the in-process time spent
    inside some layer."""
    return union_length([(s.start, s.end) for s in spans if s.parent is None])


# --- counters taken from a call's arguments and result ----------------------

def _c_parse(args, kwargs, res):
    data = args[0]
    return {"bytes_in": len(data), "notes": sum(len(m.events) for m in res.melodies)}


def _c_write(args, kwargs, res):
    return {"bytes_out": len(res)}


def _c_extract(args, kwargs, res):
    return {"symbols": len(res.symbols)}


def _c_remove(args, kwargs, res):
    return {"rounds": len(res.removed_matches)}


def _c_train(args, kwargs, res):
    return {"contexts": len(res.context_counts)}


def _c_ic(args, kwargs, res):
    return {"ic_symbols": len(res.per_symbol_bits)}


def _c_simulate(args, kwargs, res):
    return {
        "n_failed": res.n_failed,
        "n_sequences": res.n_sequences,
        "threads": kwargs.get("threads", 1),
    }


def _c_walk(args, kwargs, res):
    lengths, uniforms = args[2], args[5]
    return {
        "walks": int(lengths.shape[0]),
        "steps": int((lengths - 1).sum()),
        "uniforms": int(uniforms.size),
        "uniform_bytes": int(uniforms.nbytes),
    }


def _c_kde(args, kwargs, res):
    return {"kde_pairs": int(res.grid.size) * int(len(args[0]))}


# (module, function, span name, counter). Span names are "<layer>.<op>".
TARGETS = [
    ("melic.corpus", "parse_canonical", "corpus.parse", _c_parse),
    ("melic.corpus", "write_table", "corpus.write_table", _c_write),
    ("melic.viewpoints", "extract_viewpoint", "viewpoints.extract", _c_extract),
    ("melic.infotheory", "distribution_of", "infotheory.distribution", None),
    ("melic.infotheory", "entropy", "infotheory.entropy", None),
    ("melic.infotheory", "mutual_information_excess", "infotheory.mi", None),
    ("melic.repetition", "remove_repetition", "repetition.remove", _c_remove),
    ("melic.seqmodel", "within_corpus_repetition", "seqmodel.within", None),
    ("melic.seqmodel", "train_ppm", "seqmodel.train", _c_train),
    ("melic.seqmodel", "information_content", "seqmodel.ic", _c_ic),
    ("melic.genmodel", "simulate_scale_entropy", "genmodel.simulate", _c_simulate),
    ("melic.genmodel", "prob_entropy_below", "genmodel.prob_below", None),
    ("melic.genmodel", "scale_loglikelihood", "genmodel.loglik", None),
    ("melic.genmodel", "fit_generative_model", "genmodel.fit", None),
    ("melic.genmodel", "generate_pitch_sequences", "genmodel.generate", None),
    ("melic.genmodel", "generate_rhythm_sequences", "genmodel.generate", None),
    ("melic.genmodel", "pitch_fit_objective", "genmodel.objective", None),
    ("melic.genmodel", "rhythm_fit_objective", "genmodel.objective", None),
    ("melic._kernels", "walk_chunk", "kernels.walk", _c_walk),
    ("melic.stats", "kde_silverman", "stats.kde", _c_kde),
    ("melic.stats", "jsd", "stats.jsd", None),
]


def _wrap(rec: Recorder, fn, name: str, counter):
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if counter is not None:
            span.counts = counter(args, kwargs, res)
        return res

    return wrapper


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Rebind every target in every loaded melic module; returns what to
    restore."""
    modules = [m for n, m in list(sys.modules.items()) if n == "melic" or n.startswith("melic.")]
    restore = []
    for modname, attr, name, counter in TARGETS:
        original = getattr(sys.modules[modname], attr)
        wrapper = _wrap(rec, original, name, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, key, value))
                    setattr(mod, key, wrapper)
    return restore


def uninstall(restore) -> None:
    for mod, key, value in reversed(restore):
        setattr(mod, key, value)
