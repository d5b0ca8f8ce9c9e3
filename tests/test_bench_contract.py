"""The names the benchmark harness in perfbench/ calls into melic by.

perfbench/spans.py wraps each (module, function) in TARGETS, and
perfbench/worker.py calls melic._kernels.backend() in the reference check
that every benchmark run makes, traced or not. Renaming or deleting any of
them fails every benchmark run, so the contract is checked here;
perfbench/ itself is only read. A span's counter reads the call's arguments
and result (``res.context_counts``, ``res.per_symbol_bits``, ...); renaming
one of those breaks only traced runs, so each counter is run here on a real
call through the harness's own wrappers.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import corpus_of, melody_from_pitches

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, function", [t[:2] for t in load_spans().TARGETS])
def test_span_target_exists(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


def test_the_worker_imports_load_every_span_target_module():
    """perfbench/worker.py imports only melic.cli and melic._kernels, and then
    spans.install looks each TARGETS module up in sys.modules. A melic module
    that cli.py imported lazily (inside a command) would be missing there, and
    every --trace 1 run would fail with a KeyError, so the imports are checked
    in a fresh interpreter, as the worker makes them."""
    modules = sorted({t[0] for t in load_spans().TARGETS})
    code = (
        "import sys\n"
        "from melic import cli\n"
        "from melic import _kernels\n"
        f"print([m for m in {modules!r} if m not in sys.modules])"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_kernel_backend_is_named():
    from melic import _kernels

    assert isinstance(_kernels.backend(), str)


def small_calls():
    """(module, function) -> a small real call that reaches it through the
    module attribute the harness rebinds; walk_chunk, train_ppm and
    information_content are reached from their callers, as in a benchmark
    run (walk_chunk from both of its callers)."""
    from melic import corpus, genmodel, repetition, seqmodel, stats, viewpoints
    from melic.infotheory import Distribution

    mels = corpus_of([melody_from_pitches(f"m{i}", [60, 62, 64, 62, 60 + i]) for i in range(4)])
    steps, lengths = Distribution((-2, 2), (0.5, 0.5)), Distribution((5,), (1.0,))

    def ppm():
        return seqmodel.within_corpus_repetition(mels, n_train=2, n_shuffle_reps=1)

    def walks():
        return genmodel.simulate_scale_entropy(steps, lengths, [1.0], 20, threads=1)

    def both_walks():
        walks()
        spec = genmodel.PitchModelSpec(family="IS", dist=2, a=4, length=6)
        genmodel.generate_pitch_sequences(spec, 3, np.random.default_rng(0))

    return {
        ("melic.corpus", "parse_canonical"): lambda: corpus.parse_canonical(corpus.serialize_canonical(mels)),
        ("melic.corpus", "write_table"): lambda: corpus.write_table([{"a": 1.5}]),
        ("melic.viewpoints", "extract_viewpoint"): lambda: viewpoints.extract_viewpoint(mels.melodies[0], "mint"),
        ("melic.repetition", "remove_repetition"): lambda: repetition.remove_repetition((1, 2, 1, 2)),
        ("melic.seqmodel", "train_ppm"): ppm,
        ("melic.seqmodel", "information_content"): ppm,
        ("melic.genmodel", "simulate_scale_entropy"): walks,
        ("melic._kernels", "walk_chunk"): both_walks,
        ("melic.stats", "kde_silverman"): lambda: stats.kde_silverman([1.0, 2.0, 4.0], grid=np.linspace(0, 5, 11)),
    }


@pytest.mark.parametrize("module, function, name", [t[:3] for t in load_spans().TARGETS if t[3] is not None])
def test_span_counter_reads_a_real_call(module, function, name):
    spans = load_spans()
    call = small_calls()[(module, function)]
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        call()
    finally:
        spans.uninstall(restore)
    counted = [s.counts for s in rec.spans if s.name == name]
    assert counted and all(counted), f"no counts recorded for {name}"
    if function == "walk_chunk":  # once per caller
        assert [c["walks"] for c in counted] == [20, 3]
    for counts in counted:
        assert all(isinstance(v, int) and v >= 0 for v in counts.values()), counts
