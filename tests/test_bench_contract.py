"""The names the benchmark harness in perfbench/ calls into melic by.

perfbench/spans.py wraps each (module, function) in TARGETS, and
perfbench/worker.py calls melic._kernels.backend() in the reference check
that every benchmark run makes, traced or not. Renaming or deleting any of
them fails every benchmark run, so the contract is checked here;
perfbench/ itself is only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_kernel_backend_is_named():
    from melic import _kernels

    assert isinstance(_kernels.backend(), str)
