"""Runs melic commands in-process: ``python3 worker.py JOB RESULT``.

JOB is a JSON file {"trace": bool, "traced_first": bool, "commands":
[{"argv": [...], "out": path, "out_traced": path}]}. Each command runs through
``melic.cli.main(argv)`` without tracing and, when "trace" is set, once more
with spans recorded around every layer call. RESULT receives the import
time, the environment, and per command the wall times, exit code, any
traceback and the per-layer sums.
"""

from __future__ import annotations

import json
import platform
import sys
import time
import traceback
from collections import defaultdict

import spans

# Spans that always have children: their metric is named *_self_s.
PARENT_SPANS = {"seqmodel.within", "genmodel.simulate", "genmodel.loglik", "genmodel.fit"}
CALL_COUNTS = {
    "corpus.parse", "viewpoints.extract", "infotheory.distribution", "infotheory.mi",
    "repetition.remove", "seqmodel.train", "stats.kde",
}


def layer_sums(recorded: list[spans.Span], wall: float) -> dict[str, float]:
    """Per-layer sums for one traced command.

    Every *_s value is a self time, so the layers' *_s values plus
    cli.self_s, minus the parallel overlap, equal the traced wall time.
    """
    self_t = spans.self_times(recorded)
    out: dict[str, float] = defaultdict(float)
    for s in recorded:
        layer = s.name.split(".")[0]
        suffix = "_self_s" if s.name in PARENT_SPANS else "_s"
        out[s.name + suffix] += self_t[s.id]
        out["layers_self_s"] += self_t[s.id]
        if s.name in CALL_COUNTS:
            out[s.name + "_calls"] += 1
        for k, v in s.counts.items():
            out[f"{layer}.{k}"] += v
        if s.name == "genmodel.simulate":
            out["genmodel.simulate_thread_total"] += s.counts["threads"] * (s.end - s.start)
    out["cli.self_s"] = wall - spans.root_cover(recorded)
    out["parallel_overlap_s"] = out["layers_self_s"] + out["cli.self_s"] - wall
    return dict(out)


def _run(main, argv, out_path):
    err = None
    t0 = time.perf_counter()
    try:
        rc = main([*argv, "--out", out_path])
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc, err = None, traceback.format_exc()
    return time.perf_counter() - t0, rc, err


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path) as fh:
        job = json.load(fh)
    t0 = time.perf_counter()
    from melic import cli
    import_s = time.perf_counter() - t0

    import numpy
    import scipy
    from melic import _kernels

    results = []
    for cmd in job["commands"]:
        res = {"rc": None, "traceback": None}
        modes = ["plain", "traced"] if job["trace"] else ["plain"]
        if job.get("traced_first"):
            modes.reverse()
        for mode in modes:
            if mode == "plain":
                res["plain_s"], rc, err = _run(cli.main, cmd["argv"], cmd["out"])
            else:
                rec = spans.Recorder()
                restore = spans.install(rec)
                try:
                    wall, rc, err = _run(cli.main, cmd["argv"], cmd["out_traced"])
                finally:
                    spans.uninstall(restore)
                res["traced_s"] = wall
                res["layers"] = layer_sums(rec.spans, wall)
            if rc != 0 or res["rc"] is None:
                res["rc"] = rc
            res["traceback"] = res["traceback"] or err
        results.append(res)
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": _kernels.backend(),
    }
    with open(result_path, "w") as fh:
        json.dump({"import_s": import_s, "info": info, "commands": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
