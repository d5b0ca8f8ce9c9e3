"""melic benchmark: real CLI invocations on seeded synthetic corpora.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all   # every workload in turn

Run from a checkout of the repository; melic is imported from ./src, so
nothing needs installing. Each run

1. writes the workload's inputs (a pure function of --seed) and a small fixed
   reference input under a temporary directory in the checkout;
2. checks, untimed, every command of the workload on the reference input
   against CSVs recorded on the seed code (perfbench/reference/), and for
   genmodel that ``genmodel scale`` gives identical output at --threads 1
   and 2;
3. with --trace 0, repeats passes for --seconds. A pass runs, each in a
   fresh process as a user runs it: the calibration probe, ``melic entropy``
   on a one-melody corpus (setup_s), and the workload's three commands;
   with --trace 1, repeats passes of a worker process that runs the same
   commands in-process through ``melic.cli.main``, untraced and traced,
   and reports per-layer metrics and the tracing overhead;
4. checks every output (an oracle computed from the generated files, and
   byte-identical output across passes) and prints a report, ending with
   one JSON line: {"correct", "attempted", "failed", "metrics"}.

Each metric is the mean over a run's passes; setup_s is the median.

Times are calibrated. On a shared 2-vCPU virtual machine the speed of a
process drifts by tens of percent over seconds to minutes (cold start has
been seen at 1.0 s and at 1.9 s), so raw times of the same code spread from
run to run by as much as the regression bound. The probe,
``python -c "import numpy, scipy.stats"``, does the work that dominates a
melic cold start without importing melic, so no change to melic moves it.
Every end-to-end time is scaled by PROBE_NOMINAL_S / (the run's mean probe
time): it reads as seconds on a machine where the probe takes
PROBE_NOMINAL_S. The report prints the raw times and the probe as well.
``python3 perfbench/run.py --record-reference`` rewrites the reference CSVs;
run it only on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170.0  # the whole run, set-up included
PROBE = ["-c", "import numpy, scipy.stats"]
PROBE_NOMINAL_S = 1.5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd1_s": "s",
    "cmd2_s": "s",
    "cmd3_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "corpus.parse_s": "s",
    "corpus.parse_calls": "count",
    "corpus.bytes_in": "bytes",
    "corpus.notes": "count",
    "corpus.write_table_s": "s",
    "corpus.bytes_out": "bytes",
    "viewpoints.extract_s": "s",
    "viewpoints.extract_calls": "count",
    "viewpoints.symbols": "count",
    "infotheory.distribution_s": "s",
    "infotheory.distribution_calls": "count",
    "infotheory.entropy_s": "s",
    "infotheory.mi_s": "s",
    "infotheory.mi_calls": "count",
    "repetition.remove_s": "s",
    "repetition.remove_calls": "count",
    "repetition.rounds": "count",
    "seqmodel.within_self_s": "s",
    "seqmodel.train_s": "s",
    "seqmodel.train_calls": "count",
    "seqmodel.contexts": "count",
    "seqmodel.ic_s": "s",
    "seqmodel.ic_symbols": "count",
    "genmodel.simulate_self_s": "s",
    "genmodel.parallel_efficiency": "ratio",
    "genmodel.mc_failed_frac": "ratio",
    "genmodel.prob_below_s": "s",
    "genmodel.loglik_self_s": "s",
    "genmodel.fit_self_s": "s",
    "genmodel.generate_s": "s",
    "genmodel.objective_s": "s",
    "kernels.walk_s": "s",
    "kernels.walks": "count",
    "kernels.steps": "count",
    "kernels.uniform_bytes": "bytes_computed",
    "kernels.useful_step_frac": "ratio",
    "stats.kde_s": "s",
    "stats.kde_calls": "count",
    "stats.kde_pairs": "count",
    "stats.jsd_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    wall: float
    rc: int | None
    maxrss_kb: int
    stderr: str


class Run:
    """Counts invocations and failures, and keeps the first problems."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])
        return not problems

    def spawn(self, argv: list[str], out: Path, err: Path) -> Invocation:
        """Run a fresh Python process and wait for it, with its rusage."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("MELIC_")}
        env["PYTHONPATH"] = str(SRC)
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=fo, stderr=fe, env=env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(wall, proc.returncode, usage.ru_maxrss, err.read_text(errors="replace"))

    def melic(self, argv: list[str], out: Path) -> Invocation:
        return self.spawn(["-m", "melic", *argv], out, out.with_suffix(".err"))

    def worker(self, job: dict, path: Path) -> dict | None:
        """Run worker.py on a job; None (and a recorded failure) if it crashed."""
        job_file, result_file = path.with_suffix(".job.json"), path.with_suffix(".result.json")
        job_file.write_text(json.dumps(job))
        inv = self.spawn([str(HERE / "worker.py"), str(job_file), str(result_file)], path.with_suffix(".out"), path.with_suffix(".err"))
        problems = check.invocation_problems(inv.rc, inv.stderr)
        if problems or not result_file.exists():
            self.record(f"worker {path.name}", problems or ["wrote no result"])
            return None
        return json.loads(result_file.read_text())


def _read(path) -> str:
    path = Path(path)
    return path.read_text() if path.exists() else ""


def _command_problems(cmd, rc, stderr, text, first: str | None) -> list[str]:
    problems = check.invocation_problems(rc, stderr)
    if problems:
        return problems
    if first is None:
        return cmd.check(text)
    return [] if text == first else ["output differs from the first pass"]


# --- set-up -----------------------------------------------------------------

def reference_check(run: Run, workload: str, tmp: Path, record: bool) -> dict:
    """Untimed: each command on the fixed reference input, compared with the
    recorded CSVs. Returns the worker's environment info."""
    make = workloads.WORKLOADS[workload]
    _, cmds = make(0, tmp / "ref-in", reference=True)
    jobs = [{"argv": c.argv, "out": str(tmp / f"ref-{c.label}.csv")} for c in cmds]
    if workload == "genmodel":
        argv = workloads.scale_argv(tmp / "ref-in", workloads.REF_SCALE_N, 0, 1)
        jobs.append({"argv": argv, "out": str(tmp / "ref-scale-t1.csv")})
    result = run.worker({"trace": False, "commands": jobs}, tmp / "ref")
    if result is None:
        return {}
    outs = {}
    for c, job, res in zip(cmds, jobs, result["commands"]):
        text = outs[c.label] = _read(job["out"])
        ref_file = REFERENCE / workload / f"{c.label}.csv"
        if record:
            ref_file.parent.mkdir(parents=True, exist_ok=True)
            ref_file.write_text(text)
        problems = check.invocation_problems(res["rc"], res["traceback"] or "") or c.check(text)
        if not problems and c.label == "scale":
            problems = check.scale_matches(ref_file.read_text(), text, workloads.REF_SCALE_N)
        elif not problems:
            problems = check.columns_match(ref_file.read_text(), text)
        run.record(f"reference {c.label}", problems)
    if workload == "genmodel":
        res = result["commands"][-1]
        problems = check.invocation_problems(res["rc"], res["traceback"] or "")
        if not problems and _read(jobs[-1]["out"]) != outs["scale"]:
            problems = ["genmodel scale output differs between --threads 1 and --threads 2"]
        run.record("reference scale --threads 1", problems)
    return result["info"]


# --- timed passes -----------------------------------------------------------

def _more_passes(run: Run, t_end: float, durations: list[float]) -> bool:
    """Another pass only if a pass of the mean length so far still fits."""
    if not durations:
        return True
    if time.perf_counter() + max(durations) > run.deadline:
        return False
    return time.perf_counter() + statistics.mean(durations) <= t_end


def cli_passes(run: Run, cmds, tmp: Path, seconds: float) -> list[dict]:
    """Passes of probe, set-up command and the workload's commands."""
    first: dict[str, str] = {}
    passes = []
    durations = []
    corpus = tmp / "one.json"
    corpus.write_text(
        '{"corpus_id":"one","type":"Folk","melodies":'
        '[{"id":"m0","notes":[{"pitch":60,"onset":"0/1","duration":"1/1"}]}]}'
    )
    t_end = time.perf_counter() + seconds
    while _more_passes(run, t_end, durations):
        t0 = time.perf_counter()
        probe = run.spawn(PROBE, tmp / "probe.out", tmp / "probe.err")
        if not run.record("probe", check.invocation_problems(probe.rc, probe.stderr)):
            return passes
        out = tmp / "setup.csv"
        setup = run.melic(["entropy", str(corpus)], out)
        problems = check.invocation_problems(setup.rc, setup.stderr)
        if not problems and out.read_text() != "id,A,H\nm0,1,0.0\n":
            problems = [f"unexpected output {out.read_text()!r}"]
        if not run.record("setup entropy", problems):
            return passes
        walls, rss = [], []
        for c in cmds:
            out = tmp / f"{c.label}.csv"
            inv = run.melic(c.argv, out)
            text = out.read_text()
            ok = run.record(c.label, _command_problems(c, inv.rc, inv.stderr, text, first.get(c.label)))
            first.setdefault(c.label, text)
            walls.append(inv.wall)
            rss.append(inv.maxrss_kb / 1024.0)
            if not ok:
                return passes
        passes.append(
            {"probe_s": probe.wall, "setup_s": setup.wall, "cmds": walls, "wall_s": sum(walls), "peak_rss_mb": max(rss)}
        )
        durations.append(time.perf_counter() - t0)
    return passes


def trace_passes(run: Run, cmds, tmp: Path, seconds: float) -> list[dict]:
    first: dict[str, str] = {}
    passes = []
    durations = []
    t_end = time.perf_counter() + seconds
    while _more_passes(run, t_end, durations):
        t0 = time.perf_counter()
        i = len(passes)
        jobs = [
            {"argv": c.argv, "out": str(tmp / f"{c.label}.csv"), "out_traced": str(tmp / f"{c.label}-traced.csv")}
            for c in cmds
        ]
        # alternate which run of a command goes first, so warm-up costs cancel
        result = run.worker({"trace": True, "traced_first": i % 2 == 1, "commands": jobs}, tmp / f"trace-{i}")
        if result is None:
            return passes
        ok = True
        for c, job, res in zip(cmds, jobs, result["commands"]):
            err = res["traceback"] or ""
            for path in (job["out"], job["out_traced"]):
                text = _read(path)
                ok &= run.record(c.label, _command_problems(c, res["rc"], err, text, first.get(c.label)))
                first.setdefault(c.label, text)
        if not ok:
            return passes
        passes.append({"import_s": result["import_s"], "commands": result["commands"]})
        durations.append(time.perf_counter() - t0)
    return passes


# --- reporting --------------------------------------------------------------

def _summary(values: list[float]) -> str:
    return (
        f"mean {statistics.mean(values):.4f} median {statistics.median(values):.4f} "
        f"min {min(values):.4f} max {max(values):.4f} n={len(values)}"
    )


def e2e_metrics(passes: list[dict]) -> dict[str, list[float]]:
    samples = {k: [p[k] for p in passes] for k in ("probe_s", "setup_s", "wall_s", "peak_rss_mb")}
    for k in range(3):
        samples[f"cmd{k + 1}_s"] = [p["cmds"][k] for p in passes]
    return samples


def e2e_values(samples: dict[str, list[float]]) -> dict[str, float]:
    """The reported value of each end-to-end metric: the median (setup_s) or
    mean of its samples, with times calibrated by the run's mean probe."""
    scale = PROBE_NOMINAL_S / statistics.mean(samples["probe_s"])
    values = {}
    for name, unit in END_TO_END.items():
        stat = statistics.median if name == "setup_s" else statistics.mean
        values[name] = stat(samples[name]) * (scale if unit == "s" else 1.0)
    return values


def layer_metrics(passes: list[dict]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for p in passes:
        tot: dict[str, float] = {}
        for res in p["commands"]:
            for k, v in res["layers"].items():
                tot[k] = tot.get(k, 0.0) + v
        untraced = sum(r["plain_s"] for r in p["commands"])
        tot["cli.import_s"] = p["import_s"]
        tot["trace.untraced_s"] = untraced
        tot["trace.overhead_s"] = sum(r["traced_s"] for r in p["commands"]) - untraced
        tot["genmodel.parallel_efficiency"] = _ratio(tot, "kernels.walk_s", "genmodel.simulate_thread_total")
        tot["genmodel.mc_failed_frac"] = _ratio(tot, "genmodel.n_failed", "genmodel.n_sequences")
        tot["kernels.useful_step_frac"] = _ratio(tot, "kernels.steps", "kernels.uniforms")
        for name in PER_LAYER:
            samples[name].append(tot.get(name, 0.0))
    return samples


def _ratio(tot, num, den) -> float:
    return tot.get(num, 0.0) / tot[den] if tot.get(den) else 0.0


def print_trace_accounting(cmds, passes) -> None:
    """Per command: the layers' self times plus cli.self_s, minus the time
    spans overlapped in worker threads, equal the traced wall time."""
    print("trace accounting (last pass; layers' self times + cli.self_s - parallel overlap = traced wall):")
    for c, res in zip(cmds, passes[-1]["commands"]):
        lay = res["layers"]
        by_layer: dict[str, float] = {}
        for k, v in lay.items():
            if k.endswith("_s") and "." in k and not k.startswith("cli."):
                by_layer[k.split(".")[0]] = by_layer.get(k.split(".")[0], 0.0) + v
        parts = " ".join(f"{k}={v:.4f}" for k, v in sorted(by_layer.items()))
        total = sum(by_layer.values()) + lay["cli.self_s"] - lay["parallel_overlap_s"]
        print(
            f"  {c.label}: untraced {res['plain_s']:.4f} s traced {res['traced_s']:.4f} s = "
            f"{parts} cli={lay['cli.self_s']:.4f} overlap={lay['parallel_overlap_s']:.4f} (sum {total:.4f})"
        )


def record_of(info: dict) -> dict:
    sha = "unknown"  # a checkout without .git, as when the tree is exported
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    loc = sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "melic").glob("*.py")))
    return {"git_sha": sha, **info, "nproc": os.cpu_count(), "src_loc": loc}


# --- main -------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], help="'all' runs each workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true", help="rewrite perfbench/reference/ for every workload")
    args = parser.parse_args()
    if not (SRC / "melic" / "cli.py").is_file():
        print(f"error: {SRC / 'melic'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp"))
    try:
        if args.record_reference:
            run = Run(time.perf_counter() + TIME_LIMIT_S)
            for name in workloads.WORKLOADS:
                reference_check(run, name, tmp / name, record=True)
            print(f"reference CSVs written to {REFERENCE}; {run.failed} of {run.attempted} invocations failed")
            return 0 if run.failed == 0 else 1
        for name in workloads.WORKLOADS if args.workload == "all" else [args.workload]:
            measure(Run(time.perf_counter() + TIME_LIMIT_S), name, args, tmp / name)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is using it


def measure(run: Run, workload: str, args, tmp: Path) -> None:
    """One run of one workload: set-up, checks, passes and the report."""
    tmp.mkdir()
    t_setup = time.perf_counter()
    info = reference_check(run, workload, tmp, record=False)
    inputs, cmds = workloads.WORKLOADS[workload](args.seed, tmp / "in")
    print(f"record: {json.dumps(record_of(info))}")
    print(
        f"workload {workload} seed {args.seed}: {inputs.melodies} melodies, {inputs.notes} notes, "
        f"{inputs.bytes} bytes of input; commands: "
        + "; ".join("melic " + " ".join(c.argv).replace(str(inputs.directory), "<inputs>") for c in cmds)
    )
    print(f"set-up and reference checks took {time.perf_counter() - t_setup:.1f} s")

    if args.trace:
        passes = trace_passes(run, cmds, tmp, args.seconds)
        samples = layer_metrics(passes) if passes else {}
        units = PER_LAYER
    else:
        passes = cli_passes(run, cmds, tmp, args.seconds)
        samples = e2e_metrics(passes) if passes else {}
        units = END_TO_END

    print(f"error_rate {run.failed}/{run.attempted} = {run.failed / max(1, run.attempted):.4f} (invocations failed / attempted)")
    for p in run.problems[:10]:
        print(f"  problem: {p}")
    metrics = {}
    if samples:
        values = {} if args.trace else e2e_values(samples)
        labels = {f"cmd{k + 1}_s": f" = {c.label}_s" for k, c in enumerate(cmds)}
        for name, unit in units.items():
            if args.trace:
                value = statistics.mean(samples[name])
                print(f"{name}: {_summary(samples[name])} {unit}")
            else:
                value = values[name]
                raw = "" if unit != "s" else " (raw)"
                print(f"{name}{labels.get(name, '')}: {value:.4f} {unit}; {_summary(samples[name])} {unit}{raw}")
            metrics[name] = {"value": value, "unit": unit}
        if args.trace:
            print_trace_accounting(cmds, passes)
        else:
            print(f"probe_s: {_summary(samples['probe_s'])} s (raw); times are scaled by {PROBE_NOMINAL_S} s / its mean")
            if workload == "genmodel":
                print(f"fit_s (pitch + rhythm): {_summary([p['cmds'][1] + p['cmds'][2] for p in passes])} s (raw)")
            print("samples: " + json.dumps({"passes": passes}))
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
