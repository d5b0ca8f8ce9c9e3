"""Output checks shared by every workload.

An invocation fails when it exits non-zero, prints a Python traceback, or its
output fails a check. Checks return a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import math


def invocation_problems(rc, stderr: str) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("printed a traceback")
    return problems


def rows_of(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def columns_match(ref_text: str, out_text: str) -> list[str]:
    """Every column of the reference must be present in the output with the
    same cells in the same rows; extra output columns are allowed."""
    ref, out = rows_of(ref_text), rows_of(out_text)
    if len(ref) != len(out):
        return [f"{len(out)} rows, reference has {len(ref)}"]
    problems = []
    for i, (r, o) in enumerate(zip(ref, out)):
        for col, want in r.items():
            got = o.get(col)
            if got != want:
                problems.append(f"row {i} column {col}: {got!r} != reference {want!r}")
    return problems


def scale_matches(ref_text: str, out_text: str, n: int, z: float = 5.0) -> list[str]:
    """genmodel scale against a reference within Monte Carlo noise.

    n_samples per A is binomial(n, p): allowed off by z standard deviations
    (plus 5 for rare A). P_below is a proportion of n_samples draws: allowed
    off by z standard errors plus 2/n_samples. logL is compared loosely, and
    only where both sides report it.
    """
    ref = {int(r["A"]): r for r in rows_of(ref_text)}
    out = {int(r["A"]): r for r in rows_of(out_text)}
    problems = []
    for a in sorted(set(ref) | set(out)):
        n_ref = int(ref[a]["n_samples"]) if a in ref else 0
        n_out = int(out[a]["n_samples"]) if a in out else 0
        p = n_ref / n
        if abs(n_out - n_ref) > z * math.sqrt(n * p * (1 - p)) + 5:
            problems.append(f"A={a}: n_samples {n_out} vs reference {n_ref}")
            continue
        if a not in ref or a not in out:
            continue
        m = min(n_ref, n_out)
        if m >= 30:
            pr, po = float(ref[a]["P_below"]), float(out[a]["P_below"])
            if abs(po - pr) > z * math.sqrt(max(pr * (1 - pr), 1.0 / m) / m) + 2.0 / m:
                problems.append(f"A={a}: P_below {po} vs reference {pr}")
            lr, lo = ref[a].get("logL", ""), out[a].get("logL", "")
            if m >= 1000 and lr and lo and abs(float(lo) - float(lr)) > 0.05 * abs(float(lr)) + 0.05:
                problems.append(f"A={a}: logL {lo} vs reference {lr}")
    return problems


def close(a: float, b: float, rel: float = 1e-5) -> bool:
    """Equal up to the 6 significant digits the CLI prints."""
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
