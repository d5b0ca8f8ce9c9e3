"""The two workloads: their inputs, their melic invocations and the checks
on each invocation's output.

Each workload runs three commands; run.py reports them as cmd1_s..cmd3_s in
the order listed here, and names them in its human-readable report.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import check
import gen

SCALE_N = 40000  # two kernel chunks (of at most 1 << 15 walks), so two threads
REF_SCALE_N = 34000  # two chunks, so the reference run also uses the pool


@dataclass
class Command:
    label: str
    argv: list[str]
    check: Callable[[str], list[str]]  # output text -> problems


@dataclass
class Inputs:
    directory: Path
    melodies: int
    notes: int
    bytes: int


# --- oracles computed from the generated files ------------------------------

def _entropy(symbols) -> float:
    n = len(symbols)
    return -sum(c / n * math.log2(c / n) for c in Counter(symbols).values())


def _has_nonoverlapping_repeat(symbols) -> bool:
    """True when some length-2 substring occurs twice without overlap, which
    is exactly when repetition removal (l_min 2) removes something."""
    if len(symbols) // 2 < 2:
        return False
    first = {}
    for i in range(len(symbols) - 1):
        first.setdefault((symbols[i], symbols[i + 1]), i)
        if i - first[(symbols[i], symbols[i + 1])] >= 2:
            return True
    return False


@dataclass
class _Mel:
    id: str
    chroma: list
    dur: list


def _load(files: dict[str, bytes]) -> dict[str, list[_Mel]]:
    """corpus id -> melodies as the oracle sees them (rests dropped)."""
    out = {}
    for name in sorted(files):
        obj = json.loads(files[name])
        mels = []
        for m in obj["melodies"]:
            notes = [n for n in m["notes"] if n["pitch"] is not None]
            mels.append(
                _Mel(m["id"], [n["pitch"] % 12 for n in notes], [Fraction(n["duration"]) for n in notes])
            )
        out[obj["corpus_id"]] = mels
    return out


def _all(corpora) -> list[_Mel]:
    return [m for cid in corpora for m in corpora[cid]]


def _expect_rows(rows, n, what) -> list[str]:
    return [] if len(rows) == n else [f"{len(rows)} rows, expected {n} {what}"]


def check_mi(corpora, text) -> list[str]:
    rows, mels = check.rows_of(text), _all(corpora)
    problems = _expect_rows(rows, len(mels), "melodies")
    for r, m in zip(rows, mels):
        i_obs = _entropy(m.chroma) + _entropy(m.dur) - _entropy(list(zip(m.chroma, m.dur)))
        i, i_ran, i_star = float(r["I"]), float(r["I_ran"]), float(r["I_star"])
        if r["id"] != m.id or not check.close(i, i_obs) or i_ran < -1e-9 or abs(i_star - (i - i_ran)) > 1e-5 * max(1.0, i):
            problems.append(f"melody {m.id}: {r} disagrees with the oracle")
    return problems


def _check_removal(rows, mels, symbols_of) -> list[str]:
    problems = _expect_rows(rows, len(mels), "melodies")
    for r, m in zip(rows, mels):
        syms = symbols_of(m)
        l_nr = int(r["L_NR"])
        want_less = _has_nonoverlapping_repeat(syms)
        if r["id"] != m.id or not 1 <= l_nr <= len(syms) or (l_nr < len(syms)) != want_less:
            problems.append(f"melody {m.id}: {r} disagrees with the oracle (L={len(syms)})")
    return problems


def check_totalinfo(corpora, text) -> list[str]:
    rows, mels = check.rows_of(text), _all(corpora)
    joint = lambda m: list(zip(m.chroma, m.dur))
    problems = _check_removal(rows, mels, joint)
    for r, m in zip(rows, mels):
        h = _entropy(joint(m))
        if not check.close(float(r["H_joint"]), h) or not check.close(float(r["T"]), h * int(r["L_NR"])):
            problems.append(f"melody {m.id}: {r} disagrees with the oracle")
    return problems


def check_ppm(corpora, text) -> list[str]:
    rows = check.rows_of(text)
    problems = _expect_rows(rows, len(corpora), "corpora")
    for r, cid in zip(rows, sorted(corpora)):
        ic, ic_r, bits = float(r["mean_IC"]), float(r["mean_IC_r"]), float(r["repetition_bits"])
        if r["corpus"] != cid or not (0 < ic < 64 and 0 < ic_r < 64) or abs(bits - (ic_r - ic)) > 1e-4:
            problems.append(f"corpus {cid}: {r} is out of range")
    return problems


def check_scale(n, text) -> list[str]:
    rows = check.rows_of(text)
    problems = []
    if sum(int(r["n_samples"]) for r in rows) != n:
        problems.append(f"n_samples do not add up to {n}: no walk can fail on these inputs")
    for r in rows:
        a, k = int(r["A"]), int(r["n_samples"])
        if not 1 <= a <= 12 or not 0.0 <= float(r["P_below"]) <= 1.0 or bool(r["logL"]) != (k >= 30):
            problems.append(f"row {r} is out of range")
        elif r["logL"] and not math.isfinite(float(r["logL"])):
            problems.append(f"row {r}: logL is not finite")
    return problems


def check_fit(model, grid, max_jsd, text) -> list[str]:
    rows = check.rows_of(text)
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    r = rows[0]
    ok = r["model"] == model and all(float(r[k]) in v for k, v in grid.items()) and 0 <= float(r["JSD"]) <= max_jsd
    return [] if ok else [f"fit {r} is outside the grid {grid}"]


# --- workloads --------------------------------------------------------------
# Each workload function writes its inputs to `directory` and returns them with the
# three commands. reference=True builds the small input of the reference
# check instead; run.py builds it with seed 0, which the reference CSVs fix.

def _write(directory: Path, files: dict[str, bytes]) -> Inputs:
    gen.write_files(files, directory)
    corpora = [json.loads(b) for name, b in files.items() if name.endswith(".json")]
    return Inputs(
        directory=directory,
        melodies=sum(len(c["melodies"]) for c in corpora),
        notes=sum(len(m["notes"]) for c in corpora for m in c["melodies"]),
        bytes=sum(len(b) for b in files.values()),
    )


def corpus(seed: int, directory: Path, reference: bool = False):
    """mi on many short folk melodies, where per-melody costs (Fraction
    parsing and hashing, viewpoints, the MI shuffle null) dominate; totalinfo
    and ppm-repetition on a few long art melodies with a repeated phrase,
    where repetition removal and PPM training dominate."""
    folk = gen.make_corpora("folk-ref" if reference else "folk", seed)
    art = gen.make_corpora("art-ref" if reference else "art", seed)
    f, a = _write(directory / "folk", folk), _write(directory / "art", art)
    inputs = Inputs(directory, f.melodies + a.melodies, f.notes + a.notes, f.bytes + a.bytes)
    folk_corpora, art_corpora = _load(folk), _load(art)
    s = str(seed)
    return inputs, [
        Command("mi", ["mi", "--seed", s, str(f.directory)], lambda t: check_mi(folk_corpora, t)),
        Command("totalinfo", ["totalinfo", str(a.directory)], lambda t: check_totalinfo(art_corpora, t)),
        Command("ppm", ["ppm-repetition", "--seed", s, str(a.directory)], lambda t: check_ppm(art_corpora, t)),
    ]


PITCH_GRID = {"A": {5.0, 7.0}, "L": {30.0, 50.0}, "O": {1.0, 2.0}, "exponent": {1.0}}
RHYTHM_GRID = {"A": {3.0, 5.0}, "L": {30.0, 50.0}, "exponent": {1.0}}


def scale_argv(directory: Path, n: int, seed: int, threads: int) -> list[str]:
    return [
        "genmodel", "scale",
        "--intervals", str(directory / "intervals.csv"),
        "--lengths", str(directory / "lengths.csv"),
        "--empirical-h", str(directory / "H.csv"),
        "--n", str(n), "--threads", str(threads), "--seed", str(seed),
    ]


def genmodel(seed: int, directory: Path, reference: bool = False):
    files = gen.make_corpora("fit-ref" if reference else "fit", seed)
    # short reference walks keep the untimed reference check cheap
    files.update(gen.make_scale_inputs(seed, lengths=(10, 20) if reference else (20, 80)))
    inputs = _write(directory, files)
    n = REF_SCALE_N if reference else SCALE_N
    fit = str(directory / "fit0.json")
    s = str(seed)
    return inputs, [
        Command("scale", scale_argv(directory, n, seed, 2), lambda t: check_scale(n, t)),
        Command(
            "pitch",
            ["genmodel", "pitch", "--model", "IS3", "--grid-a", "5,7", "--grid-l", "30,50",
             "--grid-o", "1,2", "--grid-exp", "1", "--n-per-setting", "50", "--seed", s, fit],
            lambda t: check_fit("IS3", PITCH_GRID, 2.0, t),
        ),
        Command(
            "rhythm",
            ["genmodel", "rhythm", "--model", "SI4", "--grid-a", "3,5", "--grid-l", "30,50",
             "--grid-exp", "1", "--n-per-setting", "50", "--seed", s, fit],
            lambda t: check_fit("SI4", RHYTHM_GRID, 1.0, t),
        ),
    ]


# Two workloads: with a fixed time budget for all runs, a third would cut each
# run to two or three passes, too few for a steady mean.
WORKLOADS = {
    "corpus": corpus,
    "genmodel": genmodel,
}
