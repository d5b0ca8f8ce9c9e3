"""Seeded synthetic inputs for the benchmark workloads.

Every input is a pure function of (workload, seed): the same seed gives
byte-identical files, and the program under test sees only these files.
Melody lengths follow a fixed schedule that does not depend on the seed, so
the amount of work per run stays the same from seed to seed; the seed moves
pitches, durations, rests and where repeated phrases land.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction
from pathlib import Path

DURATIONS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
DURATION_WEIGHTS = (3, 5, 1, 2)
STEPS = (-4, -3, -2, -1, 0, 1, 2, 3, 4)
STEP_WEIGHTS = (1, 2, 4, 6, 3, 6, 4, 2, 1)
REST_RATE = 0.03
PITCH_LO, PITCH_HI = 48, 84


def _walk(rng: random.Random, n: int, rest_rate: float) -> list[tuple[int | None, Fraction]]:
    """n (pitch, duration) notes of a bounded random walk; after the first
    note, each is a rest (pitch None) with probability rest_rate."""
    pitch = rng.randint(55, 72)
    notes = []
    for i in range(n):
        pitch = min(PITCH_HI, max(PITCH_LO, pitch + rng.choices(STEPS, STEP_WEIGHTS)[0]))
        is_rest = i > 0 and rng.random() < rest_rate
        notes.append((None if is_rest else pitch, rng.choices(DURATIONS, DURATION_WEIGHTS)[0]))
    return notes


def _melody_notes(rng: random.Random, length: int, phrase_len: int, repeats: int):
    """A walk of `length` notes with `repeats` copies of one rest-free phrase
    spliced in at random, non-overlapping places."""
    notes = _walk(rng, length, REST_RATE)
    if repeats >= 2 and phrase_len * repeats <= length:
        phrase = _walk(rng, phrase_len, 0.0)
        slots = length // phrase_len
        for slot in sorted(rng.sample(range(slots), repeats)):
            start = slot * phrase_len
            notes[start : start + phrase_len] = phrase
    return notes


def _melody_json(mid: str, notes) -> dict:
    onset = Fraction(0)
    out = []
    for pitch, dur in notes:
        out.append(
            {
                "pitch": pitch,
                "onset": f"{onset.numerator}/{onset.denominator}",
                "duration": f"{dur.numerator}/{dur.denominator}",
            }
        )
        onset += dur
    return {"id": mid, "notes": out}


def corpus_bytes(
    rng: random.Random,
    corpus_id: str,
    ctype: str,
    lengths: list[int],
    phrase_len: int,
    repeat_every: int,
    repeats: int,
) -> bytes:
    """One canonical corpus file. lengths[i] is melody i's note count; a
    length of 1 gives a one-note melody. Every repeat_every-th melody gets a
    phrase repeated `repeats` times."""
    melodies = []
    for i, length in enumerate(lengths):
        mid = f"{corpus_id}-{i:04d}"
        if length == 1:
            notes = [(rng.randint(55, 72), rng.choice(DURATIONS))]
        else:
            reps = repeats if i % repeat_every == 0 else 0
            notes = _melody_notes(rng, length, phrase_len, reps)
        melodies.append(_melody_json(mid, notes))
    obj = {"corpus_id": corpus_id, "type": ctype, "region": "synthetic", "melodies": melodies}
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _length_schedule(n: int, lo: int, hi: int, one_note_every: int) -> list[int]:
    """Seed-independent lengths spread evenly over [lo, hi], with a one-note
    melody every one_note_every melodies."""
    span = hi - lo + 1
    return [1 if one_note_every and i % one_note_every == one_note_every - 1 else lo + (i * 7) % span for i in range(n)]


def _csv_bytes(header: list[str], rows) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode("utf-8")


# Workload shapes. Each entry is (files, melodies per file, length range,
# one-note melody period, phrase length, phrase period, repeats). The *-ref
# shapes are the small fixed inputs of the reference check.
SHAPES = {
    # many short melodies, few short repeats: per-melody fixed costs dominate
    "folk": (5, 20, (40, 80), 10, 6, 5, 2),
    # few long melodies, each with a 16-note phrase repeated 6 times
    "art": (2, 12, (120, 200), 0, 16, 1, 6),
    # one folk-style file as the fitting target for genmodel pitch/rhythm
    "fit": (1, 60, (40, 80), 25, 6, 5, 2),
    "folk-ref": (2, 12, (40, 80), 10, 6, 5, 2),
    # ppm-repetition needs at least 11 melodies per corpus
    "art-ref": (1, 12, (64, 120), 0, 16, 1, 4),
    "fit-ref": (1, 12, (40, 80), 10, 6, 5, 2),
}


def make_corpora(shape: str, seed: int) -> dict[str, bytes]:
    """File name -> bytes for one corpus shape."""
    files, n, (lo, hi), one_every, plen, pevery, reps = SHAPES[shape]
    rng = random.Random(f"melic-bench:{shape}:{seed}")
    ctype = "Art" if shape.startswith("art") else "Folk"
    out = {}
    for f in range(files):
        cid = f"{shape.split('-')[0]}{f}"
        lengths = _length_schedule(n, lo, hi, one_every)
        out[f"{cid}.json"] = corpus_bytes(rng, cid, ctype, lengths, plen, pevery, reps)
    return out


def make_scale_inputs(seed: int, lengths: tuple[int, int] = (20, 80), n_h: int = 400) -> dict[str, bytes]:
    """intervals.csv (triangular on -5..5 with a small seeded jitter),
    lengths.csv (melody lengths in the given range, seeded weights) and H.csv
    (empirical chroma entropies, seeded)."""
    rng = random.Random(f"melic-bench:scale:{seed}")
    intervals = [(d, round((6 - abs(d)) * rng.uniform(0.9, 1.1), 6)) for d in range(-5, 6)]
    lo, hi = lengths
    lengths = [(n, round(rng.uniform(0.5, 1.5), 6)) for n in range(lo, hi + 1)]
    hs = [(round(min(3.58, max(0.5, rng.gauss(2.9, 0.35))), 6),) for _ in range(n_h)]
    return {
        "intervals.csv": _csv_bytes(["symbol", "probability"], intervals),
        "lengths.csv": _csv_bytes(["symbol", "probability"], lengths),
        "H.csv": _csv_bytes(["H"], hs),
    }


def write_files(files: dict[str, bytes], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)
