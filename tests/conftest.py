"""Shared fixture helpers for building tiny corpora in memory."""

import os
from fractions import Fraction
from pathlib import Path

from melic.corpus import Corpus, CorpusMeta, Melody, NoteEvent

# pyproject's pythonpath reaches only this process: child processes that run
# melic from a checkout without installing it find it through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

META = CorpusMeta(corpus_id="fixture", type="Folk", region="test")


def melody_from_pitches(mid, pitches, durations=None):
    """Build a melody with unit (or given) durations and contiguous onsets."""
    if durations is None:
        durations = [Fraction(1)] * len(pitches)
    events = []
    onset = Fraction(0)
    for p, d in zip(pitches, durations):
        d = Fraction(d)
        events.append(NoteEvent(pitch=None if p is None else int(p), onset=onset, duration=d))
        onset += d
    return Melody(id=mid, events=tuple(events))


def corpus_of(melodies):
    return Corpus(meta=META, melodies=tuple(melodies))
