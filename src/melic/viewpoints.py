"""Derived melodic viewpoints: pitch, chroma, scale degree, intervals, contour,
duration, IOI and ratio sequences, plus octave recovery."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .corpus import MelicError, Melody


class ViewpointKind(str, Enum):
    PITCH = "pitch"
    CHROMA = "chroma"
    SCALE_DEGREE = "sdeg"
    MINT = "mint"
    SINT = "sint"
    CONTOUR = "contour"
    DURATION = "duration"
    IOI = "ioi"
    IOI_RATIO = "ioiratio"
    DURATION_RATIO = "durationratio"
    JOINT_CHROMA_DURATION = "chroma_duration"
    JOINT_MINT_DURATION = "mint_duration"


@dataclass(frozen=True)
class ViewpointSequence:
    kind: ViewpointKind
    symbols: tuple

    def __len__(self):
        return len(self.symbols)


def symbols_of(seq) -> tuple:
    """The symbols of a ViewpointSequence, or of any plain symbol sequence."""
    return seq.symbols if isinstance(seq, ViewpointSequence) else tuple(seq)


def intern(seq, table: tuple | None = None) -> tuple[tuple[int, ...], tuple]:
    """(codes, table): each symbol's rank in the sorted symbol set (or in a
    given table, another intern's; a symbol outside it is a KeyError), and
    that set, so table[code] is the symbol. Ranks keep the symbol order, so
    codes compare (and tuples of codes sort) exactly as the symbols do."""
    symbols = symbols_of(seq)
    if table is None:
        table = tuple(sorted(set(symbols)))
    rank = {s: i for i, s in enumerate(table)}
    return tuple(rank[s] for s in symbols), table


def _notes(melody: Melody):
    return [e for e in melody.events if not e.is_rest]


def _pitches(melody: Melody) -> list[int]:
    return [e.pitch for e in _notes(melody)]


def _durations(melody: Melody) -> list[Fraction]:
    # Duration ignores the value of rests
    return [e.duration for e in _notes(melody)]


def _iois(melody: Melody) -> list[Fraction]:
    onsets = [e.onset for e in _notes(melody)]
    if len(onsets) < 2:
        raise MelicError(f"melody {melody.id!r}: IOI needs at least 2 note onsets")
    return [b - a for a, b in zip(onsets, onsets[1:])]


def pairs_of(values) -> list[tuple[int, int]]:
    """The reduced (num, den) pair of each Fraction, den > 0."""
    return [(v.numerator, v.denominator) for v in values]


def ratios(pairs) -> list[tuple[int, int]]:
    """Each value over the one before, of reduced (num, den) pairs >= 0, as a
    reduced pair: the IOI ratios of IOIs, a melody's and a model sequence's
    alike, or the duration ratios of durations. A zero value before another
    value is an error."""
    out = []
    for (a, b), (c, d) in zip(pairs, pairs[1:]):
        if not a:
            raise MelicError("degenerate input: zero IOI (simultaneous onsets)")
        num, den = b * c, a * d
        g = gcd(num, den)
        out.append((num // g, den // g))
    return out


def _fraction_ratios(values) -> list[Fraction]:
    return [Fraction(num, den) for num, den in ratios(pairs_of(values))]


def pitch_symbols(pitches: list[int], kind: ViewpointKind) -> list:
    """The symbols of a pitch kind (pitch, chroma, sdeg, mint, sint or
    contour) for a list of pitches. Melodies and model sequences alike get
    their pitch viewpoints here."""
    kind = ViewpointKind(kind)
    if kind is ViewpointKind.SCALE_DEGREE or kind is ViewpointKind.SINT:
        # the scale degrees, each chroma's rank among the sequence's chromas,
        # stand in for the pitches: S-Int is the M-Int of the scale degrees
        pitches = intern([p % 12 for p in pitches])[0]
    if kind is ViewpointKind.PITCH or kind is ViewpointKind.SCALE_DEGREE:
        return list(pitches)
    if kind is ViewpointKind.CHROMA:
        return [p % 12 for p in pitches]
    if kind is ViewpointKind.MINT or kind is ViewpointKind.SINT:
        return [b - a for a, b in zip(pitches, pitches[1:])]
    if kind is ViewpointKind.CONTOUR:
        return [(b > a) - (b < a) for a, b in zip(pitches, pitches[1:])]
    raise MelicError(f"{kind.value} is not a pitch viewpoint")


def extract_viewpoint(melody: Melody, kind: ViewpointKind) -> ViewpointSequence:
    """Derive the viewpoint symbol sequence for one melody."""
    kind = ViewpointKind(kind)
    if kind is ViewpointKind.DURATION:
        syms = _durations(melody)
    elif kind is ViewpointKind.IOI:
        syms = _iois(melody)
    elif kind is ViewpointKind.IOI_RATIO:
        syms = _fraction_ratios(_iois(melody))
    elif kind is ViewpointKind.DURATION_RATIO:
        syms = _fraction_ratios(_durations(melody))
    elif kind is ViewpointKind.JOINT_CHROMA_DURATION:
        syms = zip(pitch_symbols(_pitches(melody), ViewpointKind.CHROMA), _durations(melody))
    elif kind is ViewpointKind.JOINT_MINT_DURATION:
        syms = zip(pitch_symbols(_pitches(melody), ViewpointKind.MINT), _durations(melody))
    else:  # the six pitch kinds
        syms = pitch_symbols(_pitches(melody), kind)
    return ViewpointSequence(kind=kind, symbols=tuple(syms))


def fold_interval(a: int, b: int) -> int:
    """Representative of b - a (mod 12) in [-6, +5]: the smaller-motion reading."""
    return ((b - a + 6) % 12) - 6


def recover_octaves(chroma_seq: ViewpointSequence, truth: ViewpointSequence | None = None):
    """Predict melodic intervals from a chroma sequence by assuming scalar motion.

    Returns (predicted interval sequence, accuracy) where accuracy is None
    when no true interval sequence is given.
    """
    if ViewpointKind(chroma_seq.kind) is not ViewpointKind.CHROMA:
        raise MelicError("octave recovery needs a chroma sequence")
    c = chroma_seq.symbols
    if len(c) < 2:
        raise MelicError("octave recovery needs at least 2 symbols")
    pred = tuple(fold_interval(a, b) for a, b in zip(c, c[1:]))
    accuracy = None
    if truth is not None:
        true_syms = symbols_of(truth)
        if len(true_syms) != len(pred):
            raise MelicError("true interval sequence length mismatch")
        accuracy = sum(p == t for p, t in zip(pred, true_syms)) / len(pred)
    return ViewpointSequence(kind=ViewpointKind.MINT, symbols=pred), accuracy
