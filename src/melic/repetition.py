"""Recursive removal of repeated substrings, non-repeated length, repetition
fraction, and total information of a melody."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import MelicError, Melody
from .infotheory import entropy_of
from .viewpoints import ViewpointKind, extract_viewpoint, intern, symbols_of


@dataclass(frozen=True)
class RepetitionResult:
    pieces: tuple[tuple, ...]
    l_nr: int
    removed_matches: tuple[tuple[tuple, int], ...]


def _candidates(text: str, sep: str, l_min: int, l_cap: int) -> dict[str, int]:
    """Substrings of `text` free of `sep`, of length in [l_min, l_cap], with
    >= 2 non-overlapping occurrences, mapped to their occurrence count.

    Grown one length at a time: a repeated substring's prefix is repeated
    too, so only the start positions of substrings that repeated at the
    previous length are extended.
    """
    level: dict[str, list[int]] = {}
    for start, sym in enumerate(text):
        if sym != sep:
            level.setdefault(sym, []).append(start)
    found: dict[str, int] = {}
    length = 1
    while level and length < l_cap:
        length += 1
        nxt: dict[str, list[int]] = {}
        for starts in level.values():
            if len(starts) > 1:
                for start in starts:
                    sub = text[start : start + length]
                    if len(sub) == length and sub[-1] != sep:
                        nxt.setdefault(sub, []).append(start)
        level = nxt
        if length >= l_min:
            for sub, starts in level.items():
                # every occurrence lies in [first start, last start + length)
                if len(starts) > 1 and (n := text.count(sub, starts[0], starts[-1] + length)) > 1:
                    found[sub] = n
    return found


def remove_repetition(seq, l_min: int = 2) -> RepetitionResult:
    """Recursively remove the repeated substring maximising N x L each round.

    Ties break toward the longer match, then the lexicographically smaller
    one. Each removed match leaves one copy behind as a new piece, which
    participates in later rounds as ordinary material.

    The search runs on a string with one character per `intern` code, so
    code-point order is symbol order, and `str.count`/`str.split` are the
    leftmost non-overlapping count and removal. The pieces are joined by a
    separator no symbol is coded as, so no match spans two pieces; pieces
    and matches are returned as symbols.
    """
    if l_min < 2:
        raise MelicError(f"l_min must be >= 2, got {l_min}")
    codes, table = intern(seq)
    if not codes:
        raise MelicError("empty sequence")
    sep = chr(len(table))
    text = "".join(map(chr, codes))
    removed: list[tuple[str, int]] = []
    while cands := _candidates(text, sep, l_min, len(codes) // 2):
        best = min(cands, key=lambda s: (-cands[s] * len(s), -len(s), s))
        text = sep.join([*text.split(best), best])
        removed.append((best, cands[best]))
    pieces = [p for p in text.split(sep) if p]
    decode = lambda piece: tuple(table[ord(c)] for c in piece)
    return RepetitionResult(
        pieces=tuple(map(decode, pieces)),
        l_nr=sum(map(len, dict.fromkeys(pieces))),
        removed_matches=tuple((decode(sub), n) for sub, n in removed),
    )


def repetition_fraction(seq, l_min: int = 2) -> float:
    """1 - L_NR / L: the fraction of the sequence accounted for by repetition."""
    symbols = symbols_of(seq)
    res = remove_repetition(symbols, l_min)
    return 1.0 - res.l_nr / len(symbols)


def total_information(melody: Melody, l_min: int = 2) -> float:
    """Joint chroma-duration unigram entropy times the non-repeated length of
    that same joint sequence, in bits."""
    joint = extract_viewpoint(melody, ViewpointKind.JOINT_CHROMA_DURATION)
    return entropy_of(joint) * remove_repetition(joint, l_min).l_nr
