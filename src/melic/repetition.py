"""Recursive removal of repeated substrings, non-repeated length, repetition
fraction, and total information of a melody."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import MelicError, Melody
from .infotheory import distribution_of, entropy
from .viewpoints import ViewpointKind, extract_viewpoint, intern, symbols_of


class RepetitionError(MelicError):
    pass


@dataclass(frozen=True)
class RepetitionResult:
    pieces: tuple[tuple, ...]
    l_nr: int
    removed_matches: tuple[tuple[tuple, int], ...]


def _nonoverlap_count(positions: list[tuple[int, int]], length: int) -> int:
    """Leftmost-greedy non-overlapping occurrence count; positions sorted."""
    count = 0
    last_piece = -1
    last_end = -1
    for piece, start in positions:
        if piece != last_piece or start >= last_end:
            count += 1
            last_piece = piece
            last_end = start + length
    return count


def _candidates(pieces: list[tuple], l_min: int, l_cap: int) -> dict[tuple, int]:
    """Substrings of length in [l_min, l_cap] with >= 2 non-overlapping
    occurrences across pieces, mapped to their occurrence count.

    Grown breadth-first: a repeated substring's prefix is repeated too, so
    only positions of repeated (length-1)-prefixes are extended.
    """
    level: dict[tuple, list[tuple[int, int]]] = {}
    for pi, piece in enumerate(pieces):
        for start, sym in enumerate(piece):
            level.setdefault((sym,), []).append((pi, start))
    found: dict[tuple, int] = {}
    length = 1
    while level and length < l_cap:
        nxt: dict[tuple, list[tuple[int, int]]] = {}
        for sub, positions in level.items():
            if len(positions) < 2:
                continue
            for pi, start in positions:
                piece = pieces[pi]
                end = start + length
                if end < len(piece):
                    nxt.setdefault(sub + (piece[end],), []).append((pi, start))
        length += 1
        level = nxt
        if length >= l_min:
            for sub, positions in level.items():
                if len(positions) >= 2:
                    n = _nonoverlap_count(positions, length)
                    if n >= 2:
                        found[sub] = n
    return found


def _remove_occurrences(piece: tuple, sub: tuple) -> tuple[list[tuple], int]:
    """Delete leftmost-greedy non-overlapping occurrences; return fragments."""
    frags = []
    removed = 0
    i = 0
    buf: list = []
    n, m = len(piece), len(sub)
    while i < n:
        if piece[i : i + m] == sub:
            if buf:
                frags.append(tuple(buf))
                buf = []
            removed += 1
            i += m
        else:
            buf.append(piece[i])
            i += 1
    if buf:
        frags.append(tuple(buf))
    return frags, removed


def remove_repetition(seq, l_min: int = 2) -> RepetitionResult:
    """Recursively remove the repeated substring maximising N x L each round.

    Ties break toward the longer match, then the lexicographically smaller
    one. Each removed match leaves one copy behind as a new piece, which
    participates in later rounds as ordinary material. The search runs on
    the sorted-rank codes of `intern`, which order substrings as the
    symbols do; pieces and matches are returned as symbols.
    """
    if l_min < 2:
        raise RepetitionError(f"l_min must be >= 2, got {l_min}")
    codes, table = intern(seq)
    if not codes:
        raise RepetitionError("empty sequence")
    l_cap = len(codes) // 2
    pieces: list[tuple] = [codes]
    removed: list[tuple[tuple, int]] = []
    while True:
        cands = _candidates(pieces, l_min, l_cap)
        if not cands:
            break
        best_sub = None
        best_key = None
        for sub, n in cands.items():
            key = (n * len(sub), len(sub))
            if best_key is None or key > best_key or (key == best_key and sub < best_sub):
                best_key = key
                best_sub = sub
        new_pieces: list[tuple] = []
        total_removed = 0
        for piece in pieces:
            frags, k = _remove_occurrences(piece, best_sub)
            new_pieces.extend(frags)
            total_removed += k
        new_pieces.append(best_sub)
        pieces = new_pieces
        removed.append((best_sub, total_removed))
    unique = []
    seen = set()
    for p in pieces:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    l_nr = sum(len(p) for p in unique)
    decode = lambda piece: tuple(table[c] for c in piece)
    return RepetitionResult(
        pieces=tuple(decode(p) for p in pieces),
        l_nr=l_nr,
        removed_matches=tuple((decode(sub), k) for sub, k in removed),
    )


def repetition_fraction(seq, l_min: int = 2) -> float:
    """1 - L_NR / L: the fraction of the sequence accounted for by repetition."""
    symbols = symbols_of(seq)
    res = remove_repetition(symbols, l_min)
    return 1.0 - res.l_nr / len(symbols)


def joint_information(melody: Melody, l_min: int = 2) -> tuple[float, int, int]:
    """(H, L_NR, L) of the joint chroma-duration sequence: its unigram entropy
    in bits, its non-repeated length and its length."""
    joint = extract_viewpoint(melody, ViewpointKind.JOINT_CHROMA_DURATION)
    h = entropy(distribution_of(joint))
    return h, remove_repetition(joint, l_min).l_nr, len(joint.symbols)


def total_information(melody: Melody, l_min: int = 2) -> float:
    """Joint chroma-duration unigram entropy times the non-repeated length of
    that same joint sequence, in bits."""
    h, l_nr, _ = joint_information(melody, l_min)
    return h * l_nr
