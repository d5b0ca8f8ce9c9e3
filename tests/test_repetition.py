"""Recursive repeated-substring removal against a brute-force oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melic.corpus import MelicError
from melic.repetition import (
    remove_repetition,
    repetition_fraction,
    total_information,
)
from melic.viewpoints import intern

from conftest import melody_from_pitches


# --- brute-force oracle -----------------------------------------------------

def _greedy_count(piece, sub):
    count = 0
    i = 0
    while i <= len(piece) - len(sub):
        if piece[i : i + len(sub)] == sub:
            count += 1
            i += len(sub)
        else:
            i += 1
    return count


def _oracle_candidates(pieces, l_min, l_cap):
    cands = {}
    for piece in pieces:
        for length in range(l_min, min(l_cap, len(piece)) + 1):
            for start in range(len(piece) - length + 1):
                sub = piece[start : start + length]
                if sub in cands:
                    continue
                n = sum(_greedy_count(p, sub) for p in pieces)
                if n >= 2:
                    cands[sub] = n
    return cands


def _oracle_remove(piece, sub):
    frags = []
    buf = []
    i = 0
    while i < len(piece):
        if piece[i : i + len(sub)] == sub:
            if buf:
                frags.append(tuple(buf))
                buf = []
            i += len(sub)
        else:
            buf.append(piece[i])
            i += 1
    if buf:
        frags.append(tuple(buf))
    return frags


def oracle_removal(seq, l_min=2):
    """(L_NR, removed matches as (substring, count) pairs), by brute force."""
    seq = tuple(seq)
    l_cap = len(seq) // 2
    pieces = [seq]
    removed = []
    while True:
        cands = _oracle_candidates(pieces, l_min, l_cap)
        if not cands:
            break
        best = max(cands, key=lambda s: (cands[s] * len(s), len(s), NegLex(s)))
        nxt = []
        for p in pieces:
            nxt.extend(_oracle_remove(p, best))
        nxt.append(best)
        pieces = nxt
        removed.append((best, cands[best]))
    return sum(len(p) for p in dict.fromkeys(pieces)), tuple(removed)


def oracle_l_nr(seq, l_min=2):
    return oracle_removal(seq, l_min)[0]


class NegLex:
    """Orders tuples in reverse, so max() prefers the lexicographically smaller."""

    def __init__(self, t):
        self.t = t

    def __lt__(self, other):
        return self.t > other.t

    def __eq__(self, other):
        return self.t == other.t


# --- unit cases -------------------------------------------------------------

def test_simple_repeat():
    res = remove_repetition(tuple("abcabc"))
    assert res.l_nr == 3
    assert res.removed_matches == ((("a", "b", "c"), 2),)


def test_runs_collapse():
    assert remove_repetition(tuple("aaaa")).l_nr == 2  # "aa" twice -> piece "aa"
    assert remove_repetition(tuple("aaaaaa")).l_nr == 3


def test_no_repeats():
    res = remove_repetition(tuple("abcde"))
    assert res.l_nr == 5
    assert res.removed_matches == ()


def test_fraction():
    assert repetition_fraction(tuple("abcabc")) == pytest.approx(0.5)
    assert repetition_fraction(tuple("abcde")) == 0.0


def test_score_prefers_count_times_length():
    # "ab" occurs 3 times (score 6) beating "abc" twice (score 6, tie -> longer)
    res = remove_repetition(tuple("abcabcab"))
    assert res.removed_matches[0][0] == ("a", "b", "c")


def test_removed_copy_participates_in_later_rounds():
    # after removing "ab" everywhere, its leftover copy can pair with residue
    seq = tuple("ababx" + "abx")
    res = remove_repetition(seq)
    assert res.l_nr == oracle_l_nr(seq)


def test_match_capped_at_half_length():
    # the length-3 repeat in a 5-symbol string exceeds the floor(L/2) cap... not here:
    seq = tuple("abcab")
    res = remove_repetition(seq)
    assert res.l_nr == 3  # "ab" removed twice


def test_lmin_three_ignores_short_repeats():
    # "aba" occurrences overlap, so nothing of length >= 3 repeats twice
    assert remove_repetition(tuple("ababab"), l_min=3).l_nr == 6
    assert remove_repetition(tuple("abcabc"), l_min=3).l_nr == 3
    assert remove_repetition(tuple("abab"), l_min=3).l_nr == 4


def test_validation():
    with pytest.raises(MelicError, match="^l_min must be >= 2, got 1$"):
        remove_repetition(tuple("abc"), l_min=1)
    with pytest.raises(MelicError, match="^empty sequence$"):
        remove_repetition(())


def test_matches_oracle_on_random_sequences():
    rng = np.random.default_rng(2)
    # short sequences over up to 4 symbols, then longer ones over up to 3,
    # where removals run for many rounds and leave equal pieces behind
    for lengths, symbols, trials in (((1, 13), (1, 5), 300), ((13, 61), (1, 4), 300)):
        for _ in range(trials):
            n = int(rng.integers(*lengths))
            a = int(rng.integers(*symbols))
            seq = tuple(int(x) for x in rng.integers(0, a, n))
            res = remove_repetition(seq)
            assert (res.l_nr, res.removed_matches) == oracle_removal(seq), seq


def test_final_pieces_have_no_repeats():
    rng = np.random.default_rng(3)
    for _ in range(50):
        seq = tuple(int(x) for x in rng.integers(0, 3, 40))
        res = remove_repetition(seq)
        assert not _oracle_candidates(list(res.pieces), 2, len(seq) // 2)


def test_total_information():
    m = melody_from_pitches("t", [60, 62, 60, 62], [1, 2, 1, 2])
    # joint chroma-duration sequence is (0,1),(2,2),(0,1),(2,2): H=1 bit, L_NR=2
    assert total_information(m) == pytest.approx(2.0)
    flat = melody_from_pitches("f", [60] * 6)
    assert total_information(flat) == 0.0


# --- interned codes ---------------------------------------------------------

def test_intern_codes_are_sorted_ranks():
    codes, table = intern((Fraction(1, 2), Fraction(2), Fraction(1, 2), Fraction(1, 3)))
    assert table == (Fraction(1, 3), Fraction(1, 2), Fraction(2))
    assert codes == (1, 2, 1, 0)
    assert intern(()) == ((), ())


def test_ties_break_toward_the_smaller_substring():
    # "bbbc" and "cbbb" both score 2 x 4; "bbbc" is the smaller
    res = remove_repetition(tuple("cbbbbcccbbbcb"))
    assert res.l_nr == 9
    assert res.removed_matches == ((("b", "b", "b", "c"), 2),)


def test_first_appearance_codes_would_change_l_nr():
    # coding c=0, b=1 (first-appearance order) reverses the symbol order, so
    # the tie goes to "cbbb" and a different removal follows: why `intern`
    # uses sorted ranks
    relabelled = tuple({"c": 0, "b": 1}[s] for s in "cbbbbcccbbbcb")
    assert remove_repetition(relabelled).l_nr == 7


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
_sequences = st.lists(st.integers(0, 3), min_size=1, max_size=30)


@PROPERTY
@given(_sequences, st.integers(2, 4))
def test_l_nr_at_most_l_and_no_residual_repeat(seq, l_min):
    res = remove_repetition(seq, l_min)
    assert 1 <= res.l_nr <= len(seq)
    assert not _oracle_candidates(list(res.pieces), l_min, len(seq) // 2)


@PROPERTY
@given(_sequences, st.lists(st.integers(1, 5), min_size=4, max_size=4))
def test_symbol_types_give_the_same_removal(seq, steps):
    # order-preserving relabellings: Fractions, (int, Fraction) pairs, ints
    # with arbitrary positive gaps
    ints = [sum(steps[: k + 1]) for k in range(4)]
    relabellings = [
        lambda k: Fraction(2 * k + 1, 7),
        lambda k: (k // 2, Fraction(k % 2 + 1, 3)),
        lambda k: ints[k],
    ]
    base = remove_repetition(tuple(seq))
    for f in relabellings:
        res = remove_repetition(tuple(f(k) for k in seq))
        assert res.l_nr == base.l_nr
        assert res.removed_matches == tuple((tuple(f(k) for k in sub), n) for sub, n in base.removed_matches)
