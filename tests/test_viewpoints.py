"""Viewpoint extraction, tonic estimation, interval folding, octave recovery."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from melic.corpus import MelicError
from melic.viewpoints import (
    ViewpointKind,
    ViewpointSequence,
    estimate_tonic,
    extract_viewpoint,
    fold_interval,
    intern,
    pitch_symbols,
    recover_octaves,
)

from conftest import melody_from_pitches

MEL = melody_from_pitches("m", [60, 64, 67, 72, 67, 60], [1, 1, "1/2", "1/2", 2, 1])


def vp(kind, melody=MEL):
    return extract_viewpoint(melody, kind).symbols


def test_pitch_and_chroma():
    assert vp(ViewpointKind.PITCH) == (60, 64, 67, 72, 67, 60)
    assert vp(ViewpointKind.CHROMA) == (0, 4, 7, 0, 7, 0)


def test_scale_degree_ranks_sorted_chromas():
    assert vp(ViewpointKind.SCALE_DEGREE) == (0, 1, 2, 0, 2, 0)


def test_mint_sint_contour():
    assert vp(ViewpointKind.MINT) == (4, 3, 5, -5, -7)
    assert vp(ViewpointKind.SINT) == (1, 1, -2, 2, -2)
    assert vp(ViewpointKind.CONTOUR) == (1, 1, 1, -1, -1)


def test_duration_and_ratios_are_exact_rationals():
    assert vp(ViewpointKind.DURATION) == (
        Fraction(1),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(2),
        Fraction(1),
    )
    assert vp(ViewpointKind.DURATION_RATIO) == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1),
        Fraction(4),
        Fraction(1, 2),
    )


def test_ioi_skips_rests():
    # rest between the first two notes is absorbed into one inter-onset gap
    m = melody_from_pitches("r", [60, None, 64, 67], [1, 1, 1, 1])
    assert vp(ViewpointKind.IOI, m) == (Fraction(2), Fraction(1))
    assert vp(ViewpointKind.IOI_RATIO, m) == (Fraction(1, 2),)


def test_duration_skips_rest_values():
    m = melody_from_pitches("r", [60, None, 64], [1, 5, 2])
    assert vp(ViewpointKind.DURATION, m) == (Fraction(1), Fraction(2))


def test_joint_viewpoints_pairwise():
    cd = vp(ViewpointKind.JOINT_CHROMA_DURATION)
    assert cd[0] == (0, Fraction(1))
    assert len(cd) == 6
    md = vp(ViewpointKind.JOINT_MINT_DURATION)
    assert md[0] == (4, Fraction(1))
    assert len(md) == 5


def _derive(pitches):
    """Reference for pitch_symbols: each pitch kind of a pitch list, derived
    on its own."""
    chromas = [p % 12 for p in pitches]
    sdeg = intern(chromas)[0]
    mints = tuple(b - a for a, b in zip(pitches, pitches[1:]))
    return {
        ViewpointKind.PITCH: tuple(pitches),
        ViewpointKind.CHROMA: tuple(chromas),
        ViewpointKind.SCALE_DEGREE: sdeg,
        ViewpointKind.MINT: mints,
        ViewpointKind.SINT: tuple(b - a for a, b in zip(sdeg, sdeg[1:])),
        ViewpointKind.CONTOUR: tuple((b > a) - (b < a) for a, b in zip(pitches, pitches[1:])),
    }


@given(st.lists(st.integers(-40, 140), max_size=40))
@example([])
@example([-7])
@example([-13, 2])
@example([61, 61])
def test_pitch_symbols_match_the_reference_on_any_pitch_list(pitches):
    for kind, expected in _derive(pitches).items():
        assert tuple(pitch_symbols(pitches, kind)) == expected, kind


def test_pitch_symbols_reject_a_kind_that_is_not_a_pitch_kind():
    with pytest.raises(MelicError, match="^duration is not a pitch viewpoint$"):
        pitch_symbols([60, 62], ViewpointKind.DURATION)


def test_ioi_needs_two_notes():
    m = melody_from_pitches("s", [60])
    with pytest.raises(MelicError, match="IOI needs at least 2 note onsets$"):
        extract_viewpoint(m, ViewpointKind.IOI)


def test_zero_ioi_rejected():
    from melic.corpus import Melody, NoteEvent

    m = Melody(
        id="z",
        events=(
            NoteEvent(60, Fraction(0), Fraction(1)),
            NoteEvent(64, Fraction(0), Fraction(1)),
            NoteEvent(67, Fraction(1), Fraction(1)),
        ),
    )
    with pytest.raises(MelicError, match="zero"):
        extract_viewpoint(m, ViewpointKind.IOI_RATIO)


def test_estimate_tonic_methods():
    m = melody_from_pitches("t", [62, 64, 62, 60])
    assert estimate_tonic(m, "final") == 0
    assert estimate_tonic(m, "first") == 2
    assert estimate_tonic(m, "modal") == 2
    # modal tie resolves toward the final note's chroma
    m2 = melody_from_pitches("t2", [64, 64, 60, 60])
    assert estimate_tonic(m2, "modal") == 0
    with pytest.raises(ValueError):
        estimate_tonic(m, "median")


def test_fold_interval_all_pairs():
    for a in range(12):
        for b in range(12):
            f = fold_interval(a, b)
            assert -6 <= f <= 5
            assert (f - (b - a)) % 12 == 0


def test_recover_octaves_exact_for_small_intervals():
    rng = np.random.default_rng(4)
    intervals = rng.integers(-5, 6, size=30)
    pitches = np.concatenate([[60], 60 + np.cumsum(intervals)])
    chroma = ViewpointSequence(ViewpointKind.CHROMA, tuple(int(p) % 12 for p in pitches))
    truth = ViewpointSequence(ViewpointKind.MINT, tuple(int(i) for i in intervals))
    pred, acc = recover_octaves(chroma, truth)
    assert acc == 1.0
    assert pred.symbols == truth.symbols


def test_recover_octaves_without_truth():
    chroma = ViewpointSequence(ViewpointKind.CHROMA, (0, 7, 0))
    pred, acc = recover_octaves(chroma)
    assert acc is None
    assert pred.symbols == (-5, 5)


def test_recover_octaves_needs_chroma():
    with pytest.raises(MelicError, match="^octave recovery needs a chroma sequence$"):
        recover_octaves(ViewpointSequence(ViewpointKind.PITCH, (60, 62)))
