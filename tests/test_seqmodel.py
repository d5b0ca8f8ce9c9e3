"""PPM prediction (escape method C) and within-corpus repetition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melic.seqmodel import (
    SeqModelError,
    information_content,
    predict_distribution,
    train_ppm,
    within_corpus_repetition,
)

from conftest import corpus_of, melody_from_pitches


def test_training_counts():
    model = train_ppm([("a", "b", "a", "b")], max_order=2, alphabet="ab")
    assert model.context_counts[()] == {"a": 2, "b": 2}
    assert model.context_counts[("a",)] == {"b": 2}
    assert model.context_counts[("b",)] == {"a": 1}
    assert model.context_counts[("a", "b")] == {"a": 1}


def test_symbol_outside_alphabet_rejected():
    with pytest.raises(SeqModelError):
        train_ppm([("a", "z")], max_order=1, alphabet="ab")
    model = train_ppm([("a", "b")], max_order=1, alphabet="ab")
    with pytest.raises(SeqModelError):
        information_content(model, ("z",))


def test_escape_c_hand_computed():
    # order-0 model trained on "aab" over {a,b,c}: n=3, e=2
    model = train_ppm([("a", "a", "b")], max_order=0, alphabet="abc")
    p = predict_distribution(model, ())
    assert p["a"] == pytest.approx(2 / 5)
    assert p["b"] == pytest.approx(1 / 5)
    # escape mass 2/5 falls through to uniform restricted to the unseen {c}
    assert p["c"] == pytest.approx(2 / 5)


def test_escape_renormalizes_over_unseen():
    # context "a" saw only "b"; lower order saw a,b; c,d unseen at both levels
    model = train_ppm([("a", "b")], max_order=1, alphabet="abcd")
    p = predict_distribution(model, ("a",))
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)
    assert p["b"] == pytest.approx(1 / 2)
    assert p["c"] == p["d"]


def test_prediction_sums_to_one_random_models():
    rng = np.random.default_rng(8)
    for _ in range(30):
        a = int(rng.integers(2, 8))
        alphabet = tuple(range(a))
        seqs = [tuple(int(x) for x in rng.integers(0, a, rng.integers(1, 40))) for _ in range(5)]
        model = train_ppm(seqs, max_order=int(rng.integers(0, 6)), alphabet=alphabet)
        ctx = tuple(int(x) for x in rng.integers(0, a, 6))
        for k in range(len(ctx)):
            p = predict_distribution(model, ctx[:k])
            assert sum(p.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v > 0 for v in p.values())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 7).flatmap(
        lambda a: st.tuples(
            st.just(a),
            st.lists(st.lists(st.integers(0, a - 1), min_size=1, max_size=30), min_size=1, max_size=5),
            st.lists(st.integers(0, a - 1), max_size=8),
        )
    ),
    st.integers(0, 5),
)
def test_every_prediction_sums_to_one(case, max_order):
    a, seqs, context = case
    model = train_ppm(seqs, max_order=max_order, alphabet=range(a))
    for k in range(len(context) + 1):
        assert abs(sum(predict_distribution(model, context[:k]).values()) - 1.0) <= 1e-12


def test_information_content_highly_trained_repeat():
    model = train_ppm([("a", "b")] * 50, max_order=5, alphabet="ab")
    ic = information_content(model, ("a", "b"))
    # 'b' after 'a': count 50 of 50 with one escape path -> P = 50/51
    assert ic.per_symbol_bits[1] == pytest.approx(-math.log2(50 / 51), abs=1e-12)


def test_information_content_mean():
    model = train_ppm([("a", "b", "a")], max_order=1, alphabet="ab")
    ic = information_content(model, ("a", "b", "a"))
    assert ic.mean_bits == pytest.approx(sum(ic.per_symbol_bits) / 3)
    with pytest.raises(SeqModelError):
        information_content(model, ())


def make_corpus(pitch_rows):
    return corpus_of([melody_from_pitches(f"m{i}", row) for i, row in enumerate(pitch_rows)])


def test_within_corpus_requires_enough_melodies():
    corpus = make_corpus([[60, 62, 64]] * 5)
    with pytest.raises(SeqModelError):
        within_corpus_repetition(corpus, n_train=10)


def test_within_corpus_empty_targets_are_left_out():
    corpus = make_corpus([[60, 62, 64, 65]] * 3 + [[67]])
    res = within_corpus_repetition(corpus, n_train=2, n_shuffle_reps=2, seed=1)
    assert res.left_out == ("m3",)
    assert [t[0] for t in res.per_target] == ["m0", "m1", "m2"]
    with pytest.raises(SeqModelError, match="no melody"):
        within_corpus_repetition(make_corpus([[60]] * 4), n_train=2)


def test_within_corpus_identical_melodies_positive():
    rng = np.random.default_rng(11)
    walk = list(np.cumsum(rng.integers(-4, 5, 40)) + 70)
    corpus = make_corpus([walk] * 13)
    res = within_corpus_repetition(corpus, n_train=4, n_shuffle_reps=4, seed=5)
    assert res.repetition_bits > 0.5
    assert res.repetition_bits == pytest.approx(res.mean_ic_r - res.mean_ic)
    assert len(res.per_target) == 13


def test_within_corpus_deterministic_and_order_independent():
    rng = np.random.default_rng(12)
    rows = [list(np.cumsum(rng.integers(-3, 4, 30)) + 70) for _ in range(8)]
    c1 = make_corpus(rows)
    # same melodies registered in reverse order: per-target seeds depend only on ids
    c2 = corpus_of([melody_from_pitches(f"m{i}", row) for i, row in reversed(list(enumerate(rows)))])
    r1 = within_corpus_repetition(c1, n_train=3, n_shuffle_reps=3, seed=9)
    r2 = within_corpus_repetition(c2, n_train=3, n_shuffle_reps=3, seed=9)
    assert dict((t[0], t[1:]) for t in r1.per_target) == dict((t[0], t[1:]) for t in r2.per_target)
    r1b = within_corpus_repetition(c1, n_train=3, n_shuffle_reps=3, seed=9)
    assert r1 == r1b
