"""PPM prediction (escape method C) and within-corpus repetition."""

import math
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melic.corpus import MelicError
from melic.seqmodel import (
    information_content,
    predict_distribution,
    train_ppm,
    within_corpus_repetition,
)
from melic.viewpoints import ViewpointKind

from conftest import corpus_of, melody_from_pitches


# --- oracle: the dict-based PPM, keyed on the symbols themselves -------------

@dataclass
class OracleModel:
    max_order: int
    alphabet: tuple
    counts: dict
    cache: dict = field(default_factory=dict)


def oracle_train(sequences, max_order, alphabet):
    counts = {}
    for seq in sequences:
        syms = tuple(seq)
        for i, sym in enumerate(syms):
            for k in range(min(i, max_order) + 1):
                ctx = syms[i - k : i]
                counts.setdefault(ctx, {})
                counts[ctx][sym] = counts[ctx].get(sym, 0) + 1
    return OracleModel(max_order, tuple(sorted(set(alphabet))), counts)


def oracle_level_dist(model, ctx):
    if ctx in model.cache:
        return model.cache[ctx]
    a = len(model.alphabet)
    index = {s: i for i, s in enumerate(model.alphabet)}
    table = model.counts.get(ctx)
    lower = oracle_level_dist(model, ctx[1:]) if ctx else np.full(a, 1.0 / a)
    if not table:
        out = lower
    else:
        n = sum(table.values())
        e = len(table)
        out = np.zeros(a)
        seen = np.zeros(a, dtype=bool)
        for sym, c in table.items():
            out[index[sym]] = c / (n + e)
            seen[index[sym]] = True
        esc = e / (n + e)
        if seen.all():
            out += esc * lower
        else:
            z = lower[~seen].sum()
            out[~seen] = esc * lower[~seen] / z
    model.cache[ctx] = out
    return out


def oracle_predict(model, context):
    ctx = tuple(context)[-model.max_order :] if model.max_order > 0 else ()
    return {a: float(p) for a, p in zip(model.alphabet, oracle_level_dist(model, ctx))}


def oracle_bits(model, seq):
    index = {s: i for i, s in enumerate(model.alphabet)}
    syms = tuple(seq)
    return tuple(
        float(-np.log2(oracle_level_dist(model, syms[max(0, i - model.max_order) : i])[index[sym]]))
        for i, sym in enumerate(syms)
    )


def counted_contexts(model):
    """The model's suffix trie as {context codes: count of each next code},
    for the contexts with training positions."""
    contexts = {}
    for (parent, code), (entry, _, _) in model.context_counts.items():
        contexts[entry] = (code, *contexts[parent]) if parent >= 0 else ()
    return {
        contexts[entry]: np.bincount(model.codes[pos], minlength=len(model.alphabet))
        for entry, pos, _ in model.context_counts.values()
        if pos.size
    }


SYMBOL_POOLS = {
    "int": [-7, -2, -1, 0, 1, 3, 4, 12],
    "Fraction": [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4)],
    "(int, Fraction)": [(c, Fraction(d, 2)) for c in (0, 2, 7, 11) for d in (1, 2, 3)],
    "str": ["a", "ab", "b", "ba", "c", "cab", "z"],
}


@pytest.mark.parametrize("pool", list(SYMBOL_POOLS))
def test_matches_oracle_on_random_sequences(pool):
    rng = np.random.default_rng(list(SYMBOL_POOLS).index(pool))
    symbols = SYMBOL_POOLS[pool]

    def draw(alphabet, lo, hi):
        return tuple(alphabet[int(i)] for i in rng.integers(0, len(alphabet), int(rng.integers(lo, hi))))

    for _ in range(40):
        alphabet = [symbols[int(i)] for i in rng.choice(len(symbols), int(rng.integers(1, len(symbols) + 1)), replace=False)]
        # training uses a subset of the alphabet, so some symbols and contexts are never seen
        seen = alphabet[: int(rng.integers(1, len(alphabet) + 1))]
        train = [draw(seen, 0, 40) for _ in range(int(rng.integers(1, 6)))]
        for max_order in range(6):
            model = train_ppm(train, max_order, alphabet)
            oracle = oracle_train(train, max_order, alphabet)
            for _ in range(3):
                target = draw(alphabet, 1, 30)
                ic = information_content(model, target)
                assert ic.per_symbol_bits == oracle_bits(oracle, target)
                assert ic.mean_bits == float(np.mean(oracle_bits(oracle, target)))
                context = draw(alphabet, 0, 8)
                for k in range(len(context) + 1):
                    assert predict_distribution(model, context[:k]) == oracle_predict(oracle, context[:k])
            # contexts are counted as the predictions read them
            decoded = {
                tuple(model.alphabet[c] for c in ctx): {model.alphabet[i]: n for i, n in enumerate(row) if n}
                for ctx, row in counted_contexts(model).items()
            }
            assert all(counts == oracle.counts[ctx] for ctx, counts in decoded.items())
            assert bool(decoded) == any(train)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 6).flatmap(
        lambda a: st.tuples(
            st.lists(st.integers(1, 5), min_size=a, max_size=a),
            st.lists(st.lists(st.integers(0, a - 1), max_size=30), min_size=1, max_size=5),
            st.lists(st.integers(0, a - 1), min_size=1, max_size=20),
        )
    ),
    st.integers(0, 5),
)
def test_order_preserving_relabelling_keeps_every_bit(case, max_order):
    gaps, seqs, target = case
    label = [Fraction(int(x), 3) for x in np.cumsum(gaps)]  # strictly increasing in the code

    def relabel(seq):
        return tuple(label[x] for x in seq)

    model = train_ppm(seqs, max_order, range(len(gaps)))
    relabelled = train_ppm([relabel(s) for s in seqs], max_order, label)
    assert information_content(model, target) == information_content(relabelled, relabel(target))
    assert list(predict_distribution(model, target).values()) == list(
        predict_distribution(relabelled, relabel(target)).values()
    )


def test_training_counts():
    # rows are indexed by the code of the next symbol: a -> 0, b -> 1
    model = train_ppm([("a", "b", "a", "b")], max_order=2, alphabet="ab")
    assert model.alphabet == ("a", "b")
    for context in [(), ("a",), ("b",), ("a", "b"), ("b", "a")]:
        predict_distribution(model, context)
    assert {ctx: row.tolist() for ctx, row in counted_contexts(model).items()} == {
        (): [2, 2],
        (0,): [0, 2],
        (1,): [1, 0],
        (0, 1): [1, 0],
        (1, 0): [0, 1],
    }


def test_orders_beyond_the_longest_sequence_add_no_context():
    # a sequence of n symbols has contexts of at most n - 1 of them
    seqs = [("a", "b", "a", "b"), ("b", "a"), ()]
    longest = train_ppm(seqs, max_order=3, alphabet="ab")
    huge = train_ppm(seqs, max_order=10**9, alphabet="ab")
    assert huge.max_order == 10**9
    target = ("a", "b", "a", "b", "b", "a", "b", "a")
    assert information_content(huge, target) == information_content(longest, target)


def test_contexts_deeper_than_the_recursion_limit_predict_as_their_counted_suffix():
    # a 1200-symbol target under max_order 5000 reads contexts of up to 1199
    # codes; none longer than 5 has counts, so every bit is that of max_order 5
    rng = np.random.default_rng(8)
    train = [tuple(rng.integers(0, 40, 6).tolist())]
    target = rng.integers(0, 40, 1200).tolist()
    deep, shallow = train_ppm(train, 5000, range(40)), train_ppm(train, 5, range(40))
    assert information_content(deep, target) == information_content(shallow, target)
    assert predict_distribution(deep, target) == predict_distribution(shallow, target)


def test_memory_does_not_grow_with_unread_contexts():
    # building all 179,034 contexts of one 600-symbol sequence at max_order
    # 599 takes 387 MiB; a target that shares no long context with it reads 189
    rng = np.random.default_rng(3)
    train, target = rng.integers(0, 40, 600).tolist(), rng.integers(0, 40, 600).tolist()
    tracemalloc.start()
    try:
        information_content(train_ppm([train], 599, range(40)), target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_memory_stays_linear_in_the_contexts_a_target_reads():
    # a target that is its own training sequence reads every suffix of every
    # context, 19,727 contexts of up to 199 codes; one trie entry each takes
    # 13.7 MiB, and keying each on its whole tuple of codes took 31.6 MiB
    seq = np.random.default_rng(3).integers(0, 40, 200).tolist()
    tracemalloc.start()
    try:
        information_content(train_ppm([seq], 199, range(40)), seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_symbol_outside_alphabet_rejected():
    with pytest.raises(MelicError, match="training symbol 'z' outside"):
        train_ppm([("a", "z")], max_order=1, alphabet="ab")
    model = train_ppm([("a", "b")], max_order=1, alphabet="ab")
    with pytest.raises(MelicError, match="^symbol 'z' outside model alphabet$"):
        information_content(model, ("z",))
    # a context symbol the model cannot code is an error, not a shorter context
    for context in (("z",), ("a", "z"), ("z", "a")):
        with pytest.raises(MelicError, match="context symbol 'z' outside model alphabet"):
            predict_distribution(model, context)


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
    with pytest.raises(MelicError, match="^empty sequence$"):
        information_content(model, ())


def make_corpus(pitch_rows):
    return corpus_of([melody_from_pitches(f"m{i}", row) for i, row in enumerate(pitch_rows)])


def test_within_corpus_requires_enough_melodies():
    corpus = make_corpus([[60, 62, 64]] * 5)
    with pytest.raises(MelicError, match="needs at least 11 melodies, has "):
        within_corpus_repetition(corpus, n_train=10)


def test_within_corpus_empty_targets_are_left_out():
    corpus = make_corpus([[60, 62, 64, 65]] * 3 + [[67]])
    res = within_corpus_repetition(corpus, n_train=2, n_shuffle_reps=2, seed=1)
    assert res.left_out == (("m3", "empty mint sequence"),)
    assert [t[0] for t in res.per_target] == ["m0", "m1", "m2"]
    with pytest.raises(MelicError, match="no melody"):
        within_corpus_repetition(make_corpus([[60]] * 4), n_train=2)


def test_within_corpus_undefined_viewpoint_is_left_out():
    # IOI is undefined on a one-note melody; it stays in the training pool
    # (n_train=3 draws from all three other melodies) but is not a target
    corpus = make_corpus([[60, 62, 64, 65]] * 3 + [[67]])
    res = within_corpus_repetition(corpus, kind=ViewpointKind.IOI, n_train=3, n_shuffle_reps=2, seed=1)
    assert res.left_out == (("m3", "melody 'm3': IOI needs at least 2 note onsets"),)
    assert [t[0] for t in res.per_target] == ["m0", "m1", "m2"]


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


def _planted_corpus(share, rng):
    # 20 melodies of 50 notes, each 8-step segment one of 4 fixed phrases with
    # probability share, otherwise a fresh random walk of steps -3..3
    phrases = rng.integers(-3, 4, (4, 8))
    rows = []
    for _ in range(20):
        steps = [phrases[rng.integers(4)] if rng.random() < share else rng.integers(-3, 4, 8) for _ in range(7)]
        rows.append(60 + np.cumsum(np.concatenate([[0], *steps])[:50]))
    return make_corpus(rows)


def test_within_corpus_repetition_rises_with_the_planted_phrase_share():
    # the steps of fresh walks are independent, so shuffling them costs nothing:
    # all the measured repetition comes from the planted phrases
    bits = [
        within_corpus_repetition(_planted_corpus(share, np.random.default_rng(0)), seed=0).repetition_bits
        for share in (0, 0.5, 1)
    ]
    assert abs(bits[0]) < 0.1
    assert bits[0] < bits[1] < bits[2]
