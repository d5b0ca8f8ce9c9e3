"""Corpus parsing, serialization round-trips, table output, and guards on the
package surface: one error type, and no export that nothing reaches."""

import importlib
import inspect
import json
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import melic
from melic.corpus import (
    Corpus,
    CorpusMeta,
    MelicError,
    Melody,
    NoteEvent,
    _check_text,
    _is_int,
    _json,
    parse_canonical,
    serialize_canonical,
    write_table,
)

CANONICAL = {
    "corpus_id": "demo",
    "type": "Folk",
    "region": "nowhere",
    "composer_birth_year": None,
    "melodies": [
        {
            "id": "m1",
            "key": 7,
            "notes": [
                {"pitch": 60, "onset": "0/1", "duration": "1/2"},
                {"pitch": None, "onset": "1/2", "duration": "1/4"},
                {"pitch": 62, "onset": "3/4", "duration": "3/4"},
            ],
        }
    ],
}


def test_parse_canonical_basic():
    corpus = parse_canonical(json.dumps(CANONICAL))
    assert corpus.meta.corpus_id == "demo"
    m = corpus.melodies[0]
    assert m.key_annotation == 7
    assert m.events[0].duration == Fraction(1, 2)
    assert m.events[1].is_rest
    assert m.events[2].onset == Fraction(3, 4)


def test_round_trip():
    corpus = parse_canonical(json.dumps(CANONICAL))
    again = parse_canonical(serialize_canonical(corpus))
    assert again == corpus


def test_parse_accepts_bytes():
    corpus = parse_canonical(json.dumps(CANONICAL).encode("utf-8"))
    assert corpus.meta.corpus_id == "demo"


def test_malformed_json_reports_position():
    with pytest.raises(MelicError, match=r"line \d+, column \d+"):
        parse_canonical('{"corpus_id": "x",')


def test_json_nested_too_deeply_is_an_error():
    # the json module decodes nested arrays by recursion
    with pytest.raises(MelicError, match="^malformed corpus file: JSON nested too deeply$"):
        parse_canonical("[" * 200000)


def test_missing_field():
    bad = dict(CANONICAL)
    del bad["melodies"]
    with pytest.raises(MelicError, match="melodies"):
        parse_canonical(json.dumps(bad))


def test_bad_rational():
    bad = json.loads(json.dumps(CANONICAL))
    bad["melodies"][0]["notes"][0]["onset"] = "1/0"
    with pytest.raises(MelicError, match="rational"):
        parse_canonical(json.dumps(bad))


def test_float_pitch_rejected():
    bad = json.loads(json.dumps(CANONICAL))
    bad["melodies"][0]["notes"][0]["pitch"] = 60.5
    with pytest.raises(MelicError, match="pitch"):
        parse_canonical(json.dumps(bad))


def _with(path, value):
    # CANONICAL with the value at path (keys and list indices) replaced
    obj = json.loads(json.dumps(CANONICAL))
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    if last is None:
        return json.dumps(value)
    target[last] = value
    return json.dumps(obj)


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((None,), [], "a corpus file must be a JSON object, got []"),
        ((None,), "demo", "a corpus file must be a JSON object, got 'demo'"),
        (("corpus_id",), 5, "corpus_id must be a string, got 5"),
        (("melodies",), 5, "melodies must be a JSON array, got 5"),
        (("melodies", 0), "m1", "a melody must be a JSON object, got 'm1'"),
        (("melodies", 0, "notes"), {"pitch": 60}, "melody 'm1' notes must be a JSON array, got {'pitch': 60}"),
        (("melodies", 0, "notes", 1), 62, "melody 'm1' note must be a JSON object, got 62"),
        (("melodies", 0, "notes", 1), [62, "1/2", "1/4"], "melody 'm1' note must be a JSON object, got [62, '1/2', '1/4']"),
        (("melodies", 0, "key"), "C", "melody 'm1': key annotation must be a chroma class 0-11"),
        (("melodies", 0, "key"), 7.5, "melody 'm1': key annotation must be a chroma class 0-11"),
        (("melodies", 0, "id"), ["m", 1], "melody id must be a string or an integer, got ['m', 1]"),
        (("melodies", 0, "id"), None, "melody id must be a string or an integer, got None"),
        # JSON true is not the integer 1
        (("melodies", 0, "notes", 0, "pitch"), True, "melody 'm1': pitch must be an integer or null"),
        (("melodies", 0, "key"), True, "melody 'm1': key annotation must be a chroma class 0-11"),
        (("melodies", 0, "id"), True, "melody id must be a string or an integer, got True"),
        (("composer_birth_year",), True, "composer_birth_year must be an integer or null, got True"),
    ],
)
def test_valid_json_of_the_wrong_shape_is_a_corpus_error(path, value, message):
    with pytest.raises(MelicError, match=f"^{re.escape(message)}$"):
        parse_canonical(_with(path, value))


# --- oracle: the per-note parser, with Melody's checks as Fraction comparisons --

def _oracle_rational(s, where):
    if not isinstance(s, str):
        raise MelicError(f"{where}: rational must be a 'p/q' string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise MelicError(f"{where}: bad rational {s!r} ({exc})") from exc


def _oracle_melody(mid, events, key):
    """Melody's checks, in its order, on Fraction comparisons; an
    (id, events, key) tuple, so no check of Melody's own runs."""
    _check_text(mid, "melody id")
    if not any(not e.is_rest for e in events):
        raise MelicError(f"melody {mid!r}: needs at least one non-rest event")
    prev = None
    for e in events:
        if e.duration <= 0:
            raise MelicError(f"melody {mid!r}: duration must be positive")
        if prev is not None and e.onset < prev:
            raise MelicError(f"melody {mid!r}: onsets must be nondecreasing")
        prev = e.onset
    if key is not None and not (_is_int(key) and 0 <= key < 12):
        raise MelicError(f"melody {mid!r}: key annotation must be a chroma class 0-11")
    return mid, events, key


def oracle_parse(text: str):
    """parse_canonical on valid JSON, one Fraction per note field: the corpus
    as (meta, melodies), each melody an (id, events, key) tuple."""
    obj = json.loads(text)
    try:
        meta = CorpusMeta(
            corpus_id=_json(obj, dict, "a corpus file")["corpus_id"],
            type=obj["type"],
            region=obj.get("region", ""),
            composer_birth_year=obj.get("composer_birth_year"),
        )
        melodies = []
        for mel in _json(obj["melodies"], list, "melodies"):
            mid = _json(mel, dict, "a melody")["id"]
            if not (isinstance(mid, str) or _is_int(mid)):
                raise MelicError(f"melody id must be a string or an integer, got {mid!r:.40}")
            events = []
            for note in _json(mel["notes"], list, f"melody {mid!r} notes"):
                pitch = _json(note, dict, f"melody {mid!r} note")["pitch"]
                if pitch is not None and not _is_int(pitch):
                    raise MelicError(f"melody {mid!r}: pitch must be an integer or null")
                events.append(
                    NoteEvent(
                        pitch=pitch,
                        onset=_oracle_rational(note["onset"], f"melody {mid!r} onset"),
                        duration=_oracle_rational(note["duration"], f"melody {mid!r} duration"),
                    )
                )
            melodies.append(_oracle_melody(mid, tuple(events), mel.get("key")))
    except KeyError as exc:
        raise MelicError(f"missing required field {exc.args[0]!r}") from exc
    if not melodies:
        raise MelicError(f"corpus {meta.corpus_id!r}: empty")
    if len({m[0] for m in melodies}) != len(melodies):
        raise MelicError(f"corpus {meta.corpus_id!r}: melody ids must be unique")
    return meta, tuple(melodies)


def _outcome(parse, text):
    try:
        return parse(text)
    except MelicError as exc:
        return f"error: {exc}"


# equal values spelled apart, unreduced and signed strings, and zero
_TIMES = ["0", "0/1", "-0", "0/3", "1/2", "2/4", " 1/2", "+1/2", "-1/2", "1", "3/2", "6/4", "1.5", "7/3"]
_POSITIVE = [t for t in _TIMES if Fraction(t) > 0]
_NOT_TIMES = ["1/0", "x", "", 1, [1], None]


@st.composite
def _time_corpora(draw):
    melodies = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 5))
        onsets = draw(st.lists(st.sampled_from(_TIMES), min_size=n, max_size=n))
        if draw(st.booleans()):
            onsets.sort(key=Fraction)  # nondecreasing, with equal onsets spelled alike or apart
        durations = draw(st.lists(st.sampled_from(_POSITIVE if draw(st.booleans()) else _TIMES), min_size=n, max_size=n))
        pitches = draw(st.lists(st.sampled_from([60, 62, None]), min_size=n, max_size=n))
        notes = [{"pitch": p, "onset": o, "duration": d} for p, o, d in zip(pitches, onsets, durations)]
        if draw(st.integers(0, 3)) == 0:
            notes[draw(st.integers(0, n - 1))][draw(st.sampled_from(["onset", "duration"]))] = draw(st.sampled_from(_NOT_TIMES))
        melodies.append({"id": f"m{draw(st.integers(0, i))}", "notes": notes})
    return json.dumps({"corpus_id": "c", "type": "Folk", "melodies": melodies})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_time_corpora())
def test_parse_canonical_matches_the_per_note_oracle(text):
    got = _outcome(parse_canonical, text)
    if isinstance(got, Corpus):
        got = got.meta, tuple((m.id, m.events, m.key_annotation) for m in got.melodies)
    assert got == _outcome(oracle_parse, text)


def test_notes_that_spell_one_time_string_share_one_fraction():
    corpus = parse_canonical(json.dumps(CANONICAL))
    first, rest, _ = corpus.melodies[0].events
    assert first.duration is rest.onset  # both spell "1/2"


def test_unknown_corpus_type():
    with pytest.raises(MelicError, match="type"):
        CorpusMeta(corpus_id="x", type="Pop")


def test_melody_invariants():
    with pytest.raises(MelicError, match="non-rest"):
        Melody(id="r", events=(NoteEvent(None, Fraction(0), Fraction(1)),))
    with pytest.raises(MelicError, match="positive"):
        Melody(id="d", events=(NoteEvent(60, Fraction(0), Fraction(0)),))
    with pytest.raises(MelicError, match="nondecreasing"):
        Melody(
            id="o",
            events=(
                NoteEvent(60, Fraction(1), Fraction(1)),
                NoteEvent(62, Fraction(0), Fraction(1)),
            ),
        )
    with pytest.raises(MelicError, match="chroma"):
        Melody(id="k", events=(NoteEvent(60, Fraction(0), Fraction(1)),), key_annotation=12)


def test_corpus_invariants():
    meta = CorpusMeta(corpus_id="c", type="Art")
    m = Melody(id="m", events=(NoteEvent(60, Fraction(0), Fraction(1)),))
    with pytest.raises(MelicError, match="empty"):
        Corpus(meta=meta, melodies=())
    with pytest.raises(MelicError, match="unique"):
        Corpus(meta=meta, melodies=(m, m))


def test_melic_has_one_error_type():
    # __main__ is skipped: importing it runs the CLI
    modules = [importlib.import_module(f"melic.{m.name}") for m in pkgutil.iter_modules(melic.__path__) if m.name != "__main__"]
    defined = {
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__.startswith("melic")
    }
    assert defined == {MelicError}


def test_every_export_is_reached_beyond_its_own_definition():
    # an export counts as reached when a command, an acceptance criterion or
    # the benchmark names it: another melic module, the acceptance suite or a
    # perfbench file, not counting the def or class line that defines it
    root = Path(__file__).resolve().parents[1]
    files = [
        *(f for f in (root / "src" / "melic").glob("*.py") if f.name != "__init__.py"),
        root / "tests" / "test_acceptance.py",
        *(root / "perfbench").glob("*.py"),
    ]
    lines = [line for f in files for line in f.read_text().splitlines()]

    def reached(name):
        return any(
            re.search(rf"\b{name}\b", line) and not re.match(rf"\s*(def|class) {name}\b", line) for line in lines
        )

    exports = sorted(name for name, value in vars(melic).items() if callable(value) and not name.startswith("_"))
    assert [name for name in exports if not reached(name)] == []


# --- table output -----------------------------------------------------------

def test_write_table_csv():
    rows = [("a", 0.123456789, None), ("b", 2.0, 3)]
    out = write_table(["id", "x", "y"], rows, "csv").decode()
    assert out.splitlines() == ["id,x,y", "a,0.123457,", "b,2.0,3"]


def test_write_table_json_round_trips():
    assert json.loads(write_table(["id", "x"], [("a", 1.5)], "json")) == [{"id": "a", "x": 1.5}]


def test_write_table_empty_with_schema():
    assert write_table(["id", "x"], [], "csv").decode() == "id,x\n"


def test_write_table_schema_mismatch():
    # a row whose length differs from the schema's is a bug in the caller
    for fmt in ("csv", "json"):
        for rows in ([("a", 1), ("b",)], [("a", 1, 2)]):
            with pytest.raises(ValueError, match=f"a row of {len(rows[-1])} values for the 2 columns"):
                write_table(["id", "x"], rows, fmt)


def test_write_table_unknown_format():
    with pytest.raises(ValueError):
        write_table([], [], "xml")
