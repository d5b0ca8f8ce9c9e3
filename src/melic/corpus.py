"""Corpus ingestion (the canonical JSON format) and table output.

Durations and onsets are exact rationals throughout; the Duration viewpoint's
alphabet depends on exact equality, so floats are never used for time values.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

CORPUS_TYPES = ("Folk", "Art", "Child", "Teaching")


class MelicError(Exception):
    """Input melic cannot analyse: the CLI reports it as `error:` and exits 1,
    or, raised for one melody, skips that melody with a warning."""


def _is_int(value) -> bool:
    """An integer, but not a bool (an int subclass): JSON true is not 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_text(value, field: str) -> None:
    """Reject a string UTF-8 cannot encode: a JSON escape such as "\\ud800"
    decodes to a lone surrogate, which a CSV table cannot write."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise MelicError(f"{field} must be UTF-8 text, got {value!r:.40}") from None


@dataclass(frozen=True)
class NoteEvent:
    """A single note or rest. pitch is a MIDI semitone (69 = A4), None marks a rest."""

    pitch: int | None
    onset: Fraction
    duration: Fraction

    @property
    def is_rest(self) -> bool:
        return self.pitch is None


@dataclass(frozen=True)
class CorpusMeta:
    corpus_id: str
    type: str
    region: str = ""
    composer_birth_year: int | None = None

    def __post_init__(self):
        if not isinstance(self.corpus_id, str):
            raise MelicError(f"corpus_id must be a string, got {self.corpus_id!r:.40}")
        _check_text(self.corpus_id, "corpus_id")
        _check_text(self.region, "region")
        if self.composer_birth_year is not None and not _is_int(self.composer_birth_year):
            raise MelicError(f"composer_birth_year must be an integer or null, got {self.composer_birth_year!r:.40}")
        if self.type not in CORPUS_TYPES:
            raise MelicError(
                f"corpus {self.corpus_id!r}: type must be one of {CORPUS_TYPES}, got {self.type!r}"
            )


@dataclass(frozen=True)
class Melody:
    id: str
    events: tuple[NoteEvent, ...]
    key_annotation: int | None = None

    def __post_init__(self):
        _check_text(self.id, "melody id")
        if not any(not e.is_rest for e in self.events):
            raise MelicError(f"melody {self.id!r}: needs at least one non-rest event")
        # exact comparisons on the numerator and the positive denominator, which
        # ints have too; an onset that is the previous one's own object (one
        # parsed time string) needs none
        prev = self.events[0].onset
        for e in self.events:
            if e.duration.numerator <= 0:
                raise MelicError(f"melody {self.id!r}: duration must be positive")
            onset = e.onset
            if onset is not prev and onset.numerator * prev.denominator < prev.numerator * onset.denominator:
                raise MelicError(f"melody {self.id!r}: onsets must be nondecreasing")
            prev = onset
        key = self.key_annotation
        if key is not None and not (_is_int(key) and 0 <= key < 12):
            raise MelicError(f"melody {self.id!r}: key annotation must be a chroma class 0-11")


@dataclass(frozen=True)
class Corpus:
    meta: CorpusMeta
    melodies: tuple[Melody, ...]

    def __post_init__(self):
        if not self.melodies:
            raise MelicError(f"corpus {self.meta.corpus_id!r}: empty")
        ids = [m.id for m in self.melodies]
        if len(set(ids)) != len(ids):
            raise MelicError(f"corpus {self.meta.corpus_id!r}: melody ids must be unique")


def _parse_time(s, times: dict, mid, field: str) -> Fraction:
    """The Fraction that time string s spells, stored in times under s: a
    note's onset or duration (field) in melody mid, where times has no s."""
    if not isinstance(s, str):
        raise MelicError(f"melody {mid!r} {field}: rational must be a 'p/q' string, got {s!r}")
    try:
        t = times[s] = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise MelicError(f"melody {mid!r} {field}: bad rational {s!r} ({exc})") from exc
    return t


def _json(value, kind: type, what: str, *args):
    """value, checked to be a JSON object (kind dict) or array (kind list);
    what.format(*args) names it in the error."""
    if not isinstance(value, kind):
        what = what.format(*args)
        raise MelicError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, got {value!r:.40}")
    return value


def parse_canonical(data: bytes | str) -> Corpus:
    """Parse the canonical utf-8 JSON corpus format.

    Each distinct onset or duration string of the file is parsed once, and
    every note that spells it shares that one Fraction."""
    try:
        obj = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise MelicError(f"corpus file is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MelicError(f"malformed corpus file at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise MelicError("malformed corpus file: JSON nested too deeply") from None
    except ValueError:  # json.loads' one other ValueError: int() of an over-long literal
        raise MelicError(f"malformed corpus file: an integer has over {sys.get_int_max_str_digits()} digits") from None
    times: dict[str, Fraction] = {}
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
            for note in _json(mel["notes"], list, "melody {!r} notes", mid):
                pitch = _json(note, dict, "melody {!r} note", mid)["pitch"]
                if pitch is not None and not _is_int(pitch):
                    raise MelicError(f"melody {mid!r}: pitch must be an integer or null")
                # only a str is looked up (a list cannot be a key); _parse_time rejects the rest
                s = note["onset"]
                onset = times.get(s) if type(s) is str else None
                if onset is None:
                    onset = _parse_time(s, times, mid, "onset")
                s = note["duration"]
                duration = times.get(s) if type(s) is str else None
                if duration is None:
                    duration = _parse_time(s, times, mid, "duration")
                events.append(NoteEvent(pitch, onset, duration))
            melodies.append(Melody(id=mid, events=tuple(events), key_annotation=mel.get("key")))
    except KeyError as exc:
        raise MelicError(f"missing required field {exc.args[0]!r}") from exc
    return Corpus(meta=meta, melodies=tuple(melodies))


def serialize_canonical(corpus: Corpus) -> str:
    """Serialize to the canonical format; parse_canonical(serialize(c)) round-trips."""
    obj = {
        "corpus_id": corpus.meta.corpus_id,
        "type": corpus.meta.type,
        "region": corpus.meta.region,
        "composer_birth_year": corpus.meta.composer_birth_year,
        "melodies": [
            {
                "id": m.id,
                "key": m.key_annotation,
                "notes": [
                    {
                        "pitch": e.pitch,
                        "onset": f"{e.onset.numerator}/{e.onset.denominator}",
                        "duration": f"{e.duration.numerator}/{e.duration.denominator}",
                    }
                    for e in m.events
                ],
            }
            for m in corpus.melodies
        ],
    }
    return json.dumps(obj, indent=1)


# --- table output ----------------------------------------------------------

def _fmt_value(v):
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return float(f"{v:.6g}")
    return v


def write_table(schema: list[str], rows: list, format: str = "csv") -> bytes:
    """Serialize rows, each a sequence of values in schema order: a CSV whose
    header is the schema, or a JSON list of objects keyed by it. Floats use 6
    significant digits; row order is kept. A row whose length differs from
    the schema's is a bug in the caller, so a ValueError, not a MelicError.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    for r in rows:
        if len(r) != len(schema):
            raise ValueError(f"a row of {len(r)} values for the {len(schema)} columns {schema}")
    if format == "json":
        objects = [{k: _fmt_value(v) for k, v in zip(schema, r)} for r in rows]
        return (json.dumps(objects, indent=1) + "\n").encode("utf-8")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema)
    for r in rows:
        writer.writerow(["" if (v := _fmt_value(x)) is None else v for x in r])
    return buf.getvalue().encode("utf-8")
