"""End-to-end CLI behaviour: outputs, error handling, determinism."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melic import genmodel
from melic.cli import build_parser, main
from melic.corpus import Melody, NoteEvent, serialize_canonical
from melic.viewpoints import ViewpointKind

from conftest import corpus_of, melody_from_pitches


@pytest.fixture
def corpus_file(tmp_path):
    rng = np.random.default_rng(0)
    mels = [
        melody_from_pitches(
            f"m{i:02d}",
            list(60 + np.cumsum(rng.integers(-4, 5, 25))),
            [[1, "1/2", 2][int(d)] for d in rng.integers(0, 3, 25)],
        )
        for i in range(15)
    ]
    path = tmp_path / "fixture.json"
    path.write_text(serialize_canonical(corpus_of(mels)))
    return path


def run(args, out_path):
    rc = main([*args, "--out", str(out_path)])
    return rc, out_path.read_bytes()


def rows_of(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


def test_entropy_command(tmp_path, corpus_file):
    rc, data = run(["entropy", "--viewpoint", "chroma", str(corpus_file)], tmp_path / "o.csv")
    assert rc == 0
    rows = rows_of(data)
    assert len(rows) == 15
    assert {"id", "A", "H"} <= set(rows[0])
    for r in rows:
        assert 0.0 <= float(r["H"]) <= np.log2(int(r["A"])) + 1e-9


def test_gini_command_json(tmp_path, corpus_file):
    rc, data = run(
        ["gini", "--viewpoint", "duration", "--format", "json", str(corpus_file)],
        tmp_path / "o.json",
    )
    assert rc == 0
    rows = json.loads(data)
    assert all(0.0 <= r["G"] < 1.0 for r in rows)


def test_viewpoints_command(tmp_path, corpus_file):
    rc, data = run(["viewpoints", "--kind", "mint", str(corpus_file)], tmp_path / "o.csv")
    assert rc == 0
    rows = rows_of(data)
    assert len(rows[0]["symbols"].split()) == 24


def test_repetition_command(tmp_path, corpus_file):
    rc, data = run(["repetition", "--viewpoint", "chroma", str(corpus_file)], tmp_path / "o.csv")
    assert rc == 0
    for r in rows_of(data):
        assert int(r["L_NR"]) <= int(r["L"])
        assert 0.0 <= float(r["fraction"]) < 1.0


def test_totalinfo_command(tmp_path, corpus_file):
    rc, data = run(["totalinfo", str(corpus_file)], tmp_path / "o.csv")
    assert rc == 0
    for r in rows_of(data):
        assert float(r["T"]) == pytest.approx(float(r["H_joint"]) * int(r["L_NR"]), rel=1e-4)


def test_mi_requires_seed(corpus_file):
    with pytest.raises(SystemExit):
        main(["mi", str(corpus_file)])


def test_mi_deterministic(tmp_path, corpus_file):
    a = run(["mi", "--seed", "7", str(corpus_file)], tmp_path / "a.csv")[1]
    b = run(["mi", "--seed", "7", str(corpus_file)], tmp_path / "b.csv")[1]
    c = run(["mi", "--seed", "8", str(corpus_file)], tmp_path / "c.csv")[1]
    assert a == b
    assert a != c


def test_ppm_repetition_threads_invariant(tmp_path, corpus_file):
    base = ["ppm-repetition", "--seed", "3", "--n-train", "5", "--shuffle-reps", "3", str(corpus_file)]
    a = run([*base, "--threads", "1"], tmp_path / "a.csv")[1]
    b = run([*base, "--threads", "4"], tmp_path / "b.csv")[1]
    assert a == b
    row = rows_of(a)[0]
    assert {"corpus", "mean_IC", "mean_IC_r", "repetition_bits"} <= set(row)


def test_summary_sorted_and_columns(tmp_path, corpus_file):
    from melic.corpus import Corpus, CorpusMeta

    # second corpus sorting before the fixture alphabetically
    first = Corpus(
        meta=CorpusMeta(corpus_id="aaa", type="Child"),
        melodies=(melody_from_pitches("solo", [60]),),
    )
    p2 = tmp_path / "aaa.json"
    p2.write_text(serialize_canonical(first))
    rc, data = run(["summary", str(p2), str(corpus_file)], tmp_path / "o.csv")
    assert rc == 0
    rows = rows_of(data)
    assert [r["corpus"] for r in rows] == ["aaa", "fixture"]
    solo = rows[0]
    assert float(solo["H_chroma"]) == 0.0
    assert float(solo["mean_length"]) == 1.0
    assert float(solo["mean_L_NR"]) == 1.0
    assert float(solo["mean_T"]) == 0.0


def test_summary_handles_single_note_melodies(tmp_path):
    corpus = corpus_of(
        [melody_from_pitches("good", [60, 62, 64, 65]), melody_from_pitches("lone", [60])]
    )
    p = tmp_path / "c.json"
    p.write_text(serialize_canonical(corpus))
    rc, data = run(["summary", str(p)], tmp_path / "o.csv")
    assert rc == 0
    assert len(rows_of(data)) == 1


def test_summary_is_the_mean_of_the_per_melody_commands_rows(tmp_path, corpus_file):
    from melic.corpus import Corpus, CorpusMeta

    rng = np.random.default_rng(1)
    mels = [
        melody_from_pitches(f"a{i}", list(rng.integers(55, 70, 12)), [[1, "3/2", "1/4"][d] for d in rng.integers(0, 3, 12)])
        for i in range(11)
    ]
    art_file = tmp_path / "aaa.json"
    art_file.write_text(serialize_canonical(Corpus(meta=CorpusMeta(corpus_id="aaa", type="Art"), melodies=tuple(mels))))
    parser = build_parser()

    def rows(*argv):
        args = parser.parse_args(list(argv))
        return [dict(zip(args.schema, row)) for row in args.func(args)]

    summary = rows("summary", str(corpus_file), str(art_file))
    assert [r["corpus"] for r in summary] == ["aaa", "fixture"]
    for row, path in zip(summary, (str(art_file), str(corpus_file))):
        def mean(column, *argv):
            return float(np.mean([r[column] for r in rows(*argv, path)]))

        assert row["H_chroma"] == mean("H", "entropy", "--viewpoint", "chroma")
        assert row["H_dur"] == mean("H", "entropy", "--viewpoint", "duration")
        assert row["H_chroma_dur"] == mean("H_joint", "totalinfo")
        assert row["mean_L_NR"] == mean("L_NR", "totalinfo")
        assert row["mean_T"] == mean("T", "totalinfo")
        assert row["mean_length"] == mean("L", "repetition", "--viewpoint", "chroma")


HEADERS = {
    "viewpoints": "id,symbols",
    "entropy": "id,A,H",
    "gini": "id,A,H,G",
    "mi": "id,I,I_ran,I_star",
    "repetition": "id,L,L_NR,fraction",
    "totalinfo": "id,H_joint,L_NR,T",
    "summary": "corpus,H_chroma,H_dur,H_chroma_dur,mean_length,mean_L_NR,mean_T",
    "ppm-repetition": "corpus,mean_IC,mean_IC_r,repetition_bits",
    "genmodel scale": "A,n_samples,P_below,P_below_se,logL",
    "genmodel pitch": "model,A,L,O,exponent,JSD",
    "genmodel rhythm": "model,A,L,exponent,JSD",
    "similarity": "corpus,n_matches,expected_paper,expected_fixed_query,enrichment",
    "null-joint": "null_variance,empirical_variance,ratio,degenerate",
    "subsample-corr": "mean_r,ci_low,ci_high",
}


@pytest.mark.parametrize("command", list(HEADERS))
def test_every_command_writes_its_header_and_json_keys(tmp_path, corpus_file, command):
    means = tmp_path / "means.csv"
    make_means_csv(means, [[f"c{i}", f"r{i % 2}", "Folk", 2 + 0.1 * i, 1 + 0.01 * i * i, 0.1] for i in range(6)])
    intervals = write_distribution(tmp_path / "intervals.csv", [(-1, 0.5), (1, 0.5)])
    lengths = write_distribution(tmp_path / "lengths.csv", [(5, 1.0)])
    argv = {
        "mi": ["--seed", "1", "--shuffles", "2", str(corpus_file)],
        "ppm-repetition": ["--seed", "1", "--n-train", "2", "--shuffle-reps", "1", str(corpus_file)],
        "genmodel scale": ["--intervals", str(intervals), "--lengths", str(lengths), "--n", "100", "--seed", "1"],
        "genmodel pitch": ["--model", "S1", "--grid-a", "4", "--grid-l", "10", "--grid-o", "1", "--grid-exp", "1",
                           "--n-per-setting", "5", "--seed", "1", str(corpus_file)],
        "genmodel rhythm": ["--model", "SI1", "--grid-a", "3", "--grid-l", "10", "--grid-exp", "1",
                            "--n-per-setting", "5", "--seed", "1", str(corpus_file)],
        "similarity": ["--query", str(corpus_file), "--n", "3", str(corpus_file)],
        "null-joint": ["--seed", "1", "--samples", "100", str(means)],
        "subsample-corr": ["--seed", "1", "--max-per-region", "2", "--resamples", "10", str(means)],
    }.get(command, [str(corpus_file)])
    argv = [*command.split(), *argv]
    rc, data = run(argv, tmp_path / "o.csv")
    lines = data.decode().splitlines()
    assert rc == 0 and lines[0] == HEADERS[command] and len(lines) > 1
    rc, data = run([*argv, "--format", "json"], tmp_path / "o.json")
    assert rc == 0 and [list(row) for row in json.loads(data)] == [HEADERS[command].split(",")] * (len(lines) - 1)


@pytest.mark.parametrize(
    "argv, n_rows",
    [
        (["viewpoints", "--kind", "ioi"], 0),
        (["entropy", "--viewpoint", "ioi"], 0),
        (["gini", "--viewpoint", "ioi"], 0),
        (["mi", "--seed", "1", "--rhythm-kind", "ioi"], 0),
        (["repetition", "--viewpoint", "mint"], 0),
        (["totalinfo"], 1),
        (["summary"], 1),
    ],
)
def test_a_run_that_skips_every_melody_writes_the_header(tmp_path, capsys, argv, n_rows):
    lone = write_corpus(tmp_path / "lone.json", [melody_from_pitches("lone", [67])])
    rc, data = run([*argv, str(lone)], tmp_path / "o.csv")
    assert rc == 0
    lines = data.decode().splitlines()
    assert lines[0] == HEADERS[argv[0]] and len(lines) == 1 + n_rows
    assert len(capsys.readouterr().err.splitlines()) == (0 if n_rows else 2)


def test_directory_input(tmp_path, corpus_file):
    rc, data = run(["entropy", str(corpus_file.parent)], tmp_path / "o.csv")
    assert rc == 0
    assert len(rows_of(data)) == 15


def test_missing_file_exit_code(tmp_path):
    assert main(["entropy", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")]) == 1


def test_malformed_corpus_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["entropy", str(bad), "--out", str(tmp_path / "o.csv")]) == 1


def test_corpus_nested_too_deeply_is_an_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    expect_error(capsys, ["entropy", str(deep), "--out", str(tmp_path / "o.csv")], "nested too deeply")


def _edited_corpus(path, old: str, new: str, encoding: str = "utf-8"):
    """A one-melody corpus file whose JSON text has old replaced by new."""
    text = serialize_canonical(corpus_of([melody_from_pitches("m0", [60, 62, 64])]))
    assert old in text
    path.write_bytes(text.replace(old, new).encode(encoding))
    return path


@pytest.mark.parametrize(
    "old, new, encoding, fragment",
    [
        ('"m0"', '"caf\u00e9"', "latin-1", "not UTF-8"),
        ('"pitch": 60', '"pitch": ' + "1" * 5000, "utf-8", f"an integer has over {sys.get_int_max_str_digits()} digits"),
        ('"type": "Folk"', '"type": "Jazz"', "utf-8", "type must be one of"),
    ],
    ids=["latin-1 id", "5000-digit pitch", "unknown type"],
)
def test_corpus_file_errors_name_the_file(tmp_path, capsys, corpus_file, old, new, encoding, fragment):
    bad = _edited_corpus(tmp_path / "bad-corpus.json", old, new, encoding)
    expect_error(capsys, ["entropy", str(corpus_file), str(bad)], f"error: {bad}: ", fragment)
    expect_error(capsys, ["similarity", "--query", str(bad), str(corpus_file)], f"error: {bad}: ", fragment)


@pytest.mark.parametrize("field, old", [("corpus_id", '"corpus_id": "'), ("region", '"region": "'), ("melody id", '"id": "')])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_lone_surrogate_is_an_error_naming_the_field(tmp_path, capsys, field, old, fmt):
    # "\ud800" is valid JSON but decodes to a string UTF-8 cannot encode
    bad = _edited_corpus(tmp_path / "surrogate.json", old, old + "\\ud800")
    expect_error(capsys, ["entropy", "--format", fmt, str(bad)], str(bad), f"{field} must be UTF-8 text")


def make_means_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["corpus_id", "region", "type", "H_chroma", "H_duration", "I_chroma_duration"])
        w.writerows(rows)


@pytest.mark.parametrize("samples", ["10000001", "1000000000000000", "99999999999999999999"])
def test_null_joint_samples_above_the_limit_is_an_error(tmp_path, capsys, samples):
    means = tmp_path / "means.csv"
    make_means_csv(means, [[f"c{i}", "r", "Folk", 2 + 0.1 * i, 1 + 0.01 * i * i, 0.1] for i in range(4)])
    argv = ["null-joint", "--seed", "1", "--samples", samples, str(means)]
    expect_error(capsys, argv, f"n_samples must be <= 10000000, got {samples}")


def test_null_joint_command(tmp_path):
    means = tmp_path / "means.csv"
    rng = np.random.default_rng(1)
    make_means_csv(
        means,
        [[f"c{i}", f"r{i % 3}", "Folk", 2 + x, 1 + y, 0.1 * z] for i, (x, y, z) in enumerate(rng.random((20, 3)))],
    )
    a = run(["null-joint", "--seed", "5", "--samples", "2000", str(means)], tmp_path / "a.csv")[1]
    b = run(["null-joint", "--seed", "5", "--samples", "2000", str(means)], tmp_path / "b.csv")[1]
    assert a == b
    row = rows_of(a)[0]
    assert float(row["ratio"]) > 0


def test_subsample_corr_command(tmp_path):
    means = tmp_path / "means.csv"
    rng = np.random.default_rng(2)
    make_means_csv(
        means,
        [
            [f"c{i}", f"r{i % 4}", "Folk", h, 4 - h + 0.1 * e, 0.0]
            for i, (h, e) in enumerate(zip(rng.uniform(1, 3, 24), rng.random(24)))
        ],
    )
    args = ["subsample-corr", "--seed", "4", "--max-per-region", "3", "--resamples", "200", str(means)]
    a = run(args, tmp_path / "a.csv")[1]
    b = run(args, tmp_path / "b.csv")[1]
    assert a == b
    row = rows_of(a)[0]
    assert float(row["mean_r"]) < -0.5


def test_similarity_command(tmp_path, corpus_file):
    rc, data = run(
        ["similarity", "--query", str(corpus_file), "--n", "5", str(corpus_file)],
        tmp_path / "o.csv",
    )
    assert rc == 0
    row = rows_of(data)[0]
    assert int(row["n_matches"]) >= 1


def test_genmodel_scale_command(tmp_path):
    intervals = tmp_path / "intervals.csv"
    with open(intervals, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["symbol", "probability"])
        for d in range(-5, 6):
            w.writerow([d, max(0, 6 - abs(d))])
    lengths = tmp_path / "lengths.csv"
    with open(lengths, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["symbol", "probability"])
        w.writerow([30, 1.0])
    args = [
        "genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths),
        "--n", "30000", "--seed", "2",
    ]
    a = run([*args, "--threads", "1"], tmp_path / "a.csv")[1]
    b = run([*args, "--threads", "4"], tmp_path / "b.csv")[1]
    assert a == b
    rows = rows_of(a)
    assert sum(int(r["n_samples"]) for r in rows) == 30000
    assert all(0.0 <= float(r["P_below"]) <= 1.0 for r in rows)
    for r in rows:  # P_below and its standard error, each to 6 significant digits
        n, p = int(r["n_samples"]), float(r["P_below"])
        se = r["P_below_se"]
        assert se == "" if n < 2 else float(se) ** 2 * n == pytest.approx(p * (1 - p), rel=1e-4, abs=1e-6)


def test_genmodel_scale_standard_error_is_blank_below_two_samples(tmp_path):
    # a length-1 walk always has A = 1 and H = 0
    intervals = write_distribution(tmp_path / "intervals.csv", [(-1, 0.5), (1, 0.5)])
    lengths = write_distribution(tmp_path / "lengths.csv", [(1, 1.0)])
    args = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--seed", "0"]
    for n, se in (("1", ""), ("2", "0.0")):
        rows = rows_of(run([*args, "--n", n], tmp_path / "o.csv")[1])
        assert rows == [{"A": "1", "n_samples": n, "P_below": "1.0", "P_below_se": se, "logL": ""}]


def test_genmodel_pitch_command(tmp_path, corpus_file):
    args = [
        "genmodel", "pitch", "--model", "S1", "--grid-a", "4,6", "--grid-l", "20",
        "--grid-o", "2", "--grid-exp", "1", "--n-per-setting", "20", "--seed", "3",
        str(corpus_file),
    ]
    a = run(args, tmp_path / "a.csv")[1]
    b = run(args, tmp_path / "b.csv")[1]
    assert a == b
    row = rows_of(a)[0]
    assert row["model"] == "S1"
    assert float(row["JSD"]) >= 0.0


def test_genmodel_rhythm_command(tmp_path, corpus_file):
    args = [
        "genmodel", "rhythm", "--model", "SI1", "--grid-a", "3,5", "--grid-l", "20",
        "--grid-exp", "1", "--n-per-setting", "20", "--seed", "3", str(corpus_file),
    ]
    a = run(args, tmp_path / "a.csv")[1]
    b = run(args, tmp_path / "b.csv")[1]
    assert a == b
    assert rows_of(a)[0]["model"] == "SI1"


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_genmodel_rhythm_csv_of_all_16_models_is_the_recorded_one(tmp_path, capsys):
    # rhythm_corpus.json holds melodies whose IOIs are draws of the 16 models
    # at a = 3, 5, 7 (one melody, CI3-1, repeats one IOI and is skipped);
    # genmodel_rhythm.csv is the header and each model's row as recorded
    # when IOIs were Fractions, so the SR/CR and metrical paths are pinned
    # byte for byte, not only the benchmark's SI4
    grid = ["--grid-a", "3,5,7", "--grid-l", "6,16", "--grid-exp", "1,3", "--n-per-setting", "15", "--seed", "5"]
    lines = []
    for model in [vs + str(dist) for vs in genmodel.RHYTHM_VALUE_SETS for dist in (1, 2, 3, 4)]:
        rc, data = run(["genmodel", "rhythm", "--model", model, *grid, str(GOLDEN / "rhythm_corpus.json")], tmp_path / "o.csv")
        assert rc == 0, model
        header, row = data.splitlines(keepends=True)
        lines += [header, row] if not lines else [row]
    assert b"".join(lines) == (GOLDEN / "genmodel_rhythm.csv").read_bytes()
    assert "melody 'CI3-1' skipped: H(IOI) is 0" in capsys.readouterr().err


def test_an_unexpected_exception_is_not_reported_as_an_input_error(tmp_path, capsys, monkeypatch, corpus_file):
    # a ValueError from melic's own code is a bug: it propagates, where an
    # input error is one `error:` line and exit 1
    def broken(*args, **kwargs):
        raise ValueError("a bug")

    monkeypatch.setattr(genmodel, "rhythm_pair", broken)
    argv = ["genmodel", "rhythm", "--model", "SI1", "--grid-a", "3", "--grid-l", "20", "--grid-exp", "1", str(corpus_file)]
    with pytest.raises(ValueError, match="^a bug$"):
        main([*argv, "--seed", "1", "--out", str(tmp_path / "o.csv")])
    assert "error:" not in capsys.readouterr().err


def write_corpus(path, melodies):
    path.write_text(serialize_canonical(corpus_of(melodies)))
    return path


@pytest.fixture
def with_one_note(tmp_path):
    mels = [melody_from_pitches("a", [60, 62, 64, 62]), melody_from_pitches("lone", [67]),
            melody_from_pitches("b", [60, 60, 65], [1, 2, 1])]
    return write_corpus(tmp_path / "one_note.json", mels)


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["entropy", "--viewpoint", "ioi"], "IOI needs at least 2 note onsets"),
        (["mi", "--seed", "1", "--viewpoint", "mint"], "empty sequence"),
    ],
)
def test_degenerate_melody_is_a_reported_skip(tmp_path, capsys, with_one_note, argv, reason):
    rc, data = run([*argv, str(with_one_note)], tmp_path / "o.csv")
    assert rc == 0
    assert [r["id"] for r in rows_of(data)] == ["a", "b"]
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("warning: corpus 'fixture' melody 'lone' skipped: ") and reason in err[0]
    assert err[1:] == ["warning: corpus 'fixture': 1 melodies skipped"]


def expect_error(capsys, argv, *fragments):
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert all(f in err[0] for f in fragments), err[0]


def test_corpus_level_failures_are_errors(tmp_path, capsys, corpus_file):
    small = write_corpus(tmp_path / "small.json", [melody_from_pitches(f"m{i}", [60, 62, 64]) for i in range(5)])
    expect_error(capsys, ["ppm-repetition", "--seed", "1", str(small)], "at least 11 melodies")
    query = write_corpus(tmp_path / "q.json", [melody_from_pitches("q", [60])])
    expect_error(capsys, ["similarity", "--query", str(query), str(corpus_file)], "query shorter")
    # a count the library uses must be >= 1
    means = tmp_path / "means.csv"
    make_means_csv(means, [[f"c{i}", f"r{i % 2}", "Folk", 2 + 0.1 * i, 1 + 0.01 * i * i, 0.1] for i in range(6)])
    pitch = ["genmodel", "pitch", "--model", "S1", "--grid-a", "4", "--grid-l", "20", "--grid-o", "2", "--grid-exp", "1"]
    rhythm = ["genmodel", "rhythm", "--model", "SI1", "--grid-a", "3", "--grid-l", "20", "--grid-exp", "1"]
    for value in ("0", "-1"):
        for argv, name in [
            (["ppm-repetition", "--shuffle-reps", value, str(corpus_file)], "n_shuffle_reps"),
            (["ppm-repetition", "--n-train", value, str(corpus_file)], "n_train"),
            (["subsample-corr", "--max-per-region", "2", "--resamples", value, str(means)], "n_resamples"),
            (["null-joint", "--samples", value, str(means)], "n_samples"),
            ([*pitch, "--n-per-setting", value, str(corpus_file)], "n_per_setting"),
            ([*rhythm, "--n-per-setting", value, str(corpus_file)], "n_per_setting"),
        ]:
            expect_error(capsys, [*argv, "--seed", "1"], f"{name} must be >= 1, got {value}")


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (
            ["genmodel", "pitch", "--model", "S1", "--grid-a", "4", "--grid-l", "20", "--grid-o", "2", "--grid-exp", "1"],
            [(mid, "H(Chroma) is 0, so H(M-Int)/H(Chroma) is undefined")
             for mid in ("flat", "zero", "chord", "two", "tail", "lone")],
        ),
        (
            ["genmodel", "rhythm", "--model", "SI1", "--grid-a", "3", "--grid-l", "20", "--grid-exp", "1"],
            [("even", "H(IOI) is 0, so H(IOI-ratio)/H(IOI) is undefined"),
             ("zero", "degenerate input: zero IOI (simultaneous onsets)"),
             ("chord", "degenerate input: zero IOI (simultaneous onsets)"),
             ("two", "H(IOI) is 0, so H(IOI-ratio)/H(IOI) is undefined"),
             ("lone", "melody 'lone': IOI needs at least 2 note onsets")],
        ),
    ],
)
def test_genmodel_fits_report_melodies_with_zero_base_entropy(tmp_path, capsys, argv, skipped):
    # 'flat' repeats one pitch (H(Chroma) = 0); 'even' has equal IOIs (H(IOI) = 0).
    # 'zero' and 'chord' divide by a zero IOI, also where H(IOI) is 0; 'two' has
    # one IOI and no IOI ratio; 'tail' ends on a zero IOI, which divides nothing
    def flat_at(mid, onsets):
        notes = (NoteEvent(pitch=60, onset=Fraction(o), duration=Fraction(1)) for o in onsets)
        return Melody(id=mid, events=tuple(notes))

    mels = [melody_from_pitches("a", [60, 62, 64, 62, 67], [1, 2, 1, 1, 2]),
            melody_from_pitches("flat", [60, 60, 60, 60], [1, 2, 1, 2]),
            melody_from_pitches("even", [60, 62, 64, 65]),
            flat_at("zero", [0, 0, 1, 3]), flat_at("chord", [0, 0, 0]),
            flat_at("two", [0, 1]), flat_at("tail", [0, 1, 3, 3]),
            melody_from_pitches("lone", [67])]
    corpus = write_corpus(tmp_path / "zero.json", mels)
    rc, data = run([*argv, "--n-per-setting", "5", "--seed", "1", str(corpus)], tmp_path / "o.csv")
    assert rc == 0 and len(rows_of(data)) == 1
    # pitch keeps one melody and rhythm three; no model sequence lands in their histogram bins
    worst = {"pitch": 2, "rhythm": 1}[argv[1]]
    assert capsys.readouterr().err.splitlines() == [
        *(f"warning: corpus 'fixture' melody '{mid}' skipped: {why}" for mid, why in skipped),
        f"warning: corpus 'fixture': {len(skipped)} melodies skipped",
        f"warning: genmodel {argv[1]}: the best JSD is the objective's maximum, {worst}: no grid point fits",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pitch", "--model", "IS2", "--grid-l", "0"], "IS2: sequence length must be >= 2, got 0"),
        (["pitch", "--model", "IS2", "--grid-l", "1"], "IS2: sequence length must be >= 2, got 1"),
        (["pitch", "--model", "S1", "--grid-a", "0"], "S1: alphabet size must be >= 1, got 0"),
        (["pitch", "--model", "I1", "--grid-a", "0"], "I1: alphabet size must be >= 1, got 0"),
        (["pitch", "--model", "S1", "--grid-a", "13"], "S1: alphabet size must be <= 12, got 13"),
        (["pitch", "--model", "IS3", "--grid-a", "5,13"], "IS3: alphabet size must be <= 12, got 13"),
        (["rhythm", "--model", "SI1", "--grid-a", "0"], "SI1: alphabet size must be >= 1, got 0"),
        (["rhythm", "--model", "SR1", "--grid-l", "1"], "SR1: sequence length must be >= 2, got 1"),
        (["rhythm", "--model", "CI1", "--grid-a", "40"], "CI1: alphabet size must be <= 15, got 40"),
        (["rhythm", "--model", "CR2", "--grid-a", "16"], "CR2: alphabet size must be <= 15, got 16"),
        (["pitch", "--model", "S1", "--grid-o", "nan"], "S1: o must be finite and > 0, got nan"),
        (["pitch", "--model", "I2", "--grid-o", "inf"], "I2: o must be finite and > 0, got inf"),
        (["pitch", "--model", "I1", "--grid-o", "-1"], "I1: o must be finite and > 0, got -1.0"),
        (["pitch", "--model", "IS3", "--grid-o", "2,0"], "IS3: o must be finite and > 0, got 0.0"),
        (["pitch", "--model", "S2", "--grid-exp", "nan"], "S2: exponent must be finite, got nan"),
        (["rhythm", "--model", "SI2", "--grid-exp", "inf"], "SI2: exponent must be finite, got inf"),
        (["rhythm", "--model", "SI4", "--grid-exp", "1,nan"], "SI4: exponent must be finite, got nan"),
        (["rhythm", "--model", "CR3", "--grid-exp", "2,-inf"], "CR3: exponent must be finite, got -inf"),
        (["pitch", "--model", "S1", "--grid-o", "11"], "S1: o must round to at most 10 octaves, got 11.0"),
        (["pitch", "--model", "S3", "--grid-o", "2,1e300"], "S3: o must round to at most 10 octaves, got 1e+300"),
        (["pitch", "--model", "I1", "--grid-a", "128"], "I1: alphabet size must be <= 127, got 128"),
        *((["pitch", "--model", "I1", "--grid-a", a, "--grid-l", "3", "--grid-o", "1", "--grid-exp", "1",
            "--n-per-setting", "1"], f"I1: alphabet size must be <= 127, got {a}")
          # interval ranges -a..a that no array can hold
          for a in ("100000000000", "9223372036854775808", "4611686018427387904")),
        # every rhythm value set has at most 15 values: SI/SR's 2^-(a//2)..2^(a-1-a//2) grow with a
        (["rhythm", "--model", "SI1", "--grid-a", "16"], "SI1: alphabet size must be <= 15, got 16"),
        (["rhythm", "--model", "SR4", "--grid-a", "3,100000000"], "SR4: alphabet size must be <= 15, got 100000000"),
        # one grid point's generated work, each of which ran out of memory before it was bounded:
        # a 253,999,747-pitch walk window, 74.5 GiB of uniforms, and 7.45 GiB of uniforms
        (["pitch", "--model", "I1", "--grid-a", "127", "--grid-l", "1000000", "--grid-o", "1e300", "--grid-exp", "1",
          "--n-per-setting", "1"], "I1: a walk table of 253999747 window pitches (--grid-o, --grid-a, --grid-l) "
         "times 255 intervals (--grid-a) exceeds its limit of 4194304 cells"),
        (["pitch", "--model", "IS1", "--grid-a", "12", "--grid-l", "100000000", "--grid-o", "2", "--grid-exp", "1",
          "--n-per-setting", "100"],
         "IS1: --n-per-setting 100 times --grid-l 100000000 is 10000000000 steps, above the limit of 1000000 per grid point"),
        *(([command, "--model", model, "--grid-a", "3", "--grid-l", "1000000000", "--grid-exp", "1",
            "--n-per-setting", "1"],
           f"{model}: --n-per-setting 1 times --grid-l 1000000000 is 1000000000 steps, above the limit of 1000000 per grid point")
          for command, model in (("rhythm", "SI1"), ("pitch", "S1"))),
        (["rhythm", "--model", "CR2", "--grid-a", "3", "--grid-l", "10001", "--n-per-setting", "1"],
         "CR2: --n-per-setting 1 times --grid-l 10001 squared is 100020001, above the CR limit of 100000000"),
    ],
)
def test_genmodel_rejects_grid_points_the_generators_cannot_use(capsys, corpus_file, argv, message):
    assert main(["genmodel", *argv, "--seed", "1", str(corpus_file)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_similarity_reports_melodies_the_viewpoint_is_undefined_on(tmp_path, capsys, with_one_note):
    rc, data = run(["similarity", "--query", str(with_one_note), "--n", "2", "--viewpoint", "ioi", str(with_one_note)],
                   tmp_path / "o.csv")
    assert rc == 0
    assert [r["n_matches"] for r in rows_of(data)] == ["1"]
    assert capsys.readouterr().err.splitlines() == [
        "warning: corpus 'fixture' melody 'lone' skipped: melody 'lone': IOI needs at least 2 note onsets",
        "warning: corpus 'fixture': 1 melodies skipped",
    ]


def test_bad_options_are_rejected_before_any_melody(capsys, corpus_file):
    expect_error(capsys, ["repetition", "--lmin", "1", str(corpus_file)], "--lmin")
    expect_error(capsys, ["mi", "--seed", "1", "--shuffles", "-1", str(corpus_file)], "--shuffles")
    # a value argparse cannot convert, or an unknown choice, is one error line too
    pitch = ["genmodel", "pitch", "--model", "S1", "--seed", "1", str(corpus_file)]
    scale = ["genmodel", "scale", "--intervals", "i.csv", "--lengths", "l.csv", "--seed", "1"]
    for argv, *fragments in [
        (["totalinfo", "--threads", "abc", str(corpus_file)], "argument --threads: invalid int value: 'abc'"),
        (["repetition", "--lmin", "x", str(corpus_file)], "argument --lmin: invalid int value: 'x'"),
        ([*pitch, "--grid-a", "3,x"], "argument --grid-a: invalid int list value: '3,x'"),
        ([*pitch[:3], "", *pitch[4:]], "argument --model: invalid choice: ''"),
        ([*pitch[:3], "SI", *pitch[4:]], "argument --model: invalid choice: 'SI'"),
        (["genmodel", "rhythm", "--model", "IS3", "--seed", "1", str(corpus_file)], "argument --model: invalid choice: 'IS3'"),
        ([*scale, "--o-values", "1,x"], "argument --o-values: invalid float list value: '1,x'"),
        (["entropy", "--viewpoint", "nope", str(corpus_file)], "argument --viewpoint: invalid ViewpointKind value: 'nope'"),
        (["entropy", "--format", "xml", str(corpus_file)], "argument --format: invalid choice: 'xml'"),
    ]:
        expect_error(capsys, argv, *fragments)


def test_csv_without_a_required_column_is_an_error(tmp_path, capsys):
    means = tmp_path / "means.csv"
    with open(means, "w", newline="") as fh:
        csv.writer(fh).writerows([["corpus_id", "H_chroma", "I_chroma_duration"], ["c0", 2.0, 0.1], ["c1", 2.5, 0.2]])
    expect_error(capsys, ["null-joint", "--seed", "1", str(means)], str(means), "'H_duration'")
    intervals = tmp_path / "intervals.csv"
    intervals.write_text("interval,probability\n1,0.5\n-1,0.5\n")
    lengths = tmp_path / "lengths.csv"
    lengths.write_text("symbol,probability\n10,1.0\n")
    argv = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--n", "10", "--seed", "1"]
    expect_error(capsys, argv, str(intervals), "'symbol'")


@pytest.mark.parametrize(
    "header, argv",
    [
        ("symbol,probability", ["genmodel", "scale", "--intervals", "{path}", "--lengths", "{path}", "--n", "10"]),
        ("corpus_id,H_chroma,H_duration,I_chroma_duration", ["null-joint", "{path}"]),
        ("H", ["genmodel", "scale", "--intervals", "{ok}", "--lengths", "{ok}", "--n", "10", "--empirical-h", "{path}"]),
    ],
    ids=["intervals", "means", "empirical-h"],
)
@pytest.mark.parametrize(
    "row, message",
    [
        (b"9" * 200_000, "field larger than field limit (131072)"),  # the csv module's default limit
        (b"0.5\xff", "can't decode byte 0xff"),
    ],
    ids=["field-limit", "undecodable"],
)
def test_csv_files_that_cannot_be_read_are_errors_that_name_the_file(tmp_path, capsys, header, argv, row, message):
    path, ok = tmp_path / "bad.csv", write_distribution(tmp_path / "ok.csv", [(1, 1.0)])
    path.write_bytes(header.encode() + b"\n" + row + b"\n")
    argv = [a.format(path=path, ok=ok) for a in argv]
    expect_error(capsys, [*argv, "--seed", "1"], f"error: {path}: ", message)


@pytest.mark.parametrize(
    "cells, message",
    [
        (("1.5", "0.5"), "symbol must be an integer, got '1.5'"),
        (("", "0.5"), "symbol must be an integer, got ''"),
        (("1", "abc"), "probability must be a number, got 'abc'"),
    ],
)
def test_distribution_csv_cells_that_are_not_numbers_name_the_file_and_column(tmp_path, capsys, cells, message):
    intervals = tmp_path / "intervals.csv"
    intervals.write_text("symbol,probability\n{},{}\n-1,0.5\n".format(*cells))
    lengths = tmp_path / "lengths.csv"
    lengths.write_text("symbol,probability\n10,1.0\n")
    argv = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--n", "100", "--seed", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {intervals}: {message}"]


@pytest.mark.parametrize("symbol", ["99999999999999999999", "-9223372036854775809", "9223372036854775808"])
@pytest.mark.parametrize("option", ["--intervals", "--lengths"])
def test_distribution_csv_symbol_outside_int64_names_the_file_and_column(tmp_path, capsys, option, symbol):
    csvs = {
        "--intervals": write_distribution(tmp_path / "intervals.csv", [(-1, 0.5), (1, 0.5)]),
        "--lengths": write_distribution(tmp_path / "lengths.csv", [(10, 1.0)]),
    }
    bad = csvs[option] = write_distribution(tmp_path / "bad.csv", [(symbol, 0.5), (2, 0.5)])
    argv = ["genmodel", "scale", *(a for o, path in csvs.items() for a in (o, str(path))), "--n", "100", "--seed", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: symbol must be a 64-bit integer, got {symbol!r}"]


@pytest.mark.parametrize("probabilities", [("0", "0"), ("0.5", "-0.1"), ("0.5", "nan"), ("0.5", "inf")])
def test_distribution_csv_needs_nonnegative_probabilities_with_positive_sum(tmp_path, capsys, probabilities):
    intervals = tmp_path / "intervals.csv"
    intervals.write_text("symbol,probability\n1,{}\n-1,{}\n".format(*probabilities))
    lengths = tmp_path / "lengths.csv"
    lengths.write_text("symbol,probability\n10,1.0\n")
    argv = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--n", "100", "--seed", "1"]
    expect_error(capsys, argv, str(intervals), "probabilities")


def test_ppm_repetition_reports_targets_without_symbols(tmp_path, capsys):
    rng = np.random.default_rng(4)
    mels = [melody_from_pitches(f"m{i}", list(60 + np.cumsum(rng.integers(-3, 4, 12)))) for i in range(4)]
    path = write_corpus(tmp_path / "c.json", [*mels[:2], melody_from_pitches("lone", [67]), *mels[2:]])
    base = ["ppm-repetition", "--seed", "1", "--viewpoint", "mint", "--n-train", "2", "--shuffle-reps", "2", str(path)]
    rc, data = run(base, tmp_path / "o.csv")
    assert rc == 0
    assert [r["corpus"] for r in rows_of(data)] == ["fixture"]
    assert capsys.readouterr().err.splitlines() == [
        "warning: corpus 'fixture' melody 'lone' skipped: empty mint sequence",
        "warning: corpus 'fixture': 1 melodies skipped",
    ]
    expect_error(capsys, [*base, "--truncate", "0"], "truncate")


def test_ppm_repetition_skips_melodies_the_viewpoint_is_undefined_on(tmp_path, capsys):
    rng = np.random.default_rng(5)
    mels = [melody_from_pitches(f"m{i:02d}", list(60 + np.cumsum(rng.integers(-3, 4, 12)))) for i in range(12)]
    mels[3] = melody_from_pitches("m03", [67])
    path = write_corpus(tmp_path / "c.json", mels)
    rc, data = run(["ppm-repetition", "--seed", "1", "--viewpoint", "ioi", "--shuffle-reps", "2", str(path)],
                   tmp_path / "o.csv")
    assert rc == 0
    assert [r["corpus"] for r in rows_of(data)] == ["fixture"]
    assert capsys.readouterr().err.splitlines() == [
        "warning: corpus 'fixture' melody 'm03' skipped: melody 'm03': IOI needs at least 2 note onsets",
        "warning: corpus 'fixture': 1 melodies skipped",
    ]


def write_distribution(path, rows):
    path.write_text("symbol,probability\n" + "".join(f"{s},{p}\n" for s, p in rows))
    return path


@pytest.fixture
def scale_csvs(tmp_path):
    # from 0 in a +-3 window, +2 is legal once and +7 never: length-2 walks
    # succeed and length-10 walks fail
    intervals = write_distribution(tmp_path / "intervals.csv", [(2, 0.5), (7, 0.5)])
    lengths = write_distribution(tmp_path / "lengths.csv", [(2, 0.5), (10, 0.5)])
    return ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--o-values", "0.5"]


def test_genmodel_scale_reports_failed_walks(tmp_path, capsys, scale_csvs):
    rc, data = run([*scale_csvs, "--n", "1000", "--seed", "1"], tmp_path / "o.csv")
    assert rc == 0
    rows = rows_of(data)
    assert [r["A"] for r in rows] == ["2"]
    n_failed = 1000 - int(rows[0]["n_samples"])
    assert n_failed > 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: genmodel scale: {n_failed} of 1000 walks failed (no legal interval inside the pitch window)"
    ]


def test_genmodel_scale_without_a_successful_walk_is_an_error(tmp_path, capsys, scale_csvs):
    write_distribution(tmp_path / "lengths.csv", [(10, 1.0)])
    expect_error(capsys, [*scale_csvs, "--n", "100", "--seed", "1"], "all 100 walks failed")
    for n in ("0", "-5"):
        expect_error(capsys, [*scale_csvs, "--n", n, "--seed", "1"], "at least one walk", n)


def test_genmodel_scale_n_above_the_limit_is_an_error_before_any_walk(capsys, monkeypatch, scale_csvs):
    def no_walks(*args, **kwargs):
        raise AssertionError("walks ran before --n was checked")

    monkeypatch.setattr(genmodel._kernels, "walk_chunk", no_walks)
    expect_error(capsys, [*scale_csvs, "--n", "10000001", "--seed", "1"], "need at most 10000000 walks (--n), got 10000001")


@pytest.mark.parametrize("alpha", ["0", "-0.5", "1.5", "5", "nan"])
@pytest.mark.parametrize("empirical", [False, True])
def test_genmodel_scale_rejects_alpha_outside_the_unit_interval(tmp_path, capsys, monkeypatch, scale_csvs, alpha, empirical):
    def no_walks(*args, **kwargs):
        raise AssertionError("walks ran before --alpha was checked")

    monkeypatch.setattr(genmodel, "simulate_scale_entropy", no_walks)
    argv = [*scale_csvs, "--n", "100", "--seed", "1", "--alpha", alpha]
    if empirical:
        h = tmp_path / "H.csv"
        h.write_text("H\n2.5\n3.0\n")
        argv += ["--empirical-h", str(h)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: alpha must be in (0, 1], got {float(alpha)}"]


@pytest.mark.parametrize("o_values, shown", [("inf", "inf"), ("1,-inf", "-inf"), ("nan", "nan"), ("0", "0.0"), ("0.5,-1", "-1.0")])
def test_genmodel_scale_rejects_unusable_o_values(capsys, monkeypatch, scale_csvs, o_values, shown):
    def no_walks(*args, **kwargs):
        raise AssertionError("walks ran before --o-values was checked")

    monkeypatch.setattr(genmodel._kernels, "walk_chunk", no_walks)
    assert main([*scale_csvs, "--n", "100", "--seed", "1", "--o-values", o_values]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: o must be finite and > 0, got {shown}"]


def _refuse_walks(monkeypatch):
    def no_walks(*args, **kwargs):
        raise AssertionError("walks ran before the inputs were checked")

    monkeypatch.setattr(genmodel, "simulate_scale_entropy", no_walks)


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_genmodel_scale_rejects_a_threshold_that_is_not_finite(capsys, monkeypatch, scale_csvs, threshold):
    _refuse_walks(monkeypatch)
    assert main([*scale_csvs, "--n", "100", "--seed", "1", f"--threshold={threshold}"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --threshold must be finite, got {float(threshold)}"]


@pytest.mark.parametrize("h", ["nan", "inf", "-inf", "abc"])
def test_genmodel_scale_rejects_an_empirical_h_that_is_not_finite(tmp_path, capsys, monkeypatch, scale_csvs, h):
    _refuse_walks(monkeypatch)
    path = tmp_path / "H.csv"
    path.write_text(f"H\n2.5\n{h}\n3.0\n")
    assert main([*scale_csvs, "--n", "100", "--seed", "1", "--empirical-h", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: H must be a finite number, got '{h}'"]


@pytest.mark.parametrize(
    "rows, message",
    [
        (["2.5"], "KDE needs at least 2 samples"),
        ([], "KDE needs at least 2 samples"),
        (["2.5", "2.5", "2.5"], "zero-spread samples: the density is a delta, not a KDE"),
    ],
)
def test_genmodel_scale_rejects_an_empirical_h_the_kde_cannot_use_before_any_walk(
    tmp_path, capsys, monkeypatch, scale_csvs, rows, message
):
    def no_walks(*args, **kwargs):
        raise AssertionError("walks ran before the empirical H sample was checked")

    monkeypatch.setattr(genmodel._kernels, "walk_chunk", no_walks)
    path = tmp_path / "H.csv"
    path.write_text("H\n" + "".join(f"{h}\n" for h in rows))
    assert main([*scale_csvs, "--n", "100", "--seed", "1", "--empirical-h", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.filterwarnings("error")
def test_genmodel_scale_rejects_an_empirical_h_whose_spread_overflows_before_any_walk(tmp_path, capsys, monkeypatch):
    # the variance of 1e308, 2.5 and -1e308 overflows float64, and so would
    # the KDE's window, _KDE_REACH times a bandwidth of 5.4e307
    _refuse_walks(monkeypatch)
    intervals = write_distribution(tmp_path / "intervals.csv", [(d, 6 - abs(d)) for d in range(-5, 6)])
    lengths = write_distribution(tmp_path / "lengths.csv", [(10, 1.0)])
    h = tmp_path / "H.csv"
    h.write_text("H\n1e308\n2.5\n-1e308\n")
    argv = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--empirical-h", str(h)]
    assert main([*argv, "--n", "1000", "--seed", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.filterwarnings("error")
def test_genmodel_scale_at_alpha_1_where_the_empirical_density_is_0_is_one_error_line(tmp_path, capsys):
    # the empirical H sit within a few hundredths of a bit of 3, so their KDE
    # is exactly 0 over most of [0, 5] bits, where the walks' H lie too: at
    # alpha 1, P' is 0 there and every logL is -inf
    intervals = write_distribution(tmp_path / "intervals.csv", [(d, 6 - abs(d)) for d in range(-5, 6)])
    lengths = write_distribution(tmp_path / "lengths.csv", [(n, 1) for n in range(20, 81)])
    h = tmp_path / "H.csv"
    h.write_text("H\n" + "".join(f"{x!r}\n" for x in (3 + 0.01 * np.random.default_rng(0).normal(size=400)).tolist()))
    argv = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--empirical-h", str(h)]
    expect_error(capsys, [*argv, "--n", "40000", "--seed", "1", "--alpha", "1"], "is -inf", "--alpha")


def test_genmodel_scale_scores_an_alphabet_size_whose_walks_share_one_count_multiset(tmp_path, capsys):
    # a length-10 walk over 9 chromas counts one chroma twice and 8 once,
    # wherever they lie, so all 138 A = 9 walks have one H: a delta that
    # still gets a logL, not a KDE too narrow to reach the grid
    intervals = write_distribution(tmp_path / "intervals.csv", [(d, 6 - abs(d)) for d in range(-5, 6)])
    lengths = write_distribution(tmp_path / "lengths.csv", [(10, 1.0)])
    h = tmp_path / "H.csv"
    h.write_text("H\n2.5\n3.0\n2.8\n")
    argv = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--o-values", "1"]
    rc, data = run([*argv, "--n", "12288", "--seed", "1", "--empirical-h", str(h)], tmp_path / "o.csv")
    assert rc == 0
    row = {r["A"]: r for r in rows_of(data)}["9"]
    assert row["n_samples"] == "138" and row["logL"] != ""
    assert capsys.readouterr().err == ""


MEANS_COLUMNS = ["H_chroma", "H_duration", "I_chroma_duration"]


@pytest.mark.parametrize("command", [["null-joint"], ["subsample-corr", "--max-per-region", "2"]])
@pytest.mark.parametrize("column, value", [*zip(MEANS_COLUMNS, ["nan", "inf", "-inf"]), ("H_duration", "abc")])
def test_means_that_are_not_finite_are_errors(tmp_path, capsys, command, column, value):
    rows = [[f"c{i}", f"r{i % 2}", "Folk", 2 + 0.1 * i, 1 + 0.01 * i * i, 0.1] for i in range(6)]
    rows[3][3 + MEANS_COLUMNS.index(column)] = value
    means = tmp_path / "means.csv"
    make_means_csv(means, rows)
    expect_error(capsys, [*command, "--seed", "1", str(means)], f"{means}: {column} must be a finite number, got '{value}'")


@pytest.mark.parametrize(
    "argv, rows",
    [
        # r over three of these points overflows the standard deviations and corrcoef
        (["subsample-corr", "--max-per-region", "2", "--resamples", "5"],
         [["a", "r0", "Folk", 0, 0, 0], ["b", "r1", "Folk", 1e308, 1e308, 0],
          ["c", "r2", "Folk", 1e308, 0, 0], ["d", "r0", "Folk", 1, 2, 0]]),
        # H(C) + H(D) - I of these rows spreads too widely for float64's variance
        (["null-joint"], [["a", "r", "Folk", 0, 0, 0], ["b", "r", "Folk", 0, 0, 0], ["c", "r", "Folk", 0, 0, 1e308]]),
    ],
    ids=["subsample-corr", "null-joint"],
)
def test_means_whose_statistics_overflow_float64_are_one_error_line(tmp_path, capsys, argv, rows):
    means = tmp_path / "means.csv"
    make_means_csv(means, rows)
    expect_error(capsys, [*argv, "--seed", "1", str(means)], "overflows float64")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pitch", "--model", "S1", "--grid-a", "13"], "S1: alphabet size must be <= 12, got 13"),
        (["rhythm", "--model", "SI1", "--grid-l", "1"], "SI1: sequence length must be >= 2, got 1"),
        (["pitch", "--model", "S1", "--n-per-setting", "0"], "n_per_setting must be >= 1, got 0"),
        (["rhythm", "--model", "CR4", "--n-per-setting", "-2"], "n_per_setting must be >= 1, got -2"),
        (["rhythm", "--model", "SI1", "--grid-l", "20,100000", "--n-per-setting", "11"],
         "SI1: --n-per-setting 11 times --grid-l 100000 is 1100000 steps, above the limit of 1000000 per grid point"),
    ],
)
def test_genmodel_fit_grid_is_checked_before_any_melody(capsys, with_one_note, argv, message):
    # both fits skip 'lone', but a bad grid point stops the run before any melody is read
    assert main(["genmodel", *argv, "--seed", "1", str(with_one_note)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("n, message", [("1", "n must be >= 2"), ("4", "query shorter than n=4")])
def test_similarity_checks_n_and_the_query_before_any_melody(capsys, with_one_note, n, message):
    # at ioi the corpus skips 'lone'; the query 'a' has 3 IOIs
    argv = ["similarity", "--query", str(with_one_note), "--viewpoint", "ioi", "--n", n, str(with_one_note)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def _ioi_corpus(path, iois_of):
    """Twelve melodies; melody i has the IOIs iois_of(i)."""
    mels = []
    for i in range(12):
        iois = iois_of(i)
        mels.append(melody_from_pitches(f"m{i:02d}", [60 + (j * 5) % 12 for j in range(len(iois) + 1)], [*iois, 1]))
    return write_corpus(path, mels)


def test_genmodel_rhythm_counts_melodies_whose_h_ioi_is_the_top_bin_edge(tmp_path):
    # half the melodies use IOIs 1 and 2 equally (H(IOI) = 1.0 bit exactly, the
    # corpus maximum), half use 1, 1, 2 (H(IOI) ~ 0.918): both halves weigh 0.5
    corpus = _ioi_corpus(tmp_path / "c.json", lambda i: [1, 2] * 10 if i < 6 else [1, 1, 2] * 7)
    argv = ["genmodel", "rhythm", "--model", "SI1", "--grid-a", "2,3,5", "--grid-l", "20", "--grid-exp", "1",
            "--seed", "1", str(corpus)]
    rc, data = run(argv, tmp_path / "o.csv")
    assert rc == 0
    assert rows_of(data) == [{"model": "SI1", "A": "2", "L": "20", "exponent": "1.0", "JSD": "0.957609"}]


def test_genmodel_rhythm_fits_a_corpus_whose_every_h_ioi_is_one_bit(tmp_path):
    # every melody uses IOIs 1 and 2 ten times each, in a seeded order, as an
    # a=2 model sequence with an even split does; no a=3 sequence of 20 IOIs
    # with all three values has H(IOI) below 1.5, so a=2 fits best
    rng = np.random.default_rng(3)
    corpus = _ioi_corpus(tmp_path / "c.json", lambda i: list(rng.permutation([1, 2] * 10)))
    argv = ["genmodel", "rhythm", "--model", "SI1", "--grid-a", "3,2", "--grid-l", "20", "--grid-exp", "1",
            "--seed", "1", str(corpus)]
    rc, data = run(argv, tmp_path / "o.csv")
    assert rc == 0
    (row,) = rows_of(data)
    assert row["A"] == "2" and float(row["JSD"]) < 0.5


def test_genmodel_pitch_fits_ratios_above_the_last_bin_edge_into_the_last_bin(tmp_path):
    # octave leaps over a near-constant chroma: H(M-Int)/H(Chroma) is 8.67,
    # above the bins' top edge of 4
    pitches = [60, 72, 48, 84, 36, 96, 60, 24, 108, 60, 72, 48, 84, 36, 96, 61]
    corpus = write_corpus(tmp_path / "c.json", [melody_from_pitches("leaps", pitches)])
    argv = ["genmodel", "pitch", "--model", "S1", "--grid-a", "5", "--grid-l", "20", "--grid-o", "2",
            "--grid-exp", "1", "--n-per-setting", "5", "--seed", "1", str(corpus)]
    rc, data = run(argv, tmp_path / "o.csv")
    assert rc == 0
    assert data.decode().splitlines()[1:] == ["S1,5,20,2.0,1.0,2.0"]


def test_ppm_repetition_finishes_at_any_max_order(tmp_path, corpus_file):
    # orders beyond the longest training sequence add no context, so they cost nothing
    base = ["ppm-repetition", "--seed", "3", "--n-train", "5", "--shuffle-reps", "2", str(corpus_file)]
    assert run([*base, "--max-order", "1000000000"], tmp_path / "a.csv") == run(
        [*base, "--max-order", "24"], tmp_path / "b.csv"
    )


def test_ppm_repetition_predicts_a_target_longer_than_the_recursion_limit(tmp_path, capsys):
    # seed 0 trains the 1200-note target on one 6-note melody, and no short
    # target on the long one: the target's contexts reach 1199 codes
    rng = np.random.default_rng(0)
    mels = [melody_from_pitches("long", list(60 + rng.integers(0, 24, 1200)))]
    mels += [melody_from_pitches(f"short{i}", [60, 62, 64, 65, 67, 69 + i]) for i in range(3)]
    corpus = write_corpus(tmp_path / "c.json", mels)
    argv = ["ppm-repetition", "--seed", "0", "--n-train", "1", "--truncate", "2000", "--max-order", "2000",
            "--shuffle-reps", "1", "--viewpoint", "pitch", str(corpus)]
    rc, data = run(argv, tmp_path / "o.csv")
    assert capsys.readouterr().err == ""
    assert rc == 0
    assert data.decode().splitlines() == ["corpus,mean_IC,mean_IC_r,repetition_bits", "fixture,2.93514,4.26979,1.33465"]


def test_genmodel_rhythm_warns_when_the_fit_is_uninformative(tmp_path, capsys):
    # CR IOIs are running products of primes and their reciprocals, so a model
    # sequence's IOIs rarely repeat: its H(IOI) lies bits above the melodies'
    # 1 bit, no sequence lands in their H(IOI) bin, and every grid point scores
    # the maximum, 1
    rng = np.random.default_rng(3)
    corpus = _ioi_corpus(tmp_path / "c.json", lambda i: list(rng.permutation([1, 2] * 10)))
    base = ["genmodel", "rhythm", "--grid-l", "20", "--grid-exp", "1", "--seed", "1", str(corpus)]
    rc, data = run([*base, "--model", "CR2", "--grid-a", "3,5"], tmp_path / "o.csv")
    assert rc == 0
    assert data.decode().splitlines()[1:] == ["CR2,3,20,1.0,1.0"]
    assert capsys.readouterr().err.splitlines() == [
        "warning: genmodel rhythm: 2 of 2 grid points tie at the best JSD; the first is reported",
        "warning: genmodel rhythm: the best JSD is the objective's maximum, 1: no grid point fits",
    ]
    # an informative fit of the same melodies warns of nothing
    rc, data = run([*base, "--model", "SI1", "--grid-a", "3,2"], tmp_path / "o.csv")
    assert rc == 0 and float(rows_of(data)[0]["JSD"]) < 0.5
    assert capsys.readouterr().err == ""


def test_genmodel_scale_window_wider_than_the_reach_is_the_reach(tmp_path, capsys):
    # +-1 steps over 3 steps reach 3 semitones: o = 0.5 is a window of
    # exactly +-3, and every wider one gives the same output
    intervals = write_distribution(tmp_path / "intervals.csv", [(-1, 0.3), (0, 0.3), (1, 0.4)])
    lengths = write_distribution(tmp_path / "lengths.csv", [(2, 0.5), (4, 0.5)])
    argv = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--n", "500", "--seed", "2"]
    rc, ref = run([*argv, "--o-values", "0.5"], tmp_path / "ref.csv")
    assert rc == 0
    for o_values in ("1e300", "4,1e300", "1e300,4", "1e308"):
        assert run([*argv, "--o-values", o_values], tmp_path / "o.csv") == (0, ref)
    assert capsys.readouterr().err == ""


def test_genmodel_pitch_window_wider_than_the_reach_is_the_reach(tmp_path, capsys, corpus_file):
    # steps of at most 3 over 19 steps reach 57 semitones: o = 28.5 is a
    # window of exactly +-57, and every wider one gives the same fit
    base = ["genmodel", "pitch", "--model", "I2", "--grid-a", "3", "--grid-l", "20", "--grid-exp", "1",
            "--n-per-setting", "20", "--seed", "1", str(corpus_file)]
    jsd = []
    for o in ("28.5", "1e300", "1e308"):
        rc, data = run([*base, "--grid-o", o], tmp_path / "o.csv")
        assert rc == 0
        jsd.append(rows_of(data)[0]["JSD"])
    assert jsd[1:] == jsd[:1] * 2
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, model, exponent",
    [("rhythm", "SI4", "1e308"), ("rhythm", "SR4", "1e308"), ("rhythm", "SI2", "-1e308"), ("rhythm", "SI3", "-1e308"),
     ("pitch", "S2", "-1e308")],
)
def test_genmodel_weights_without_a_finite_positive_sum_are_an_error(capsys, corpus_file, command, model, exponent):
    # b ** 1e308 overflows for a metrical base b of 2 or more, and so does a
    # rank or distance of 2 or more ** 1e308 for dists 2 and 3
    argv = ["genmodel", command, "--model", model, f"--grid-exp={exponent}", "--grid-a", "3", "--grid-l", "10",
            "--n-per-setting", "2", "--seed", "1", str(corpus_file)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {model}: the weights have no finite, positive sum (exponent {float(exponent)})"
    ]


@pytest.mark.parametrize("length", [10, 2])
def test_genmodel_scale_window_beyond_int64_is_an_error(tmp_path, capsys, length):
    # at o = 1e300 the window is the reach: 9 steps of 2**62 are beyond int64;
    # 1 step is not, but a step of 2**62 from its edge is
    intervals = write_distribution(tmp_path / "intervals.csv", [(4611686018427387904, 0.5), (-1, 0.5)])
    lengths = write_distribution(tmp_path / "lengths.csv", [(length, 1.0)])
    argv = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--n", "100", "--seed", "1"]
    expect_error(capsys, [*argv, "--o-values", "1e300"], "(--o-values)", "(--intervals)", "64-bit integer")


@pytest.mark.parametrize("length", [2049, 1000000000])
def test_genmodel_scale_length_beyond_its_limit_is_an_error_before_any_walk(tmp_path, capsys, monkeypatch, length):
    # a block holds its walks' uniforms and pitches up to its longest walk
    def no_walks(*args, **kwargs):
        raise AssertionError("walks ran before --lengths was checked")

    monkeypatch.setattr(genmodel._kernels, "walk_chunk", no_walks)
    intervals = write_distribution(tmp_path / "intervals.csv", [(1, 0.5), (-1, 0.5)])
    lengths = write_distribution(tmp_path / "lengths.csv", [(30, 0.99), (length, 0.01)])
    argv = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--n", "10", "--seed", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: melody lengths (--lengths) must be 1 to 2048, got 30 to {length}"
    ]


@pytest.mark.parametrize("step", [1000000000, 2305843009213693952])
def test_genmodel_scale_walk_table_beyond_its_limit_is_an_error(tmp_path, capsys, step):
    # at o = 1e300 the window is the reach, 2 steps: 4e9 + 1 pitches, or
    # 2**63 + 1, whose table size overflows int64, each times 2 intervals
    intervals = write_distribution(tmp_path / "intervals.csv", [(step, 0.5), (-1, 0.5)])
    lengths = write_distribution(tmp_path / "lengths.csv", [(3, 1.0)])
    argv = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--n", "100", "--seed", "1"]
    expect_error(capsys, [*argv, "--o-values", "1e300"], f"{4 * step + 1} window pitches (--o-values)",
                 "2 intervals (--intervals)", f"limit of {genmodel._MAX_TABLE_CELLS} cells")


def _leaf_parsers(parser, command=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield command, parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*command, name))


def test_every_subcommand_has_a_function_and_help(capsys):
    leaves = dict(_leaf_parsers(build_parser()))
    assert len(leaves) == 14 and ("genmodel", "pitch") in leaves
    for command, parser in leaves.items():
        assert callable(parser.get_default("func")), command
        assert parser.get_default("schema") == HEADERS[" ".join(command)].split(","), command
    for command in [*leaves, ("genmodel",)]:
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0, command
        assert capsys.readouterr().out.startswith(f"usage: melic {' '.join(command)} "), command


def test_bad_thread_counts_are_errors(tmp_path, capsys, corpus_file, scale_csvs):
    # every command accepts --threads, and rejects a bad value before any
    # work, whether or not it runs threads
    commands = [
        [*scale_csvs, "--n", "100", "--seed", "1"],
        ["totalinfo", str(corpus_file)],
        ["mi", "--seed", "1", str(corpus_file)],
    ]
    for argv in commands:
        for value in ("0", "-3"):
            expect_error(capsys, [*argv, "--threads", value], "--threads", value)
        assert run([*argv, "--threads", "2"], tmp_path / "o.csv")[0] == 0
        assert "error" not in capsys.readouterr().err


# every seeded command, with input files that do not exist: a read would fail
SEEDED = {
    ("mi",): ["{corpus}"],
    ("ppm-repetition",): ["{corpus}"],
    ("genmodel", "scale"): ["--intervals", "{csv}", "--lengths", "{csv}"],
    ("genmodel", "pitch"): ["--model", "S1", "{corpus}"],
    ("genmodel", "rhythm"): ["--model", "SI1", "{corpus}"],
    ("null-joint",): ["{csv}"],
    ("subsample-corr",): ["--max-per-region", "2", "{csv}"],
}


def test_every_seeded_command_is_tested_with_a_negative_seed():
    leaves = dict(_leaf_parsers(build_parser()))
    assert {c for c, p in leaves.items() if "--seed" in p._option_string_actions} == set(SEEDED)


@pytest.mark.parametrize("command", list(SEEDED), ids=" ".join)
@pytest.mark.parametrize("seed", ["-1", "-20"])
def test_a_negative_seed_is_an_error_before_any_input_is_read(tmp_path, capsys, command, seed):
    paths = {"corpus": tmp_path / "missing.json", "csv": tmp_path / "missing.csv"}
    argv = [*command, *(a.format(**paths) for a in SEEDED[command]), "--seed", seed]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --seed must be >= 0, got {seed}"]


def test_no_melic_module_reads_the_environment():
    # every setting is a command-line option
    for path in sorted(Path(genmodel.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "environ" not in text and "getenv" not in text, path.name


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import melic.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def _modules_loaded_by(argv):
    """Run main(argv) in a fresh interpreter; its exit code and the modules it loaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys; from melic.cli import main; rc = main({argv!r}); print(rc); print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    rc, modules = proc.stdout.splitlines()
    return int(rc), set(modules.split())


def test_commands_load_no_module_they_do_not_use(tmp_path, corpus_file):
    # hashlib serves ppm-repetition's seeds alone and concurrent.futures genmodel
    # scale's pool alone; numpy.ma comes with np.unique and np.percentile
    rc, modules = _modules_loaded_by(["entropy", str(corpus_file), "--out", str(tmp_path / "e.csv")])
    assert rc == 0 and not {"hashlib", "concurrent.futures", "numpy.ma"} & modules
    intervals = write_distribution(tmp_path / "intervals.csv", [(d, 6 - abs(d)) for d in range(-5, 6)])
    lengths = write_distribution(tmp_path / "lengths.csv", [(n, 1) for n in range(10, 21)])
    h = tmp_path / "H.csv"
    h.write_text("H\n2.5\n2.9\n3.0\n3.2\n2.7\n")
    argv = ["genmodel", "scale", "--intervals", str(intervals), "--lengths", str(lengths), "--empirical-h", str(h)]
    rc, modules = _modules_loaded_by([*argv, "--n", "5000", "--threads", "2", "--seed", "1", "--out", str(tmp_path / "s.csv")])
    assert rc == 0 and "concurrent.futures" in modules and "numpy.ma" not in modules
    means = tmp_path / "means.csv"
    make_means_csv(means, [[f"c{i}", f"r{i % 2}", "Folk", 2 + 0.1 * i, 1 + 0.01 * i * i, 0.1] for i in range(6)])
    argv = ["subsample-corr", "--seed", "1", "--max-per-region", "2", str(means), "--out", str(tmp_path / "r.csv")]
    rc, modules = _modules_loaded_by(argv)
    assert rc == 0 and "numpy.ma" not in modules


def test_subsample_corr_loads_no_scipy(tmp_path):
    # it prints only r, so it computes no p-value
    means, out = tmp_path / "means.csv", tmp_path / "o.csv"
    make_means_csv(means, [[f"c{i}", f"r{i % 2}", "Folk", 2 + 0.1 * i, 1 + 0.01 * i * i, 0.1] for i in range(6)])
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["subsample-corr", "--seed", "1", "--max-per-region", "2", str(means), "--out", str(out)]
    code = (
        f"import sys; from melic.cli import main; rc = main({argv!r}); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "0 []"
    assert rows_of(out.read_bytes())[0]["mean_r"]


# --- property: no input ends in a traceback ----------------------------------

_note = st.tuples(
    st.one_of(st.none(), st.integers(55, 72)),  # None is a rest
    st.sampled_from(["1/2", "1", "3/2"]),  # duration
    st.sampled_from(["0", "1/2", "1"]),  # gap to the next onset; 0 gives equal onsets
)
_melody = st.lists(_note, min_size=1, max_size=5).filter(lambda ns: any(p is not None for p, _, _ in ns))

PER_MELODY = [[command, "--viewpoint", k.value] for command in ("entropy", "gini") for k in ViewpointKind] + [
    ["viewpoints", "--kind", k.value] for k in ViewpointKind
] + [
    ["mi", "--seed", "0", "--shuffles", "2"],
    ["repetition"],
    ["totalinfo"],
]


def _corpus_json(melodies, order=None) -> str:
    """A corpus of the melodies, melody i with id m{i}, listed in the given
    order (default: as given)."""
    mels = []
    for i in range(len(melodies)) if order is None else order:
        notes = melodies[i]
        onset, events = Fraction(0), []
        for pitch, dur, gap in notes:
            events.append({"pitch": pitch, "onset": str(onset), "duration": dur})
            onset += Fraction(gap)
        mels.append({"id": f"m{i}", "notes": events})
    return json.dumps({"corpus_id": "prop", "type": "Folk", "melodies": mels})


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(_melody, min_size=1, max_size=3))
def test_every_melody_is_a_row_or_a_reported_skip(melodies):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "c.json", Path(tmp) / "o.csv"
        src.write_text(_corpus_json(melodies))
        for argv in [*PER_MELODY, ["summary"]]:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([*argv, str(src), "--out", str(out)])
            assert rc in (0, 1), argv
            if rc == 1:
                continue
            assert out.read_text().split("\n", 1)[0] == HEADERS[argv[0]], argv
            rows = rows_of(out.read_bytes())
            skips = [line for line in err.getvalue().splitlines() if " melody 'm" in line and "skipped: " in line]
            if argv == ["summary"]:
                assert len(rows) == (len(skips) < len(melodies)), argv
            else:
                assert len(rows) + len(skips) == len(melodies), argv


# --- property: melody order only reorders per-melody output -------------------

def _run_captured(argv, src):
    """(exit code, output lines, stderr lines) of main on one corpus file."""
    out, err = src.with_suffix(".csv"), io.StringIO()
    out.unlink(missing_ok=True)
    with contextlib.redirect_stderr(err):
        rc = main([*argv, str(src), "--out", str(out)])
    return rc, out.read_text().splitlines() if rc == 0 else [], err.getvalue().splitlines()


def _skip_id(line):
    # "warning: corpus 'prop' melody 'm3' skipped: ..." -> "m3"; None for any other line
    head, sep, _ = line.partition("' skipped: ")
    return head.rpartition(" melody '")[2] if sep else None


# mi is left out: it draws every melody's shuffles from one rng stream in corpus
# order; so is summary, whose means sum in corpus order
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.lists(_melody, min_size=2, max_size=4).flatmap(lambda ms: st.tuples(st.just(ms), st.permutations(range(len(ms))))),
    st.sampled_from(ViewpointKind),
)
def test_melody_order_only_reorders_rows_and_skips(case, kind):
    melodies, order = case
    rank = {f"m{i}": pos for pos, i in enumerate(order)}
    with tempfile.TemporaryDirectory() as tmp:
        given_order, permuted = Path(tmp) / "a.json", Path(tmp) / "b.json"
        given_order.write_text(_corpus_json(melodies))
        permuted.write_text(_corpus_json(melodies, order))
        for argv in (
            ["entropy", "--viewpoint", kind.value],
            ["gini", "--viewpoint", kind.value],
            ["repetition", "--viewpoint", kind.value],
            ["totalinfo"],
            ["viewpoints", "--kind", kind.value],
        ):
            rc, rows, err = _run_captured(argv, given_order)
            rc_p, rows_p, err_p = _run_captured(argv, permuted)
            assert rc_p == rc, argv
            assert rows_p[:1] == rows[:1], argv
            assert rows_p[1:] == sorted(rows[1:], key=lambda row: rank[row.split(",", 1)[0]]), argv
            skips = sorted((line for line in err if _skip_id(line)), key=lambda line: rank[_skip_id(line)])
            assert [line for line in err_p if _skip_id(line)] == skips, argv
            assert [line for line in err_p if not _skip_id(line)] == [line for line in err if not _skip_id(line)], argv


_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
# corpus-shaped values, with any JSON value at any level
_field = lambda strategy: strategy | _json_value  # noqa: E731
_json_note = _field(st.fixed_dictionaries(
    {"pitch": _field(st.none() | st.integers(40, 90)), "onset": _field(st.just("0")), "duration": _field(st.just("1"))}
))
_json_melody = _field(st.fixed_dictionaries(
    {"id": _field(st.just("m")), "notes": _field(st.lists(_json_note, max_size=3))},
    optional={"key": _field(st.integers(-1, 12))},
))
_json_corpus = _field(st.fixed_dictionaries(
    {"corpus_id": _field(st.just("c")), "type": _field(st.just("Folk")), "melodies": _field(st.lists(_json_melody, max_size=3))}
))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_json_corpus)
def test_any_json_value_as_a_corpus_file_is_a_result_or_an_error(value):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "c.json", Path(tmp) / "o.csv"
        src.write_text(json.dumps(value))
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["entropy", str(src), "--out", str(out)]) in (0, 1)


# --- property: genmodel scale output does not depend on --threads -------------

@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    st.dictionaries(st.integers(-6, 6), st.integers(1, 5), min_size=1, max_size=5),
    st.dictionaries(st.integers(1, 12), st.integers(1, 3), min_size=1, max_size=3),
    st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3),
)
def test_genmodel_scale_output_is_the_same_at_any_thread_count(intervals, lengths, o_values):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            "genmodel", "scale", "--seed", "0", "--o-values", ",".join(map(str, o_values)),
            "--intervals", str(write_distribution(Path(tmp) / "i.csv", intervals.items())),
            "--lengths", str(write_distribution(Path(tmp) / "l.csv", lengths.items())),
            "--n", str(3 * genmodel._BLOCK + 100),  # four blocks of walks, one or more for each thread
        ]
        outcomes = []
        for threads in ("1", "2", "3"):
            out, err = Path(tmp) / f"o{threads}.csv", io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([*argv, "--threads", threads, "--out", str(out)])
            outcomes.append((rc, out.read_bytes() if rc == 0 else b"", err.getvalue()))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


# --- property: any argv of any command is a result or one error line -------

_EXTREMES = ["0", "-1", "1e308", "nan", "inf", str(2**63)]
_BIG = str(2**62)  # fits in int64, so only the length bound stops it as a length
_HUGE = str(2**63)  # one beyond int64, so only the 64-bit symbol check stops it
# each option's ordinary values beside the extremes: --n goes above 3 blocks
# only by an extreme that a bound rejects, and --threads never above 4
_USUAL = {
    "--n": ["1", "100", str(3 * genmodel._BLOCK)],
    "--threads": ["1", "2", "4"],
    "--seed": ["1"],
    "--o-values": ["0.5", "2"],
    "--threshold": ["2.8"],
    "--alpha": ["0.5"],
}
# the other commands' options that size work, at small values; their --n
# is similarity's n-gram length
_SMALL = {
    "--n": ["2", "3"], "--shuffles": ["0", "2"], "--lmin": ["2", "3"], "--n-train": ["1", "2"],
    "--truncate": ["2", "50"], "--shuffle-reps": ["1", "2"], "--max-order": ["0", "2"],
    "--samples": ["1", "100"], "--max-per-region": ["1", "2"], "--resamples": ["1", "10"],
    "--n-per-setting": ["1", "5"], "--grid-a": ["2", "3", "5"], "--grid-l": ["2", "10"],
    "--grid-o": ["0.5", "2"], "--grid-exp": ["1", "2"],
}
# never 2^63 threads, nor 2^63 rounds of a loop that no bound caps
_NEVER = {option: {str(2**63)} for option in ("--threads", "--shuffles", "--shuffle-reps", "--resamples")}
# always given: their defaults size more work than the caps (100,000 walks,
# a fit of up to 135 grid points at 100 sequences each, 1,000 resamples or
# 10,000 null samples), or in --n-train's case need 11 melodies
_ALWAYS = {"--n", "--n-per-setting", "--grid-a", "--grid-l", "--grid-o", "--grid-exp", "--resamples", "--samples",
           "--n-train"}


def _mostly(usual, extremes):
    # one draw in eight is an extreme, so that many examples get past the
    # input checks to the work
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(extremes if i == 0 else usual))


def _csv(header, cells, n_rows=(1, 3)):
    """(header, rows) of a CSV file of n_rows[0] to n_rows[1] rows, each
    column's cell one of its ordinary cells or an extreme."""
    row = st.tuples(*(_mostly(column, _EXTREMES) for column in cells))
    return st.tuples(st.just(header), st.lists(row, min_size=n_rows[0], max_size=n_rows[1]))


_CSV = {
    "--intervals": _csv(["symbol", "probability"], [["-2", "1", "2", "7", _BIG, _HUGE], ["1", "0.5"]]),
    "--lengths": _csv(["symbol", "probability"], [["1", "2", "10", "30", _BIG, _HUGE], ["1", "0.5"]]),
    "--empirical-h": _csv(["H"], [["2.5", "3.0"]]),
    # 3 to 6 corpora, corpus i in region r{i % 3}, get past the corpus and
    # region counts; only the measures are drawn
    "means": _csv(MEANS_COLUMNS, [["0.5", "1", "2.5"], ["0.5", "1", "2.5"], ["0", "0.1"]], n_rows=(3, 6)).map(
        lambda table: (["corpus_id", "region", *table[0]], [(f"c{i}", f"r{i % 3}", *r) for i, r in enumerate(table[1])])
    ),
}
_odd_melodies = [
    [(60, "1", "1")],  # one note
    [(60, "1", "1"), (None, "1", "1"), (None, "1/2", "1")],  # rests only after the first note
    [(62, "1/2", "1/2")] * 4,  # one repeated pitch
]
_corpus = st.lists(st.sampled_from(_odd_melodies) | _melody, min_size=1, max_size=4)


def _option_value(action, usual):
    """A strategy for one option or positional of a command: a list of
    corpora (melody lists), (header, rows) of a CSV file, one of its
    choices, or a number or list of numbers."""
    option = action.option_strings[-1] if action.option_strings else action.dest
    if option in ("corpus", "--query"):
        value = st.lists(_corpus, min_size=1, max_size=2 if option == "corpus" else 1)
    elif option in _CSV:
        value = _CSV[option]
    else:
        choices = action.choices or ([k.value for k in ViewpointKind] if action.type is ViewpointKind else None)
        value = _mostly(choices or usual[option], [v for v in _EXTREMES if v not in _NEVER.get(option, ())])
        if getattr(action.type, "__name__", "").endswith(" list"):
            value = st.lists(value, min_size=1, max_size=3).map(",".join)
    return value if action.required or option in _ALWAYS else st.none() | value


def _options_of(parser, usual):
    return st.fixed_dictionaries({
        a.option_strings[-1] if a.option_strings else a.dest: _option_value(a, usual)
        for a in parser._actions
        if a.dest not in ("help", "out")
    })


def _run_drawn(command, drawn, tmp):
    """main on command with the drawn options, their files written under tmp:
    (exit code, stderr lines, argv, output path)."""
    out = Path(tmp) / "o.out"
    argv, positionals = [*command, "--out", str(out)], []
    for option, value in drawn.items():
        if value is None:
            continue
        if option in ("corpus", "--query"):
            paths = [Path(tmp) / f"{option.lstrip('-')}{j}.json" for j in range(len(value))]
            for path, melodies in zip(paths, value):
                path.write_text(_corpus_json(melodies))
            value = paths
        elif isinstance(value, tuple):
            header, rows = value
            value = [Path(tmp) / f"{option.lstrip('-')}.csv"]
            value[0].write_text("".join(",".join(r) + "\n" for r in [header, *rows]))
        else:
            value = [value]
        if option.startswith("--"):
            argv += [option, *map(str, value)]
        else:
            positionals += map(str, value)
    argv += positionals
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().splitlines(), argv, out


def _assert_a_result_or_one_error_line(rc, lines):
    assert rc in (0, 1)
    assert all(line.startswith(("warning: ", "error: ")) for line in lines), lines
    assert [line for line in lines if line.startswith("error: ")] == (lines[-1:] if rc else [])


_LEAVES = dict(_leaf_parsers(build_parser()))
_SCALE_OPTIONS = _options_of(_LEAVES[("genmodel", "scale")], _USUAL)


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=5000, derandomize=True, database=None)
@given(_SCALE_OPTIONS)
def test_any_genmodel_scale_argv_is_a_result_or_one_error_line(drawn):
    with tempfile.TemporaryDirectory() as tmp:
        rc, lines, _, _ = _run_drawn(("genmodel", "scale"), drawn, tmp)
        _assert_a_result_or_one_error_line(rc, lines)


_OTHER_OPTIONS = {
    command: _options_of(parser, {**_USUAL, **_SMALL}) for command, parser in _LEAVES.items() if command != ("genmodel", "scale")
}
# the means commands run in milliseconds, and draw up to 18 cells beside
# their options, so they take more examples to reach their work
_EXAMPLES = {("null-joint",): 150, ("subsample-corr",): 150}


@pytest.mark.parametrize("command", list(_OTHER_OPTIONS), ids=" ".join)
def test_any_argv_of_any_other_command_is_its_table_or_one_error_line(command):
    # tiny corpora and means CSVs; a run that exits 0 writes its parser's schema
    @settings(max_examples=_EXAMPLES.get(command, 30), deadline=5000, derandomize=True, database=None)
    @given(_OTHER_OPTIONS[command])
    def check(drawn):
        with tempfile.TemporaryDirectory() as tmp:
            rc, lines, argv, out = _run_drawn(command, drawn, tmp)
            _assert_a_result_or_one_error_line(rc, lines)
            if rc == 0:
                args = _LEAVES[command].parse_args(argv[len(command):])
                if args.format == "json":
                    assert all(list(row) == args.schema for row in json.loads(out.read_text()))
                else:
                    assert out.read_text().split("\n", 1)[0] == ",".join(args.schema)

    check()
