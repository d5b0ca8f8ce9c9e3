"""End-to-end CLI behaviour: outputs, error handling, determinism."""

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

from melic.cli import main
from melic.corpus import serialize_canonical
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


def make_means_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["corpus_id", "region", "type", "H_chroma", "H_duration", "I_chroma_duration"])
        w.writerows(rows)


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


def test_bad_options_are_rejected_before_any_melody(capsys, corpus_file):
    expect_error(capsys, ["repetition", "--lmin", "1", str(corpus_file)], "--lmin")
    expect_error(capsys, ["mi", "--seed", "1", "--shuffles", "-1", str(corpus_file)], "--shuffles")


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


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import melic.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# --- property: no input ends in a traceback ----------------------------------

_note = st.tuples(
    st.one_of(st.none(), st.integers(55, 72)),  # None is a rest
    st.sampled_from(["1/2", "1", "3/2"]),  # duration
    st.sampled_from(["0", "1/2", "1"]),  # gap to the next onset; 0 gives equal onsets
)
_melody = st.lists(_note, min_size=1, max_size=5).filter(lambda ns: any(p is not None for p, _, _ in ns))

PER_MELODY = [["entropy", "--viewpoint", k.value] for k in ViewpointKind] + [
    ["mi", "--seed", "0", "--shuffles", "2"],
    ["repetition"],
    ["totalinfo"],
]


def _corpus_json(melodies) -> str:
    mels = []
    for i, notes in enumerate(melodies):
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
            rows = rows_of(out.read_bytes())
            skips = [line for line in err.getvalue().splitlines() if " melody 'm" in line and "skipped: " in line]
            if argv == ["summary"]:
                assert len(rows) == (len(skips) < len(melodies)), argv
            else:
                assert len(rows) + len(skips) == len(melodies), argv
