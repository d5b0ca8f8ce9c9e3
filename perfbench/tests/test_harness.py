"""Tests of the benchmark harness itself (not of melic):

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import layer_sums  # noqa: E402


def _files(tmp_path, name, seed):
    d = tmp_path / f"{name}-{seed}"
    workloads.WORKLOADS[name](seed, d)
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


def test_same_seed_gives_identical_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = _files(tmp_path / "a", name, 7)
        b = _files(tmp_path / "b", name, 7)
        assert a and a == b


def test_other_seed_gives_other_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = _files(tmp_path, name, 7)
        b = _files(tmp_path, name, 8)
        assert a.keys() == b.keys()
        assert all(a[k] != b[k] for k in a)


def test_inputs_have_the_promised_shape():
    corpus = json.loads(gen.make_corpora("folk", 3)["folk0.json"])
    notes = [n for m in corpus["melodies"] for n in m["notes"]]
    durations = {n["duration"] for n in notes}
    assert durations <= {"1/2", "1/1", "3/2", "2/1"}
    rests = sum(n["pitch"] is None for n in notes) / len(notes)
    assert 0.01 < rests < 0.06
    assert any(len(m["notes"]) == 1 for m in corpus["melodies"])


def _mi_case(tmp_path):
    inputs, cmds = workloads.corpus(4, tmp_path / "in")
    mi = cmds[0]
    corpora = workloads._load(gen.make_corpora("folk", 4))
    lines = ["id,I,I_ran,I_star"]
    for cid in corpora:
        for m in corpora[cid]:
            h = workloads._entropy
            i = h(m.chroma) + h(m.dur) - h(list(zip(m.chroma, m.dur)))
            lines.append(f"{m.id},{i:.6g},0.125,{i - 0.125:.6g}")
    return mi, "\n".join(lines) + "\n"


def test_check_accepts_correct_mi_output(tmp_path):
    mi, good = _mi_case(tmp_path)
    assert run._command_problems(mi, 0, "", good, None) == []


def test_check_flags_a_perturbed_value(tmp_path):
    mi, good = _mi_case(tmp_path)
    header, first, rest = good.split("\n", 2)
    mid, i, i_ran, i_star = first.split(",")
    bad = "\n".join([header, f"{mid},{float(i) * 1.001 + 0.001:.6g},{i_ran},{i_star}", rest])
    assert run._command_problems(mi, 0, "", bad, None)
    assert check.columns_match(good, bad)
    # a later pass must reproduce the first pass byte for byte
    assert run._command_problems(mi, 0, "", bad, good) == ["output differs from the first pass"]


def test_check_flags_exit_code_and_traceback(tmp_path):
    mi, good = _mi_case(tmp_path)
    assert run._command_problems(mi, 1, "error: boom\n", good, None) == ["exit code 1"]
    tb = 'Traceback (most recent call last):\n  File "x.py", line 1\nKeyError: 1\n'
    assert run._command_problems(mi, 0, tb, good, None) == ["printed a traceback"]


def test_columns_match_allows_extra_columns():
    ref = "A,n\n1,2\n"
    assert check.columns_match(ref, "A,n,n_failed\n1,2,0\n") == []
    assert check.columns_match(ref, "A,n_failed\n1,0\n")


def test_scale_tolerance():
    ref = "A,n_samples,P_below,logL\n7,8000,0.5,-0.2\n12,12000,0.01,-1.07\n"
    noisy = "A,n_samples,P_below,logL,n_failed\n7,8050,0.51,-0.21,0\n12,11950,0.012,-1.08,0\n"
    assert check.scale_matches(ref, noisy, 20000) == []
    shifted = "A,n_samples,P_below,logL\n7,8000,0.6,-0.2\n12,12000,0.01,-1.07\n"
    assert check.scale_matches(ref, shifted, 20000)
    moved = "A,n_samples,P_below,logL\n7,9000,0.5,-0.2\n12,11000,0.01,-1.07\n"
    assert check.scale_matches(ref, moved, 20000)


def test_times_are_calibrated_by_the_probe():
    passes = [
        {"probe_s": 2 * run.PROBE_NOMINAL_S, "setup_s": 2.0, "cmds": [2.0, 4.0, 6.0], "wall_s": 12.0, "peak_rss_mb": 100.0},
        {"probe_s": 2 * run.PROBE_NOMINAL_S, "setup_s": 4.0, "cmds": [4.0, 6.0, 8.0], "wall_s": 18.0, "peak_rss_mb": 102.0},
        {"probe_s": 2 * run.PROBE_NOMINAL_S, "setup_s": 3.0, "cmds": [3.0, 5.0, 7.0], "wall_s": 15.0, "peak_rss_mb": 101.0},
    ]
    values = run.e2e_values(run.e2e_metrics(passes))
    # the probe ran at half the nominal speed, so every time is halved
    assert values == {"setup_s": 1.5, "wall_s": 7.5, "cmd1_s": 1.5, "cmd2_s": 2.5, "cmd3_s": 3.5, "peak_rss_mb": 101.0}


def _span(i, parent, start, end, name="x.op"):
    return spans.Span(id=i, name=name, parent=parent, start=start, end=end)


def test_self_time_subtracts_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 9.0),
    ]
    st = spans.self_times(tree)
    assert st == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(st.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 6.0), _span(2, 0, 2.0, 8.0)]
    assert spans.self_times(tree)[0] == 3.0
    assert spans.union_length([(1.0, 6.0), (2.0, 8.0), (9.0, 9.5)]) == 7.5


def test_layer_sums_account_for_the_wall_time():
    tree = [
        _span(0, None, 1.0, 9.0, "genmodel.simulate"),
        _span(1, 0, 2.0, 6.0, "kernels.walk"),
        _span(2, 0, 3.0, 8.0, "kernels.walk"),
        _span(3, None, 9.5, 10.0, "corpus.write_table"),
    ]
    tree[0].counts = {"threads": 2, "n_failed": 0, "n_sequences": 10}
    sums = layer_sums(tree, wall=12.0)
    assert sums["cli.self_s"] == 12.0 - 8.5
    assert sums["genmodel.simulate_self_s"] == 2.0
    assert sums["kernels.walk_s"] == 9.0
    assert sums["parallel_overlap_s"] == 3.0
    assert sums["layers_self_s"] + sums["cli.self_s"] - sums["parallel_overlap_s"] == 12.0


def test_recorder_parents_pool_threads_under_the_main_thread():
    import threading

    rec = spans.Recorder()
    outer = rec.open("genmodel.simulate")
    t = threading.Thread(target=lambda: rec.close(rec.open("kernels.walk")))
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    rec.close(outer)
    assert [s.parent for s in rec.spans] == [None, outer.id]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
