"""Argument checks, the alternating order of --against and the cases
section of scripts/bench.py; no perfbench run is started."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def refuse(argv, *args, **kwargs):
        raise AssertionError(f"started a process: {argv}")

    monkeypatch.setattr(module.subprocess, "run", refuse)
    return module


@pytest.mark.parametrize("argv", [
    ["--workloads", ""],
    ["--workloads", ","],
    ["--seeds", ""],
    ["--seeds", ",,"],
    ["--workloads", "echar,nosuch"],
    ["--seeds", "1,two"],
])
def test_bad_arguments_exit_2_before_any_run(bench, argv, capsys):
    label = "argcheck-never-written"
    with pytest.raises(SystemExit) as exc:
        bench.main(["--label", label, *argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (bench.ROOT / f"BENCH_{label}.json").exists()


def test_blas_records_the_library_and_thread_count(bench, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    got = bench.blas()
    assert got["openblas_num_threads"] == "1" and isinstance(got["name"], str)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert bench.blas()["openblas_num_threads"] is None


def test_cases_record_wall_time_and_digest(bench, monkeypatch, tmp_path):
    # a stubbed case list and stubbed perfbench runs: the BENCH file gets a
    # cases section with each case's RUNS wall times, their median and the
    # SHA-1 of its coefficient strings, one a line, and no process is started
    import hashlib

    calls = []

    def case():
        calls.append(1)
        return ["1", "-3", "0"]

    monkeypatch.setattr(bench, "CASES", {"stub": case})
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench.sys, "path", list(bench.sys.path))  # time_cases prepends src
    monkeypatch.setattr(bench, "src_modified", lambda root: False)
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"ops_per_s": {"value": 2.0}}}
    monkeypatch.setattr(bench, "run_once", lambda workload, seed, root: ({"commit": "abc"}, result))
    assert bench.main(["--label", "stub", "--workloads", "echar", "--seeds", "1"]) == 0
    report = json.loads((tmp_path / "BENCH_stub.json").read_text())
    [(name, got)] = report["cases"].items()
    assert name == "stub" and len(calls) == bench.RUNS == 3
    assert got["sha1"] == hashlib.sha1(b"1\n-3\n0").hexdigest()
    assert len(got["runs"]) == 3 and min(got["runs"]) >= 0
    assert got["seconds"] == sorted(got["runs"])[1]
    assert report["workloads"]["echar"]["median"] == {"ops_per_s": 2.0}


def test_a_case_whose_runs_disagree_stops_the_script(bench, monkeypatch):
    results = iter([["1"], ["1"], ["2"]])
    monkeypatch.setattr(bench.sys, "path", list(bench.sys.path))
    with pytest.raises(SystemExit, match="case flaky gave 2 different results"):
        bench.time_cases({"flaky": lambda: next(results)})


def _checkout(path):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    (path / "src").mkdir()
    return path


@pytest.mark.parametrize("extra", [
    ["--against", "{other}"],
    ["--against-label", "parent"],
    ["--against", "{missing}", "--against-label", "parent"],
    ["--against", "{bare}", "--against-label", "parent"],
    ["--against", "{root}", "--against-label", "parent"],
    ["--against", "{other}", "--against-label", "argcheck-never-written"],
])
def test_bad_against_arguments_exit_2_before_any_run(bench, extra, tmp_path, capsys):
    other, bare = _checkout(tmp_path / "other"), tmp_path / "bare"
    bare.mkdir()
    paths = {"other": other, "missing": tmp_path / "missing", "bare": bare, "root": bench.ROOT}
    label = "argcheck-never-written"
    with pytest.raises(SystemExit) as exc:
        bench.main(["--label", label, *[a.format(**paths) for a in extra]])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (bench.ROOT / f"BENCH_{label}.json").exists()


def test_against_alternates_the_tree_that_goes_first(bench, monkeypatch, tmp_path):
    # each seed runs every workload on one tree, then on the other, and each
    # case runs on one tree, then on the other; the tree that goes first
    # alternates from seed to seed and from case to case, and each tree's
    # BENCH file holds its own runs and cases, both written in this checkout
    root, other = _checkout(tmp_path / "root"), _checkout(tmp_path / "other")
    monkeypatch.setattr(bench, "ROOT", root)
    monkeypatch.setattr(bench, "src_modified", lambda tree: tree == other)
    order = []

    def run_once(workload, seed, tree):
        order.append((seed, tree.name, workload))
        value = 1.0 if tree == root else 2.0
        return {"commit": tree.name}, {"correct": True, "attempted": 1, "failed": 0,
                                       "metrics": {"ops_per_s": {"value": value + seed}}}

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "CASES", {"first": None, "second": None, "third": None})
    timed = []

    def cases_of(tree, name):
        timed.append((name, tree.name))
        return {name: {"sha1": tree.name}}

    monkeypatch.setattr(bench, "cases_of", cases_of)
    argv = ["--label", "change", "--against", str(other), "--against-label", "parent",
            "--workloads", "echar,search", "--seeds", "1,2,3"]
    assert bench.main(argv) == 0
    firsts = [tree for i, (seed, tree, _) in enumerate(order) if i % 4 == 0]
    assert firsts == ["root", "other", "root"]
    assert order[:4] == [(1, "root", "echar"), (1, "root", "search"),
                         (1, "other", "echar"), (1, "other", "search")]
    for label, tree, value in (("change", "root", 1.0), ("parent", "other", 2.0)):
        report = json.loads((root / f"BENCH_{label}.json").read_text())
        assert report["label"] == label and report["commit"] == tree
        assert report["src_modified"] == (tree == "other")
        assert report["cases"] == {name: {"sha1": tree} for name in bench.CASES}
        runs = report["workloads"]["echar"]["runs"]
        assert [r["metrics"]["ops_per_s"] for r in runs] == [value + s for s in (1, 2, 3)]
    assert not (other / "BENCH_parent.json").exists()
    # each case runs on both trees, the tree that goes first alternating too
    assert timed == [("first", "root"), ("first", "other"), ("second", "other"),
                     ("second", "root"), ("third", "root"), ("third", "other")]


def test_dense_det_case_keeps_the_recorded_digest(bench):
    # the one case that runs the elimination kernel, on blocks of 182 and
    # 100 rows that no perfbench op reaches: its digest is the one recorded
    # in BENCH_one-reader.json
    import hashlib

    recorded = json.loads((bench.ROOT / "BENCH_one-reader.json").read_text())
    case = "dense order-4 dim-4 det_tensor"
    digest = hashlib.sha1("\n".join(bench.CASES[case]()).encode()).hexdigest()
    assert digest == recorded["cases"][case]["sha1"]
