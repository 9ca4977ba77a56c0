"""Argument checks and the cases section of scripts/bench.py; no perfbench
run is started."""

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
    monkeypatch.setattr(bench, "src_modified", lambda: False)
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"ops_per_s": {"value": 2.0}}}
    monkeypatch.setattr(bench, "run_once", lambda workload, seed: ({"commit": "abc"}, result))
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
