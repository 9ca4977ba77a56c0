"""Argument checks of scripts/bench.py; no perfbench run is started."""

from __future__ import annotations

import importlib.util
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
