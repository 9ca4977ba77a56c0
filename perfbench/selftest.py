"""Quick self-test of the benchmark itself; exits 0 when every check holds.

    python3 perfbench/selftest.py

For each workload it makes one reduced round (--quick) untraced, traced
and with one output corrupted in memory, each in a fresh process, and
checks that:
  - the last line names exactly the metrics of BENCHMARK.json, with their units;
  - the corrupted output is counted: one more failed op, correct is false;
  - the traced run counts calls in every layer the workload is meant to exercise;
  - wrappers are detected until they are removed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer call counters that must be nonzero on each workload
EXERCISED = {
    "charpoly": (
        "modular.det_mod_calls", "modular.crt_calls", "determinants.calls",
        "determinants.modular_calls", "spectra.char_poly_calls",
        "spectra.det_tensor_calls", "macaulay.structure_calls",
        "macaulay.resultant_value_calls", "polynomial.interpolate_calls",
        "hypergraph.adjacency_tensor_calls", "parallel.pmap_items",
    ),
    "echar": (
        "modular.det_mod_calls", "determinants.calls", "determinants.modular_calls",
        "spectra.e_char_poly_calls", "spectra.divisor_dets", "macaulay.structure_calls",
        "polynomial.interpolate_calls", "polynomial.normalized_s",
        "tensor.mat_sim_calls", "parallel.pmap_items",
    ),
    "search": (
        "cli.calls", "analysis.get_char_calls", "analysis.checkpoint_saves",
        "analysis.checkpoint_load_s", "switching.calls", "spectra.char_poly_calls",
        "determinants.bareiss_calls", "hypergraph.canonical_form_calls",
        "hypergraph.count_simplices_calls", "hypergraph.from_bitmask_calls",
        "hypergraph.is_isomorphic_calls", "parallel.pmap_items",
    ),
}


def _corrupt(records) -> None:
    """Damage the first correct op's output the way a wrong result would look."""
    import hyperspec

    record = next(r for r in records if not r[0].refused)
    op, out = record[0], record[1]
    if op.workload == "charpoly":
        phi, det = out
        record[1] = (phi + hyperspec.UniPoly.constant(1), det)
    elif op.workload == "echar":
        record[1] = out + hyperspec.UniPoly.monomial(1)
    else:
        code, text = out
        payload = json.loads(text)
        if payload.get("mates"):
            payload["mates"].pop()
        else:
            payload["total"] = payload.get("total", 0) + 1
        record[1] = (code, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _in_process(workload: str, corrupt: bool) -> None:
    """Run one quick benchmark in this process and print its result."""
    import os

    sys.path.insert(0, str(HERE))
    os.chdir(ROOT)
    import run

    result = run.benchmark(workload, 1, 1.0, trace=False, quick=True,
                           corrupt=_corrupt if corrupt else None)
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        spans.assert_clean()
    except RuntimeError:
        pass
    else:
        raise SystemExit("assert_clean missed an installed wrapper")
    finally:
        tracer.uninstall()
    spans.assert_clean()
    print(json.dumps(result))


def _run(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] in ("--plain", "--corrupt"):
        _in_process(sys.argv[2], sys.argv[1] == "--corrupt")
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = _run(["perfbench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace), "--quick"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metrics or units differ")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: outputs are not correct")
            if trace:
                for name in EXERCISED[workload]:
                    if not result["metrics"][name]["value"] > 0:
                        problems.append(f"{workload}: traced {name} is zero")
        plain = _run(["perfbench/selftest.py", "--plain", workload])
        damaged = _run(["perfbench/selftest.py", "--corrupt", workload])
        if damaged["correct"] or damaged["failed"] != plain["failed"] + 1:
            problems.append(f"{workload}: a corrupted output was not counted")
        print(f"selftest {workload}: done", flush=True)
    for problem in problems:
        print(f"selftest FAIL: {problem}", file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
