"""hyperspec benchmark: seeded workloads through the public API and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload charpoly --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
  charpoly  char_poly + det_tensor on 3-graphs on 4 vertices, six fixed
            integer order-3 tensors of dimension 4 and the 3-vertex edge
  echar     e_char_poly(mat_sim(P, A)) on order-3 and order-4 tensors of
            dimension 3 under the orthogonal transforms of criterion 8
  search    in-process CLI runs: ds, invariant-scan with checkpoints,
            example-pair followed by verify-switch

One process, one thread.  The timed loop runs a fixed number of whole
rounds, --seconds over a nominal round time, so every run on every
machine does the same ops.  Set-up (importing hyperspec and filling its
lazy tables for the workload's sizes) is timed SETUP_SAMPLES times,
spread over the run, and its mean reported.  Every op's output is
checked after the loop, outside the timed region.

The wall-time metrics (ops_per_s, op_tail_s, setup_s) are divided by
the run's host slowdown, measured by the calibration kernel in
hostspeed.py between ops, so they read as seconds on the reference host
whatever share of the run the shared host spent in a slow stretch.  The
info line gives the slowdown and the plain wall-time figures, and
perfbench/.work/samples-<workload>-<seed>.json every op, kernel and
set-up time.

With --trace 0 the last line carries the end-to-end metrics.  With
--trace 1 the same rounds run once untraced and once with every layer
boundary wrapped (spans.py), and the last line carries the per-layer
metrics; spans are written to perfbench/.work/.  The per-layer times are
the traced pass's plain wall seconds, for shares within one run; op_p50_s
and trace.overhead_frac are divided by the host slowdown of their pass.

Outputs are compared with reference.json (written by record_reference.py
at the seed commit) and with identities that do not rely on the code;
selftest.py checks the benchmark itself.

Exit codes: 0 result printed, 2 the benchmark cannot run here (no
hyperspec source, HYPERSPEC_PRIME_SEED set, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many ops above it
SETUP_SAMPLES = 24  # set-up timings per untraced run, spread over its ops

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class CannotRun(Exception):
    """The benchmark cannot run in this directory or environment."""


def _check_environment() -> None:
    if not (ROOT / "src" / "hyperspec" / "__init__.py").is_file():
        raise CannotRun(f"no hyperspec source under {ROOT / 'src'}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise CannotRun("tests/oracles.py is missing; the output checks need it")
    if "HYPERSPEC_PRIME_SEED" in os.environ:
        raise CannotRun(
            "HYPERSPEC_PRIME_SEED is set; it changes the moduli and so the modular work"
        )


def _hyperspec_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "hyperspec" or n.startswith("hyperspec.")}


def _warm_up(workload: str) -> None:
    """Fill the lazy tables for the workload's sizes through the public API."""
    import hyperspec

    def unit(order: int, dim: int):
        return hyperspec.Tensor.from_map(order, dim, {(i,) * order: 1 for i in range(dim)})

    # det_tensor of a unit tensor builds the Macaulay structure, the column
    # index and the first primes for that (order, dim)
    if workload == "charpoly":
        sizes = [(3, 4), (3, 3)]
    elif workload == "echar":
        sizes = [(3, 4), (4, 3)]  # odd order 3 in dim 3 has 4 variables
    else:
        sizes = [(2, 6), (2, 5), (3, 4)]
        for n, k in ((6, 2), (5, 2), (4, 3)):
            hyperspec.canonical_form(hyperspec.Hypergraph.empty(n, k))
    for order, dim in sizes:
        hyperspec.det_tensor(unit(order, dim))


def set_up(workload: str) -> None:
    """Import hyperspec for the ops and warm it up, untimed."""
    import numpy  # noqa: F401  a dependency, imported once outside the timing

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT / "tests"))
    import hyperspec  # noqa: F401

    _warm_up(workload)


def time_set_up(workload: str) -> float:
    """Time one fresh import of hyperspec with its warm-up.

    The modules the ops use are set aside and put back afterwards, so a
    sample can be taken between ops: the samples then span the run, as
    the op times do, instead of one moment of the machine's speed.
    Objects the run already holds are frozen out of the collector, so a
    sample costs what it would in a new process.
    """
    live = _hyperspec_modules()
    for name in live:
        del sys.modules[name]
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        importlib.import_module("hyperspec")
        _warm_up(workload)
        return time.perf_counter() - t0
    finally:
        for name in _hyperspec_modules():
            del sys.modules[name]
        sys.modules.update(live)
        gc.unfreeze()


def run_op(op):
    """Run one op; its record is [op, output, error, seconds].

    Garbage left by earlier ops is collected first, untimed, so an op
    starts as a fresh CLI process would and is not billed for another
    op's objects.
    """
    if op.prepare is not None:
        op.prepare()
    gc.collect()
    t0 = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # an op that raises is counted, not fatal
        out, err = None, exc
    return [op, out, err, time.perf_counter() - t0]


def check_records(records) -> list[str]:
    """Status of every op: workloads.OK, workloads.REFUSED or what went wrong."""
    statuses = []
    for op, out, err, _ in records:
        if err is not None:
            statuses.append(f"{op.kind} raised {type(err).__name__}: {err}")
            continue
        try:
            statuses.append(op.check(out))
        except Exception as exc:  # a malformed output must not stop the report
            statuses.append(f"{op.kind} check raised {type(exc).__name__}: {exc}")
    return statuses


def summarize(records, statuses, slowdown: float = 1.0) -> dict:
    """Counts and op-time figures, with op times divided by the host slowdown."""
    import workloads

    times = [r[3] / slowdown for r in records]
    total = sum(times)
    good = sum(1 for s in statuses if s == workloads.OK)
    ordered = sorted(times)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "attempted": n,
        "failed": n - good,
        "wrong": sum(1 for s in statuses if s not in (workloads.OK, workloads.REFUSED)),
        "refused": sum(1 for s in statuses if s == workloads.REFUSED),
        "op_seconds": total,
        "ops_per_s": good / total,
        "op_p50_s": statistics.median(times),
        "op_tail_s": ordered[rank],
        "tail_percentile": 100.0 * (rank + 1) / n,
        "fail_frac": (n - good) / n,
    }


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hyperspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": 1,
    }


def _report_failures(records, statuses) -> None:
    import workloads

    seen = set()
    for (op, *_), status in zip(records, statuses):
        if status not in (workloads.OK, workloads.REFUSED) and status not in seen:
            seen.add(status)
            print(f"perfbench: FAIL {op.workload}/{op.kind}: {status}", file=sys.stderr)


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              quick: bool = False, corrupt=None) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    set_up(workload)
    import hostspeed
    import spans as tracing
    import workloads

    workloads.reset_work_dir()
    ref = workloads.load_reference()
    gc.collect()
    records, traced = [], []
    tracer = tracing.Tracer() if trace else None
    # with --trace 1 each round also runs a traced copy, right after the
    # untraced one, so drifts in machine speed hit both sides of
    # trace.overhead_frac and the layer shares cover the whole op mix
    rounds = 1 if quick else workloads.round_count(workload, seconds)
    make_round = workloads.ROUNDS[workload]
    setup_times = []
    kernel_times, traced_kernel_times = [hostspeed.sample()], []
    for index in range(rounds):
        tracing.assert_clean()
        ops = make_round(seed, index, ref, quick)
        every = -(-rounds * len(ops) // SETUP_SAMPLES)
        for op in ops:
            records.append(run_op(op))
            if tracer is None and len(records) % every == 0:
                setup_times.append(time_set_up(workload))
            kernel_times.append(hostspeed.sample())
        if tracer is not None:
            ops = make_round(seed, index, ref, quick)  # inputs are built untraced
            tracer.install()
            try:
                for op in ops:
                    traced.append(run_op(op))
                    traced_kernel_times.append(hostspeed.sample())
            finally:
                tracer.uninstall()
    if corrupt is not None:
        corrupt(records)
    statuses = check_records(records)
    _report_failures(records, statuses)
    slowdown = hostspeed.slowdown(kernel_times)
    plain = summarize(records, statuses, slowdown)
    info = {
        "workload": workload, "seed": seed, "rounds": rounds,
        "attempted": plain["attempted"], "refused": plain["refused"],
        "wrong": plain["wrong"], "fail_frac": plain["fail_frac"],
        "op_seconds": plain["op_seconds"],
        "op_p50_s": plain["op_p50_s"],
        "op_tail": f"p{plain['tail_percentile']:.1f} of {plain['attempted']} ops",
        "setup_samples": len(setup_times),
    }
    correct = plain["wrong"] == 0
    result_counts = plain

    if not trace:
        metrics = {
            "ops_per_s": plain["ops_per_s"],
            "op_tail_s": plain["op_tail_s"],
            "setup_s": statistics.mean(setup_times) / slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wall = summarize(records, statuses)
        info.update({
            "host_slowdown": slowdown,
            "wall": {"ops_per_s": wall["ops_per_s"], "op_tail_s": wall["op_tail_s"],
                     "op_seconds": wall["op_seconds"],
                     "setup_s": statistics.mean(setup_times)},
        })
        samples = {"ops": [[r[0].kind, r[3]] for r in records],
                   "kernel": kernel_times, "setup": setup_times}
        (workloads.WORK_DIR / f"samples-{workload}-{seed}.json").write_text(
            json.dumps(samples))
        units = END_TO_END_UNITS
    else:
        traced_statuses = check_records(traced)
        _report_failures(traced, traced_statuses)
        counted = summarize(traced, traced_statuses)
        correct = correct and counted["wrong"] == 0
        result_counts = counted
        metrics, layer_s = tracer.metrics(counted["attempted"])
        # both passes ran the same ops, so the ratio of ops_per_s is this;
        # each pass is divided by the host slowdown measured around its ops
        traced_slowdown = hostspeed.slowdown(traced_kernel_times)
        metrics["trace.overhead_frac"] = (
            1.0 - plain["op_seconds"] * traced_slowdown / counted["op_seconds"])
        metrics["fail_frac"] = counted["fail_frac"]
        metrics["op_p50_s"] = plain["op_p50_s"]
        units = dict(tracing.PER_LAYER_METRICS)
        per_op = counted["op_seconds"] / counted["attempted"]
        hypergraph_s = sum(v for k, v in metrics.items()
                           if k.startswith("hypergraph.") and k.endswith("_s"))
        info.update({
            "traced_op_seconds": counted["op_seconds"],
            "host_slowdown": slowdown,
            "traced_host_slowdown": traced_slowdown,
            "missing_boundaries": tracer.missing,
            "layer_inclusive_share": {k: v / per_op for k, v in sorted(layer_s.items())},
            "hypergraph_share": hypergraph_s / per_op,
            "modular_det_mod_share": metrics["modular.det_mod_s"] / per_op,
        })
        spans_path = workloads.WORK_DIR / f"trace-{workload}-{seed}.jsonl"
        tracer.write(spans_path)
        info["spans_file"] = str(spans_path)

    print("perfbench env " + json.dumps(environment(), sort_keys=True))
    print("perfbench info " + json.dumps(info, sort_keys=True))
    return {
        "correct": correct,
        "attempted": result_counts["attempted"],
        "failed": result_counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("charpoly", "echar", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one reduced round per pass, for the self-test")
    args = parser.parse_args(argv)
    try:
        _check_environment()
    except CannotRun as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                       quick=args.quick)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
