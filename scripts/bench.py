"""Run perfbench workloads over several seeds and write BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 scripts/bench.py --label base --workloads charpoly,echar,search --seeds 1,2,3,4,5
    python3 scripts/bench.py --label change --against ../parent --against-label parent

Each (seed, workload) pair runs ``perfbench/run.py --seconds 20 --trace 0``
once, in a fresh process, on the source tree of this checkout; the workloads of one
seed run back to back before the next seed starts.  With ``--against DIR``,
another checkout, each seed's workloads run on both trees, the tree that
goes first alternating from seed to seed, so that drift of a shared machine
over the minutes of a run reaches both alike, and the script writes
``BENCH_<against-label>.json`` for DIR beside ``BENCH_<label>.json``, both in
this checkout.  This script adds no workloads and no metrics of its own: it
only collects the end-to-end metrics that run.py prints on its last line
and takes their medians.

Then the named cases of CASES, larger than any perfbench op, run
RUNS times each in this process, on the same source tree, with their
caps raised per case.  With DIR, each case runs on both trees instead,
each time in a fresh process of this script, the tree that goes first
alternating from case to case.  The ``cases`` section records each one's wall
times, their median and the SHA-1 of its result's lines (a polynomial's
coefficient strings, or a scan's report as one JSON line), so two files
show whether a change moved a case's time and kept its result.  A case whose runs give different digests stops the
script.

The file records the commit, whether ``src/`` differs from it, the
Python and numpy versions and ``nproc``, all taken from run.py's
``perfbench env`` line, and numpy's BLAS library with the
``OPENBLAS_NUM_THREADS`` the runs inherit, so two BENCH files say
whether they are comparable.  A run that exits non-zero stops the script.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
RUNNER = Path("perfbench") / "run.py"  # in a checkout
WORKLOADS = ("charpoly", "echar", "search")
# run.py turns this into a fixed number of rounds per workload; one value
# for every BENCH file keeps them comparable
SECONDS = 20.0
# calls of each case; the first in a process pays for imports and caches
RUNS = 3


def _char_poly(n: int, k: int, edges, degree_cap: int, dim_cap: int) -> list[str]:
    from hyperspec import Hypergraph, RunConfig, char_poly

    config = RunConfig(degree_cap=degree_cap, dim_cap=dim_cap)
    return list(char_poly(Hypergraph.from_edges(n, k, list(edges)), config).to_coeff_strings())


def _e_char_poly(n: int, k: int, edges) -> list[str]:
    """The raw E-characteristic polynomial of a hypergraph, under the
    default caps."""
    from hyperspec import Hypergraph, e_char_poly

    return list(e_char_poly(Hypergraph.from_edges(n, k, list(edges)),
                            normalize=False).to_coeff_strings())


def _dense_det() -> list[str]:
    """det_tensor of a dense symmetric order-4 tensor in dimension 4:
    entries randint(-2, 2) from random.Random(1), drawn in
    combinations_with_replacement order."""
    from hyperspec import Tensor, det_tensor

    rng, entries = random.Random(1), {}
    for index in itertools.combinations_with_replacement(range(4), 4):
        value = rng.randint(-2, 2)
        entries.update(dict.fromkeys(itertools.permutations(index), value))
    return [str(det_tensor(Tensor.from_map(4, 4, entries)))]


def _scan(n: int, k: int) -> list[str]:
    """The invariant scan's report on the (n, k) universe, as one JSON line:
    a cold cache, so it computes every class polynomial."""
    from dataclasses import asdict

    from hyperspec import cospectral_invariant_scan

    return [json.dumps(asdict(cospectral_invariant_scan(n, k)), sort_keys=True)]


def _complete(n: int, k: int):
    return itertools.combinations(range(1, n + 1), k)


# the north-star cases, each with the caps it needs: degree n (k - 1)**(n - 1)
# and Macaulay size C(n (k - 2) + n, n - 1); the two scans, of 156 small
# tables and of 34 tables of size 210, and the K4^(3) E-char, of degree 30
# on a Macaulay table of size 210, need none
CASES: dict[str, Callable[[], list[str]]] = {
    "K6_3 char_poly": lambda: _char_poly(6, 3, _complete(6, 3), 192, 792),
    "K5_3+1 char_poly": lambda: _char_poly(6, 3, _complete(5, 3), 192, 792),
    "K4_3+3 char_poly": lambda: _char_poly(7, 3, _complete(4, 3), 448, 3003),
    "K5_4 char_poly": lambda: _char_poly(5, 4, _complete(5, 4), 405, 1365),
    "dense order-4 dim-4 det_tensor": _dense_det,
    "K4_3 E-char": lambda: _e_char_poly(4, 3, _complete(4, 3)),
    "n6k2 invariant-scan": lambda: _scan(6, 2),
    "n5k3 invariant-scan": lambda: _scan(5, 3),
}


def time_cases(cases: dict[str, Callable[[], list[str]]], root: Path = ROOT) -> dict[str, dict]:
    """{name: {"runs", "seconds", "sha1"}} of each case, run RUNS times in
    this process on the source tree of the checkout at root: the wall
    times, their median and the digest, which every run must repeat."""
    sys.path.insert(0, str(root / "src"))
    out = {}
    for name, case in cases.items():
        runs, digests = [], set()
        for _ in range(RUNS):
            start = time.perf_counter()
            strings = case()
            runs.append(round(time.perf_counter() - start, 4))
            digests.add(hashlib.sha1("\n".join(strings).encode()).hexdigest())
        if len(digests) > 1:
            raise SystemExit(f"bench: case {name} gave {len(digests)} different results")
        out[name] = {"runs": runs, "seconds": statistics.median(runs), "sha1": digests.pop()}
        print(f"bench: case {name}: {runs} s", file=sys.stderr)
    return out


def cases_of(root: Path, name: str) -> dict[str, dict]:
    """time_cases of the case name on the checkout at root, in a fresh
    process of this script."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--cases-of", str(root),
            "--case", name]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: the cases of {root} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout)


def run_once(workload: str, seed: int, root: Path = ROOT) -> tuple[dict, dict]:
    """(environment, result) of one perfbench run on the checkout at root."""
    argv = [sys.executable, str(root / RUNNER), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line.split(" ", 2)[2]) for line in lines
               if line.startswith("perfbench env "))
    return env, json.loads(lines[-1])


def blas() -> dict:
    """numpy's BLAS library, as the numpy of this interpreter, which runs
    the benchmark, reports it, and OPENBLAS_NUM_THREADS (None if unset)."""
    import numpy

    config = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": config.get("name"), "version": config.get("version"),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def src_modified(root: Path = ROOT) -> bool:
    status = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                            capture_output=True, text=True)
    return status.returncode != 0 or bool(status.stdout.strip())


def report(label: str, root: Path, runs: dict[str, list[dict]], env: dict, cases: dict) -> dict:
    """The BENCH file of one tree: its runs, their medians and its cases."""
    return {
        "label": label,
        "commit": env.get("commit"),
        "src_modified": src_modified(root),
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "nproc": env.get("nproc"),
        "blas": blas(),
        "seconds": SECONDS,
        "workloads": {
            w: {
                "runs": entries,
                "median": {
                    name: statistics.median(e["metrics"][name] for e in entries)
                    for name in entries[0]["metrics"]
                },
            }
            for w, entries in runs.items()
        },
        "cases": cases,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="names the output BENCH_<label>.json")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma list of perfbench workloads")
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma list of integer seeds")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="another checkout, run seed by seed in alternation with this one")
    parser.add_argument("--against-label", help="names DIR's BENCH_<against-label>.json")
    parser.add_argument("--cases-of", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cases_of is not None:
        names = [args.case] if args.case else list(CASES)
        print(json.dumps(time_cases({n: CASES[n] for n in names}, args.cases_of.resolve())))
        return 0
    if not args.label:
        parser.error("--label is required")
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        parser.error(f"--seeds must be a comma list of integers, got {args.seeds!r}")
    if not workloads or not seeds:
        parser.error("--workloads and --seeds each need at least one entry")
    labels, trees = {ROOT: args.label}, [ROOT]
    if (args.against is None) != (args.against_label is None):
        parser.error("--against and --against-label go together")
    if args.against is not None:
        other = args.against.resolve()
        if not (other / RUNNER).is_file() or not (other / "src").is_dir():
            parser.error(f"--against {args.against} is not a checkout with perfbench/run.py")
        if other == ROOT or args.against_label == args.label:
            parser.error("--against needs another checkout and another label")
        labels[other] = args.against_label
        trees.append(other)

    runs: dict[Path, dict[str, list[dict]]] = {t: {w: [] for w in workloads} for t in trees}
    envs: dict[Path, dict] = {t: {} for t in trees}
    for index, seed in enumerate(seeds):
        for tree in trees[index % 2 :] + trees[: index % 2]:
            for workload in workloads:
                envs[tree], result = run_once(workload, seed, tree)
                runs[tree][workload].append({
                    "seed": seed,
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                })
                print(f"bench: {labels[tree]} {workload} seed {seed}: "
                      f"{runs[tree][workload][-1]['metrics']}", file=sys.stderr)

    if len(trees) == 1:
        cases = {ROOT: time_cases(CASES)}
    else:  # each case on both trees in fresh processes, alternating which goes first
        cases = {tree: {} for tree in trees}
        for index, name in enumerate(CASES):
            for tree in trees[index % 2 :] + trees[: index % 2]:
                cases[tree].update(cases_of(tree, name))
    for tree in trees:
        out = ROOT / f"BENCH_{labels[tree]}.json"
        text = json.dumps(report(labels[tree], tree, runs[tree], envs[tree], cases[tree]),
                          indent=1, sort_keys=True)
        out.write_text(text + "\n", encoding="utf-8")
        print(f"bench: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
