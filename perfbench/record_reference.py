"""Record perfbench/reference.json: the outputs every benchmark op is compared with.

Run once, from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

The workloads only relabel vertices and coordinates of fixed inputs, and
relabelling changes no polynomial or verdict, so one output per fixed
tensor, per edge count and per ds class covers every seed.  The ds
reference stores every labelled graph cospectral with the class
representative; a relabelled target's mates are that set minus itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _char_entry(hyperspec, a) -> dict:
    from hyperspec.errors import HyperspecError

    entry = {"char": list(hyperspec.char_poly(a).to_coeff_strings())}
    try:
        entry["det"] = str(hyperspec.det_tensor(a))
    except HyperspecError as exc:
        entry["det"] = "refused:" + type(exc).__name__
    return entry


def _digest(code: int, text: str, what: str) -> str:
    if code != 0:
        raise SystemExit(f"{what} exited {code}; cannot record a reference")
    return hashlib.sha256(text.encode()).hexdigest()


def record() -> dict:
    import hyperspec
    import workloads as w

    ref: dict = {"charpoly": {}, "echar": {}, "search": {}}

    edge_sets = {}
    for mask in (0, 1, 3, 7, 15):  # one 3-graph on 4 vertices per edge count
        h = w.permuted_hypergraph(4, 3, mask, (1, 2, 3, 4))
        edge_sets[str(h.edge_count)] = _char_entry(hyperspec, hyperspec.adjacency_tensor(h))
    ref["charpoly"]["edge_sets"] = edge_sets
    ref["charpoly"]["tensors"] = {
        str(i): _char_entry(
            hyperspec, w.symmetric_tensor(*w.fixed_tensor("charpoly", i), (0, 1, 2, 3))
        )
        for i in w.CHARPOLY_TENSORS
    }
    edge = hyperspec.Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    ref["charpoly"]["single_edge"] = _char_entry(hyperspec, hyperspec.adjacency_tensor(edge))

    for family, key, indices in (("echar3", "order3", w.ECHAR_ORDER3),
                                 ("echar4", "order4", w.ECHAR_ORDER4)):
        ref["echar"][key] = {
            str(i): list(hyperspec.e_char_poly(
                w.symmetric_tensor(*w.fixed_tensor(family, i), (0, 1, 2))
            ).to_coeff_strings())
            for i in indices
        }

    work = w.WORK_DIR / "search"
    work.mkdir(parents=True, exist_ok=True)
    subsets = list(itertools.combinations(range(1, 7), 2))
    ds = {}
    for class_mask in w.DS_CLASSES:
        h = w.permuted_hypergraph(6, 2, class_mask, tuple(range(1, 7)))
        path = work / "ds_reference.hg"
        path.write_text(hyperspec.format_hypergraph(h), encoding="utf-8")
        code, text = w.cli(["ds", str(path)])
        _digest(code, text, "ds")
        payload = json.loads(text)
        masks = {class_mask}
        for mate in payload["mates"]:
            masks.add(sum(1 << subsets.index(tuple(e)) for e in mate))
        ds[str(class_mask)] = {
            "cospectral_masks": sorted(masks),
            **{k: payload[k] for k in ("all_isomorphic", "candidates", "pruned",
                                       "polynomials_computed")},
        }
    ref["search"]["ds"] = ds

    scans = {}
    for n, k in w.SCANS:
        ckpt = work / f"scan_{n}_{k}.json"
        if ckpt.exists():
            ckpt.unlink()
        argv = ["invariant-scan", "--n", str(n), "--k", str(k), "--checkpoint", str(ckpt)]
        scans[f"{n},{k}"] = {
            "cold": _digest(*w.cli(argv), "invariant-scan"),
            "resume": _digest(*w.cli(argv), "invariant-scan resume"),
        }
    ref["search"]["scan"] = scans

    ref["search"]["example_pair"] = {}
    ref["search"]["verify_switch"] = {}
    for n in w.EXAMPLE_PAIR_SIZES:
        out_dir = work / f"ep{n}"
        ref["search"]["example_pair"][str(n)] = _digest(
            *w.cli(["example-pair", "--n", str(n), "--dir", str(out_dir)]), "example-pair"
        )
        op = w.verify_switch_op(out_dir, "")
        op.prepare()
        ref["search"]["verify_switch"][str(n)] = _digest(*op.run(), "verify-switch")
    return ref


def main() -> int:
    if "HYPERSPEC_PRIME_SEED" in os.environ:
        print("unset HYPERSPEC_PRIME_SEED first", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT / "tests"))
    import workloads

    workloads.reset_work_dir()
    ref = record()
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
