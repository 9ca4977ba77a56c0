"""Seeded op streams for the three benchmark workloads, and their checks.

A run of a workload is a fixed number of rounds.  Every round holds the
same ops on the same fixed inputs: the seed and the round only relabel
vertices and coordinates.  Relabelling leaves every polynomial and every
verdict unchanged, so the stored reference outputs cover all seeds, and
the cost of an op barely depends on the seed.

An op has a ``run`` callable, the only part that is timed, and a
``check`` callable that inspects the captured output afterwards.  A
check returns ``OK``, ``REFUSED`` (the op raised exactly where the
reference records the documented refusal) or a message saying what is
wrong.

This module imports hyperspec at import time, so it must be imported
after the benchmark's set-up has imported the package for the last time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import hyperspec
import hyperspec.cli
from hyperspec import Hypergraph, Tensor
from hyperspec.errors import HyperspecError

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDEN_DIR = ROOT / "tests" / "data"
# relative to the checkout root, so paths printed by the CLI are the same
# on every machine
WORK_DIR = Path("perfbench") / ".work"

OK = "ok"
REFUSED = "refused"

# A run is a fixed number of whole rounds, so the parent and a change run
# exactly the same ops on every machine: these counts at the benchmark's
# 20 seconds, scaled with --seconds.  Each count puts op_tail_s, the 11th
# largest op time, inside a cluster of like ops (see the round functions).
# At the seed commit on a 2-vCPU x86-64 VM a round takes about 4.5 s
# (charpoly), 3.2 s (echar) and 7 s (search, and 2 s more in the first
# round), so a search run holds about 37 s of ops.
ROUNDS_AT_20_S = {"charpoly": 4, "echar": 6, "search": 5}

# the 16 edge sets of 3-graphs on 4 vertices fall into five classes by
# edge count, of 1, 4, 6, 4 and 1 sets.  A round holds one set of each
# class and a second 2-edge set, and each round takes the next sets of
# every class, so four rounds cover all 16.
EDGE_COUNT_SLOTS = (0, 1, 2, 2, 3, 4)

# the fixed integer tensors of each round, by fixed_tensor index
CHARPOLY_TENSORS = (0, 1, 2)
ECHAR_ORDER3 = (0,)
ECHAR_ORDER4 = (1,)

# 6-vertex graphs (k = 2) given as edge bitmasks over the lexicographic
# pairs.  The classes differ in verdict and mate count.  Each round runs
# ds on a relabelling of each class, the second with --checkpoint.  ds
# takes about 2.8 s on 1919 and 1.9 s on the others, so the 5 rounds of a
# 20-second run hold 5 ds ops on 1919 and 10 on the others, and op_tail_s,
# the 11th largest op time, is the 6th largest of those 10.
DS_CLASSES = (106, 1919, 759)  # 106 is not determined by its spectrum
EXAMPLE_PAIR_SIZES = (3, 4, 5, 6, 7, 8)
SCANS = ((5, 2), (4, 3))


@dataclass
class Op:
    workload: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    prepare: Callable[[], None] | None = None
    refused: bool = False  # the reference records a refusal for this input


# --- seeded inputs -------------------------------------------------------------


def _upper_indices(order: int, dim: int):
    return itertools.combinations_with_replacement(range(dim), order)


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS_AT_20_S[workload] * seconds / 20))


def fixed_tensor(family: str, index: int) -> tuple[int, int, dict[tuple[int, ...], int]]:
    """(order, dim, upper-triangle entries) of one fixed integer tensor."""
    rng = random.Random(f"perfbench-pool/{family}/{index}")
    if family == "charpoly":
        order, dim, span = 3, 4, 3
    elif family == "echar3":
        order, dim, span = 3, 3, 2
    elif family == "echar4":
        order, dim, span = 4, 3, 2
    else:
        raise ValueError(family)
    upper = {idx: rng.randint(-span, span) for idx in _upper_indices(order, dim)}
    return order, dim, upper


def symmetric_tensor(
    order: int, dim: int, upper: dict[tuple[int, ...], int], perm: tuple[int, ...]
) -> Tensor:
    """Symmetric tensor with coordinates renamed by perm (a permutation similarity)."""
    values: dict[tuple[int, ...], Fraction] = {}
    for idx, value in upper.items():
        if value == 0:
            continue
        renamed = tuple(perm[i] for i in idx)
        for arrangement in set(itertools.permutations(renamed)):
            values[arrangement] = Fraction(value)
    return Tensor.from_map(order, dim, values)


def permuted_hypergraph(n: int, k: int, mask: int, perm: tuple[int, ...]) -> Hypergraph:
    subsets = list(itertools.combinations(range(1, n + 1), k))
    edges = [
        tuple(sorted(perm[v - 1] for v in subsets[i]))
        for i in range(len(subsets))
        if mask >> i & 1
    ]
    return Hypergraph.from_edges(n, k, edges)


def _random_perm(rng: random.Random, n: int, base: int = 0) -> tuple[int, ...]:
    perm = list(range(base, base + n))
    rng.shuffle(perm)
    return tuple(perm)


def _matrix(rows) -> Tensor:
    return Tensor(2, len(rows), tuple(Fraction(v) for row in rows for v in row))


def _signed_perm(images, signs) -> Tensor:
    rows = [[0] * 3 for _ in range(3)]
    for i, (img, s) in enumerate(zip(images, signs)):
        rows[i][img] = s
    return _matrix(rows)


THIRD = Fraction(1, 3)
IDENTITY = _matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
# the orthogonal transforms of acceptance criterion 8
SIGNED_PERMS = (
    _signed_perm([1, 2, 0], [1, 1, 1]),
    _signed_perm([0, 2, 1], [-1, 1, 1]),
    _signed_perm([0, 1, 2], [1, -1, -1]),
    _signed_perm([1, 0, 2], [1, 1, 1]),
)
REFLECTION = _matrix(
    [[2 * THIRD - (i == j) for j in range(3)] for i in range(3)]
)


# --- reference outputs ------------------------------------------------------------


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_goldens() -> tuple[dict, dict]:
    char = json.loads((GOLDEN_DIR / "single_edge_n3_char.json").read_text())
    echar = json.loads((GOLDEN_DIR / "single_edge_n3_echar.json").read_text())
    return char, echar


def coeffs(poly) -> list[str]:
    return list(poly.to_coeff_strings())


# --- charpoly ------------------------------------------------------------------


def _charpoly_op(label: str, make: Callable[[], Tensor], ref: dict, degree: int,
                 edge_count: int | None, golden: list[str] | None) -> Op:
    def run():
        a = make()
        phi = hyperspec.spectra.char_poly(a)
        try:
            det = hyperspec.spectra.det_tensor(a)
        except HyperspecError as exc:
            det = exc
        return phi, det

    def check(out) -> str:
        phi, det = out
        c = coeffs(phi)
        if phi.degree != degree or not phi.is_monic():
            return f"char poly not monic of degree {degree}"
        if edge_count is not None:
            # Cooper & Dutle: for 3-graphs on 4 vertices the next two
            # coefficients vanish and the third is -6 |E|
            if phi.coefficient(degree - 1) != 0 or phi.coefficient(degree - 2) != 0:
                return "coefficient of L^(d-1) or L^(d-2) is nonzero"
            if phi.coefficient(degree - 3) != -6 * edge_count:
                return f"coefficient of L^(d-3) is not -6*{edge_count}"
        if golden is not None and c != golden:
            return "char poly differs from the golden file"
        if c != ref["char"]:
            return "char poly differs from the reference"
        if isinstance(det, HyperspecError):
            if ref["det"] == "refused:" + type(det).__name__:
                return REFUSED
            return f"det_tensor raised {type(det).__name__}"
        # phi_A(0) = (-1)^d det(A)  (Hu, Huang, Ling & Qi 2013)
        if phi.coefficient(0) != (-1) ** degree * det:
            return "phi(0) != (-1)^d det_tensor"
        if not ref["det"].startswith("refused:") and str(det) != ref["det"]:
            return "det_tensor differs from the reference"
        return OK

    return Op("charpoly", label, run, check, refused=ref["det"].startswith("refused:"))


def charpoly_round(seed: int, index: int, ref: dict, quick: bool = False) -> list[Op]:
    """Six of the 16 edge sets of 3-graphs on 4 vertices (see
    EDGE_COUNT_SLOTS), the fixed tensors and the edge: 10 ops."""
    rng = random.Random(f"charpoly/{seed}/{index}")
    golden_char, _ = load_goldens()
    by_count: dict[int, list[int]] = {}
    for mask in range(16):
        by_count.setdefault(bin(mask).count("1"), []).append(mask)
    ops: list[Op] = []
    perm = _random_perm(rng, 4, base=1)
    slots = EDGE_COUNT_SLOTS if not quick else (2, 4)
    for slot, count in enumerate(slots):
        masks = by_count[count]
        turn = index * slots.count(count) + slots[:slot].count(count)
        h = permuted_hypergraph(4, 3, masks[turn % len(masks)], perm)
        entry = ref["charpoly"]["edge_sets"][str(count)]
        ops.append(_charpoly_op(
            f"edges{count}", lambda h=h: hyperspec.adjacency_tensor(h), entry, 32,
            count, None,
        ))
    for t in CHARPOLY_TENSORS[: 1 if quick else None]:
        order, dim, upper = fixed_tensor("charpoly", t)
        a = symmetric_tensor(order, dim, upper, _random_perm(rng, dim))
        entry = ref["charpoly"]["tensors"][str(t)]
        ops.append(_charpoly_op("tensor", lambda a=a: a, entry, 32, None, None))
    edge = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    ops.append(_charpoly_op(
        "single_edge", lambda: hyperspec.adjacency_tensor(edge),
        ref["charpoly"]["single_edge"], 12, None,
        golden_char["char_poly"]["coefficients"],
    ))
    return ops


# --- echar ---------------------------------------------------------------------


def _echar_op(label: str, a: Tensor, p: Tensor | None, expected: list[str],
              normalize: bool, group: list[list[str]] | None) -> Op:
    def run():
        x = a if p is None else hyperspec.mat_sim(p, a)
        return hyperspec.spectra.e_char_poly(x, normalize=normalize)

    def check(out) -> str:
        c = coeffs(out)
        if group is not None:
            # E-characteristic polynomials are invariant under orthogonal
            # similarity: every transform of one tensor must agree
            if group and c != group[0]:
                return "E-char differs across orthogonal transforms"
            group.append(c)
        if c != expected:
            return "E-char differs from the reference"
        return OK

    return Op("echar", label, run, check)


def echar_round(seed: int, index: int, ref: dict, quick: bool = False) -> list[Op]:
    """The order-3 and the order-4 tensor each under I and a signed
    permutation, and one slow op: the order-3 tensor under the reflection
    in even rounds, the single edge in odd ones, raw and normalized in
    turn.  The round picks the signed permutations, so four rounds use
    all four.  The slow ops take about twice an order-3 op; the 6 rounds
    of a 20-second run hold 6 of them, so op_tail_s, the 11th largest op
    time, is the 5th largest of the 12 other order-3 ops."""
    rng = random.Random(f"echar/{seed}/{index}")
    _, golden_echar = load_goldens()
    ops: list[Op] = []
    families = (("echar3", "order3", ECHAR_ORDER3), ("echar4", "order4", ECHAR_ORDER4))
    for family, kind, indices in families:
        for t in indices:
            order, dim, upper = fixed_tensor(family, t)
            a = symmetric_tensor(order, dim, upper, _random_perm(rng, dim))
            expected = ref["echar"][kind][str(t)]
            group: list[list[str]] = []
            transforms = [IDENTITY, SIGNED_PERMS[(index + order) % 4]]
            if kind == "order3" and index % 2 == 0:
                transforms.append(REFLECTION)
            for p in transforms[: 1 if quick else None]:
                label = f"{kind}_reflection" if p is REFLECTION else kind
                ops.append(_echar_op(label, a, p, expected, True, group))
    if index % 2 == 1:
        raw = index % 4 == 1
        key = "e_char_poly_raw" if raw else "e_char_poly_normalized"
        edge = hyperspec.adjacency_tensor(Hypergraph.from_edges(3, 3, [(1, 2, 3)]))
        ops.append(_echar_op(
            "single_edge", edge, None, golden_echar[key]["coefficients"], not raw, None
        ))
    rng.shuffle(ops)
    return ops


# --- search --------------------------------------------------------------------


def cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hyperspec.cli.main(argv)
    return code, out.getvalue()


def _oracle_char(rows: list[list[int]]):
    from oracles import classical_char_poly

    return classical_char_poly([[Fraction(v) for v in row] for row in rows])


def _graph_rows(n: int, edges) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for a, b in edges:
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = 1
    return rows


def _mates_have_target_poly(target_edges, mates: list[list[list[int]]]) -> bool:
    """Cofactor oracle: every mate's det(B I - A) equals the target's phi(B).

    Both sides are monic of degree 6 with |coefficients| < 2**15 (every
    eigenvalue of a 6-vertex graph lies in [-5, 5]), so agreement at
    B = 2**16 forces equal polynomials.
    """
    from oracles import int_det

    base = 1 << 16
    target = _oracle_char(_graph_rows(6, target_edges)).evaluate(base)
    for edges in mates:
        rows = _graph_rows(6, edges)
        shifted = [
            [(base if i == j else 0) - rows[i][j] for j in range(6)] for i in range(6)
        ]
        if int_det(shifted) != target:
            return False
    return True


def _ds_op(work: Path, h: Hypergraph, class_mask: int, ref: dict,
           checkpoint: bool) -> Op:
    path = work / f"ds_{class_mask}.hg"
    ckpt = work / f"ds_{class_mask}.json"
    argv = ["ds", str(path)] + (["--checkpoint", str(ckpt)] if checkpoint else [])
    target_mask = sum(
        1 << i
        for i, s in enumerate(itertools.combinations(range(1, 7), 2))
        if s in h.edges
    )

    def prepare():
        path.write_text(hyperspec.format_hypergraph(h), encoding="utf-8")
        if ckpt.exists():
            ckpt.unlink()

    def check(out) -> str:
        code, text = out
        if code != 0:
            return f"ds exited {code}"
        payload = json.loads(text)
        subsets = list(itertools.combinations(range(1, 7), 2))
        expected = [
            [list(subsets[i]) for i in range(15) if m >> i & 1]
            for m in ref["cospectral_masks"]
            if m != target_mask
        ]
        if payload["mates"] != expected:
            return "ds mates differ from the reference"
        for key in ("all_isomorphic", "candidates", "pruned", "polynomials_computed"):
            if payload[key] != ref[key]:
                return f"ds {key} differs from the reference"
        if not _mates_have_target_poly(h.edges, payload["mates"]):
            return "a ds mate fails the cofactor oracle"
        if checkpoint and not ckpt.exists():
            return "ds wrote no checkpoint"
        return OK

    return Op("search", "ds", lambda: cli(argv), check, prepare)


def _digest_op(label: str, argv: list[str], expected: str, extra=None,
               prepare=None) -> Op:
    def check(out) -> str:
        code, text = out
        if code != 0:
            return f"{label} exited {code}"
        if extra is not None:
            problem = extra(json.loads(text))
            if problem:
                return problem
        if hashlib.sha256(text.encode()).hexdigest() != expected:
            return f"{label} output differs from the reference"
        return OK

    return Op("search", label, lambda: cli(argv), check, prepare)


def _no_violations(payload) -> str:
    return "invariant-scan reported violations" if payload["violations"] else ""


def _switch_verified(payload) -> str:
    if payload.get("verdict") is not True or payload.get("matches_expected") is not True:
        return "verify-switch did not certify the expected switch"
    return ""


def search_round(seed: int, index: int, ref: dict, quick: bool = False) -> list[Op]:
    """ds on each class, and example-pair then verify-switch for each size.
    The first round also runs each invariant-scan cold and resumed: the
    cold n=4, k=3 scan computes degree-32 char polys, and once a run it
    stays a small share of the workload's time."""
    rng = random.Random(f"search/{seed}/{index}")
    work = WORK_DIR / "search"
    work.mkdir(parents=True, exist_ok=True)
    refs = ref["search"]
    ops: list[Op] = []
    for j, class_mask in enumerate(DS_CLASSES[: 1 if quick else None]):
        h = permuted_hypergraph(6, 2, class_mask, _random_perm(rng, 6, base=1))
        ops.append(_ds_op(work, h, class_mask, refs["ds"][str(class_mask)], j == 1))
    scans = SCANS[: 1 if quick else None] if index == 0 else ()
    for n, k in scans:
        ckpt = work / f"scan_{n}_{k}.json"
        argv = ["invariant-scan", "--n", str(n), "--k", str(k), "--checkpoint", str(ckpt)]
        key = f"{n},{k}"
        ops.append(_digest_op(
            "scan_cold", argv, refs["scan"][key]["cold"], _no_violations,
            prepare=lambda ckpt=ckpt: ckpt.unlink() if ckpt.exists() else None,
        ))
        ops.append(_digest_op(
            "scan_resume", argv, refs["scan"][key]["resume"], _no_violations
        ))
    for n in EXAMPLE_PAIR_SIZES[: 1 if quick else None]:
        out_dir = work / f"ep{n}"
        ops.append(_digest_op(
            "example_pair",
            ["example-pair", "--n", str(n), "--dir", str(out_dir)],
            refs["example_pair"][str(n)],
            prepare=lambda out_dir=out_dir: shutil.rmtree(out_dir, ignore_errors=True),
        ))
        ops.append(verify_switch_op(out_dir, refs["verify_switch"][str(n)]))
    return ops


def verify_switch_op(out_dir: Path, expected: str) -> Op:
    argv: list[str] = []

    def prepare():
        part = json.loads((out_dir / "partition.json").read_text(encoding="utf-8"))
        argv[:] = [
            "verify-switch", str(out_dir / "H.hg"),
            "--v1", ",".join(str(v) for v in part["v1"]),
            "--expect", str(out_dir / "G.hg"),
        ]

    return _digest_op("verify_switch", argv, expected, _switch_verified, prepare)


ROUNDS = {"charpoly": charpoly_round, "echar": echar_round, "search": search_round}


def reset_work_dir() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR, exist_ok=True)
