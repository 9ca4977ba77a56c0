"""Acceptance gate: ten checks covering the public claims of the package.

Each test prints one CRITERION line so a tee'd run can be skimmed for the
verdicts.  Expected values are either frozen golden files, closed forms
checked by hand, or independent cofactor oracles; nothing here trusts the
code under test for its own expected output.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import hyperspec
from oracles import (
    classical_char_poly,
    enumerate_all,
    from_rows,
    int_det,
    is_orthogonal,
    permutation_matrix,
    symmetric_from_upper,
)

from hyperspec.analysis import (
    PolyCache,
    cospectral_invariant_scan,
    ds_verify,
    simplex_destruction_min,
)
from hyperspec.cli import main
from hyperspec.hypergraph import (
    Hypergraph,
    adjacency_tensor,
    complement,
    is_isomorphic,
    parse_hypergraph,
)
from hyperspec.macaulay import PolySystem, resultant_value
from hyperspec.polynomial import UniPoly
from hyperspec.spectra import char_poly, det_tensor, e_char_poly
from hyperspec.tensor import mat_sim

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num}: FAIL", flush=True)
        raise
    print(f"CRITERION {num}: PASS", flush=True)


@pytest.fixture(scope="session")
def n5_single_edge_char():
    # the one deliberately expensive computation in the default suite
    h = Hypergraph.from_edges(5, 3, [(1, 2, 3)])
    return char_poly(adjacency_tensor(h))


def test_criterion_01_switched_pairs_certified(tmp_path, capsys):
    with criterion(1):
        for n in (3, 4, 5, 6):
            out_dir = tmp_path / f"pair{n}"
            out_dir.mkdir()
            started = time.monotonic()
            assert main(["example-pair", "--n", str(n), "--dir", str(out_dir)]) == 0
            capsys.readouterr()
            assert (
                main(
                    [
                        "verify-switch",
                        str(out_dir / "H.hg"),
                        "--v1",
                        "1,2,3,4",
                        "--expect",
                        str(out_dir / "G.hg"),
                    ]
                )
                == 0
            )
            payload = json.loads(capsys.readouterr().out)
            elapsed = time.monotonic() - started
            assert payload["verdict"] is True
            assert payload["matches_expected"] is True
            h = parse_hypergraph((out_dir / "H.hg").read_text())
            g = parse_hypergraph((out_dir / "G.hg").read_text())
            assert is_isomorphic(h, g) is None
            assert elapsed < 5.0


def test_criterion_02_degree_law(n5_single_edge_char):
    with criterion(2):
        for n, expected in ((3, 12), (4, 32)):
            h = Hypergraph.from_edges(n, 3, [(1, 2, 3)])
            assert char_poly(adjacency_tensor(h)).degree == expected
            assert char_poly(adjacency_tensor(Hypergraph.empty(n, 3))).degree == expected
        assert n5_single_edge_char.degree == 80
        assert n5_single_edge_char.is_monic()


def test_criterion_03_matrix_case_collapse():
    with criterion(3):
        rng = random.Random(1203)
        for trial in range(100):
            n = 4 if trial % 2 == 0 else 5
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    rows[i][j] = rows[j][i] = value
            t = from_rows(rows)
            expected = classical_char_poly(rows)
            assert char_poly(t) == expected
            assert e_char_poly(t) == expected.normalized()


def test_criterion_04_resultant_sanity():
    with criterion(4):
        for nvars, deg in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
            polys = []
            for i in range(nvars):
                exponent = tuple(deg if j == i else 0 for j in range(nvars))
                polys.append({exponent: Fraction(1)})
            system = PolySystem(nvars, tuple(polys), (deg,) * nvars)
            assert resultant_value(system) == 1
        rng = random.Random(1204)
        for trial in range(100):
            n = 3 if trial % 2 == 0 else 4
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            t = from_rows([[Fraction(v) for v in row] for row in rows])
            assert det_tensor(t) == int_det(rows)


def test_criterion_05_spectral_determination_n4():
    with criterion(5):
        started = time.monotonic()
        cache = PolyCache()
        universe = list(enumerate_all(4, 3))
        assert len(universe) == 16
        for h in universe:
            verdict = ds_verify(h, cache=cache)
            assert verdict.all_isomorphic, h.edges
        # the named instances from the claim, spelled out
        full = Hypergraph.complete(4, 3)
        minus_e = Hypergraph.from_edges(4, 3, full.edges - {(1, 2, 3)})
        for named in (full, minus_e, complement(full), complement(minus_e)):
            assert ds_verify(named, cache=cache).all_isomorphic
        assert time.monotonic() - started < 600.0


def test_criterion_06_invariant_scan_n4():
    with criterion(6):
        report = cospectral_invariant_scan(4, 3)
        assert report.total == 16
        assert report.violations == ()


def test_criterion_07_destruction_minima():
    with criterion(7):
        started = time.monotonic()
        cases = {(6, 3, 1): 3, (6, 3, 2): 5, (6, 3, 3): 6, (7, 3, 2): 7}
        for (n, k, r), expected in cases.items():
            report = simplex_destruction_min(n, k, r)
            assert report.minimum == expected
            assert report.expected_minimum == expected
            assert report.matches_expected
            assert report.achievers_are_exactly_common_core
        assert time.monotonic() - started < 300.0


def test_criterion_08_similarity_invariance():
    with criterion(8):
        third = Fraction(1, 3)
        transforms = [
            permutation_matrix([1, 2, 0]),
            _signed_perm([0, 2, 1], [-1, 1, 1]),
            _signed_perm([0, 1, 2], [1, -1, -1]),
            from_rows(
                [
                    [Fraction(0), Fraction(1), Fraction(0)],
                    [Fraction(1), Fraction(0), Fraction(0)],
                    [Fraction(0), Fraction(0), Fraction(1)],
                ]
            ),
            from_rows(
                [
                    [2 * third - 1, 2 * third, 2 * third],
                    [2 * third, 2 * third - 1, 2 * third],
                    [2 * third, 2 * third, 2 * third - 1],
                ]
            ),
        ]
        assert all(is_orthogonal(p) for p in transforms)
        rng = random.Random(881)
        checked = 0
        for _ in range(10):
            entries = {}
            for i in range(3):
                for j in range(i, 3):
                    for k in range(j, 3):
                        entries[(i, j, k)] = Fraction(rng.randint(-2, 2))
            a = symmetric_from_upper(3, 3, entries)
            base = e_char_poly(a)
            for p in transforms:
                assert e_char_poly(mat_sim(p, a)) == base
                checked += 1
        assert checked >= 50


def _signed_perm(images, signs):
    rows = [[Fraction(0)] * 3 for _ in range(3)]
    for i, (img, s) in enumerate(zip(images, signs)):
        rows[i][img] = Fraction(s)
    return from_rows(rows)


def test_criterion_09_golden_polynomials():
    with criterion(9):
        h = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
        a = adjacency_tensor(h)
        char_golden = json.loads((DATA / "single_edge_n3_char.json").read_text())
        echar_golden = json.loads((DATA / "single_edge_n3_echar.json").read_text())
        phi = char_poly(a)
        assert phi == UniPoly.from_coeff_strings(
            char_golden["char_poly"]["coefficients"]
        )
        assert e_char_poly(a, normalize=False) == UniPoly.from_coeff_strings(
            echar_golden["e_char_poly_raw"]["coefficients"]
        )
        assert e_char_poly(a) == UniPoly.from_coeff_strings(
            echar_golden["e_char_poly_normalized"]["coefficients"]
        )
        # the all-ones eigenpair forces a root at 1; the empty index slices
        # force one at 0
        assert phi.evaluate(Fraction(1)) == 0
        assert phi.evaluate(Fraction(0)) == 0


def _cli_stdout(argv: list[str], cwd: Path, blas_threads: str) -> str:
    """stdout of python -m hyperspec.cli in a fresh process on this source
    tree, with numpy's BLAS held to blas_threads threads."""
    src = str(Path(hyperspec.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": blas_threads}
    proc = subprocess.run([sys.executable, "-m", "hyperspec.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_criterion_10_determinism_and_exactness(tmp_path):
    with criterion(10):
        path = tmp_path / "single.hg"
        from hyperspec.hypergraph import format_hypergraph

        path.write_text(
            format_hypergraph(Hypergraph.from_edges(3, 3, [(1, 2, 3)]))
        )
        # the same bytes under one and two BLAS threads, each in a fresh process
        outputs = []
        for argv in (["echarpoly", str(path)], ["invariant-scan", "--n", "4", "--k", "3"]):
            one, two = (_cli_stdout(argv, tmp_path, threads) for threads in ("1", "2"))
            assert one == two and one, argv
            outputs.append(one)
        # every number on the result path is an int or a Fraction
        a = adjacency_tensor(Hypergraph.from_edges(3, 3, [(1, 2, 3)]))
        for coeff in char_poly(a).coeffs:
            assert isinstance(coeff, Fraction)
        for coeff in e_char_poly(a).coeffs:
            assert isinstance(coeff, Fraction)
        for value in a.entries:
            assert isinstance(value, Fraction)
        banned = _find_floats(json.loads(outputs[0]))
        assert banned == [], banned


def _find_floats(node, path="$"):
    hits = []
    if isinstance(node, float):
        hits.append(path)
    elif isinstance(node, dict):
        for key, value in node.items():
            hits.extend(_find_floats(value, f"{path}.{key}"))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            hits.extend(_find_floats(value, f"{path}[{i}]"))
    return hits
