"""One-off generator for the frozen polynomial fixtures in tests/data/.

Computes, with sympy only, the characteristic polynomial and the
E-characteristic polynomial of the adjacency tensor of the 3-uniform
hypergraph on vertices {1,2,3} with the single edge {1,2,3}.  The package
under src/ must reproduce these values by an independent code path; the
JSON files written here are committed and never regenerated silently.

Construction used here (textbook resultant of n homogeneous polynomials):
degree D = sum(d_i - 1) + 1; rows and columns are indexed by the monomials
of total degree D; the row of monomial mu holds the coefficients of
(mu / x_i**d_i) * f_i where i is the least variable index with
x_i**d_i | mu; the resultant is det(M) / det(M'), M' the submatrix on
monomials divisible by x_i**d_i for at least two distinct i.

Run:  python scripts/make_goldens.py
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

import sympy
from sympy import Poly, symbols
from sympy.polys.matrices import DomainMatrix
from sympy import ZZ


def monomials(nvars: int, total: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), total):
        exp = [0] * nvars
        for v in combo:
            exp[v] += 1
        out.append(tuple(exp))
    return sorted(out)


def assign(mono: tuple[int, ...], degrees: tuple[int, ...]) -> int:
    for i, d in enumerate(degrees):
        if mono[i] >= d:
            return i
    raise AssertionError("every degree-D monomial is divisible by some x_i^d_i")


def macaulay_matrices(polys, degrees):
    """polys: list of dicts exponent-tuple -> coefficient (sympy scalars)."""
    nvars = len(degrees)
    total = sum(d - 1 for d in degrees) + 1
    monos = monomials(nvars, total)
    index = {m: j for j, m in enumerate(monos)}
    rows = []
    for mono in monos:
        i = assign(mono, degrees)
        shift = list(mono)
        shift[i] -= degrees[i]
        row = [sympy.Integer(0)] * len(monos)
        for exp, coeff in polys[i].items():
            col = index[tuple(s + e for s, e in zip(shift, exp))]
            row[col] += coeff
        rows.append(row)
    nonreduced = [
        j
        for j, m in enumerate(monos)
        if sum(1 for i, d in enumerate(degrees) if m[i] >= d) >= 2
    ]
    big = sympy.Matrix(rows)
    minor = big[nonreduced, nonreduced]
    return big, minor, monos, nonreduced


def resultant_symbolic(polys, degrees, var):
    big, minor, _, _ = macaulay_matrices(polys, degrees)
    det_big = big.det(method="bareiss")
    det_minor = minor.det(method="bareiss") if minor.rows else sympy.Integer(1)
    quo, rem = sympy.div(det_big, det_minor, var)
    assert rem == 0, "minor determinant must divide exactly"
    return sympy.expand(quo)


def det_int(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    dm = DomainMatrix([[ZZ(v) for v in row] for row in rows], (n, n), ZZ)
    return int(dm.det())


# --- self-validation on cases with known closed forms -----------------------

lam = symbols("lam")


def check_linear_case() -> None:
    rng = random.Random(7)
    x = symbols("x0:4")
    a = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            a[i][j] = a[j][i] = rng.randint(-5, 5)
    polys = []
    for i in range(4):
        poly = {}
        for j in range(4):
            exp = tuple(1 if t == j else 0 for t in range(4))
            poly[exp] = sympy.Integer(-a[i][j]) + (lam if i == j else 0)
        polys.append(poly)
    got = resultant_symbolic(polys, (1, 1, 1, 1), lam)
    want = sympy.expand(sympy.Matrix(a).charpoly(lam).as_expr())
    assert sympy.expand(got - want) == 0, "linear case must match matrix charpoly"


def check_diagonal_cubic_case() -> None:
    # f_i = (lam - 1) x_i^2 for n = 3: resultant (lam-1)^(3*2^2)
    polys = []
    for i in range(3):
        exp = tuple(2 if t == i else 0 for t in range(3))
        polys.append({exp: lam - 1})
    got = resultant_symbolic(polys, (2, 2, 2), lam)
    want = sympy.expand((lam - 1) ** 12)
    assert sympy.expand(got - want) == 0, "diagonal case must be a pure power"


def check_sylvester_case() -> None:
    rng = random.Random(11)
    t = symbols("t")
    for _ in range(20):
        a, b, c, d, e, f = (rng.randint(-6, 6) for _ in range(6))
        if a == 0 or d == 0:
            continue
        polys = [
            {(2, 0): sympy.Integer(a), (1, 1): sympy.Integer(b), (0, 2): sympy.Integer(c)},
            {(2, 0): sympy.Integer(d), (1, 1): sympy.Integer(e), (0, 2): sympy.Integer(f)},
        ]
        big, minor, _, _ = macaulay_matrices(polys, (2, 2))
        assert minor.rows == 0
        got = big.det(method="bareiss")
        want = sympy.resultant(a * t**2 + b * t + c, d * t**2 + e * t + f, t)
        assert abs(got) == abs(want), "binary quadratic case must match Sylvester"


# --- the two golden polynomials ---------------------------------------------


def char_poly_single_edge():
    # adjacency entries 1/2 on the six permutations of (1,2,3); row i of the
    # tensor-times-vector map is the product of the other two coordinates
    x1, x2, x3 = symbols("x1 x2 x3")
    polys = [
        {(2, 0, 0): lam, (0, 1, 1): sympy.Integer(-1)},
        {(0, 2, 0): lam, (1, 0, 1): sympy.Integer(-1)},
        {(0, 0, 2): lam, (1, 1, 0): sympy.Integer(-1)},
    ]
    big, minor, monos, nonred = macaulay_matrices(polys, (2, 2, 2))
    assert big.shape == (15, 15), big.shape
    assert minor.shape == (3, 3), minor.shape
    phi = resultant_symbolic(polys, (2, 2, 2), lam)
    p = Poly(phi, lam)
    coeffs = [int(c) for c in reversed(p.all_coeffs())]
    assert len(coeffs) == 13 and coeffs[12] == 1, "must be monic of degree 12"
    assert p.eval(0) == 0 and p.eval(1) == 0
    # roots are 0 and the three cube roots of unity
    a = next(i for i, c in enumerate(coeffs) if c != 0)
    rest = Poly(phi / lam**a, lam)
    b, r = divmod(12 - a, 3)
    assert r == 0 and sympy.expand(rest.as_expr() - (lam**3 - 1) ** b) == 0
    print(f"char poly = lam^{a} * (lam^3 - 1)^{b}")
    return coeffs


def substitute_linear(polys, nvars, T):
    """Substitute x_i -> sum_j T[i][j] x_j (T integer, det +1).

    The resultant of the transformed system equals det(T)**e times the
    original for an integer e, so a determinant-one substitution preserves
    it exactly.  Used to escape systems whose square-free structure makes
    every least-index minor vanish identically.
    """
    out = []
    for poly in polys:
        acc = {}
        for exp, c in poly.items():
            terms = {tuple([0] * nvars): c}
            for i, e in enumerate(exp):
                for _ in range(e):
                    nxt = {}
                    for mono, cc in terms.items():
                        for j in range(nvars):
                            if T[i][j] == 0:
                                continue
                            m2 = list(mono)
                            m2[j] += 1
                            m2 = tuple(m2)
                            nxt[m2] = nxt.get(m2, 0) + cc * T[i][j]
                    terms = nxt
            for m2, cc in terms.items():
                acc[m2] = acc.get(m2, 0) + cc
        out.append({m: sympy.Integer(c) for m, c in acc.items() if c != 0})
    return out


def permute_pairs(polys, degrees, perm):
    """Simultaneously reorder (polynomial, variable) pairs; resultant-exact."""
    out = []
    for j in range(len(degrees)):
        np_ = {}
        for exp, c in polys[perm[j]].items():
            new_exp = tuple(exp[perm[t]] for t in range(len(degrees)))
            np_[new_exp] = np_.get(new_exp, 0) + c
        out.append(np_)
    return out, tuple(degrees[perm[j]] for j in range(len(degrees)))


def e_char_poly_single_edge():
    # odd order: append the auxiliary quadric x.x - beta^2 and eliminate all
    # four variables; lambda enters only through the -lam*beta*x_i terms.
    # In the natural coordinates every least-index minor vanishes identically
    # (all 24 pair permutations included), so apply a fixed determinant-one
    # change of variables first; the resultant is unchanged.
    degrees = (2, 2, 2, 2)
    T = [[1, 1, -1, 0], [0, 1, 0, 1], [0, -1, 1, 0], [0, 0, 0, 1]]
    perm = (1, 3, 0, 2)

    def polys_at(l0):
        raw = [
            {(0, 1, 1, 0): sympy.Integer(1), (1, 0, 0, 1): sympy.Integer(-l0)},
            {(1, 0, 1, 0): sympy.Integer(1), (0, 1, 0, 1): sympy.Integer(-l0)},
            {(1, 1, 0, 0): sympy.Integer(1), (0, 0, 1, 1): sympy.Integer(-l0)},
            {
                (2, 0, 0, 0): sympy.Integer(1),
                (0, 2, 0, 0): sympy.Integer(1),
                (0, 0, 2, 0): sympy.Integer(1),
                (0, 0, 0, 2): sympy.Integer(-1),
            },
        ]
        sheared = substitute_linear(raw, 4, T)
        polys, degs = permute_pairs(sheared, degrees, perm)
        assert degs == degrees
        return polys

    big, minor, monos, nonred = macaulay_matrices(polys_at(1), degrees)
    assert big.shape == (56, 56) and minor.shape == (24, 24)
    # the quadric (no lambda) sits at slot perm.index(3); every other row
    # carries lambda, bounding the interpolation degree
    g_slot = perm.index(3)
    lam_rows = sum(1 for m in monos if assign(m, degrees) != g_slot)
    npoints = lam_rows + 1
    print(f"e-char: {lam_rows} lambda rows, {npoints} points")

    points: list[tuple[int, int]] = []
    k = 0
    while len(points) < npoints:
        candidates = [0] if k == 0 else [k, -k]
        k += 1
        for l0 in candidates:
            if len(points) >= npoints:
                break
            big, minor, _, _ = macaulay_matrices(polys_at(l0), degrees)
            d_minor = det_int([[int(v) for v in row] for row in minor.tolist()])
            if d_minor == 0:
                print(f"skipping degenerate point {l0}")
                continue
            d_big = det_int([[int(v) for v in row] for row in big.tolist()])
            q, r = divmod(d_big, d_minor)
            assert r == 0
            points.append((l0, q))

    expr = sympy.interpolate([(sympy.Integer(a), sympy.Integer(v)) for a, v in points], lam)
    p = Poly(sympy.expand(expr), lam)
    for a, v in points:
        assert p.eval(a) == v
    coeffs = [int(c) for c in reversed(p.all_coeffs())]
    assert coeffs[0] == 0, "0 is an E-eigenvalue of the single edge"
    _, rem = sympy.div(p.as_expr(), 3 * lam**2 - 1, lam)
    assert rem == 0, "+-1/sqrt(3) are E-eigenvalues of the single edge"
    g = math.gcd(*[c for c in coeffs if c])
    norm = [c // g for c in coeffs]
    if norm[-1] < 0:
        norm = [-c for c in norm]
    print(f"e-char degree {p.degree()}, content {g}, "
          f"factorization: {sympy.factor(p.as_expr())}")
    return coeffs, norm


def poly_json(coeffs: list[int]) -> dict:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return {"coefficients": [str(c) for c in coeffs]}


def main() -> None:
    check_linear_case()
    check_sylvester_case()
    check_diagonal_cubic_case()
    print("self-checks passed")

    out_dir = os.path.join(os.path.dirname(__file__), "..", "tests", "data")
    os.makedirs(out_dir, exist_ok=True)

    char_coeffs = char_poly_single_edge()
    with open(os.path.join(out_dir, "single_edge_n3_char.json"), "w") as fh:
        json.dump(
            {
                "n": 3,
                "k": 3,
                "edges": [[1, 2, 3]],
                "degree": 12,
                "char_poly": poly_json(char_coeffs),
            },
            fh,
            indent=2,
        )
        fh.write("\n")

    raw, norm = e_char_poly_single_edge()
    with open(os.path.join(out_dir, "single_edge_n3_echar.json"), "w") as fh:
        json.dump(
            {
                "n": 3,
                "k": 3,
                "edges": [[1, 2, 3]],
                "matrix_dim": 56,
                "minor_dim": 24,
                "e_char_poly_raw": poly_json(raw),
                "e_char_poly_normalized": poly_json(norm),
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    print("goldens written")


if __name__ == "__main__":
    main()
