"""Spectra of tensors through resultants.

The characteristic polynomial of an order-m dimension-n tensor is the
resultant of the system (lambda * unit - A) x, a monic polynomial of
degree n * (m-1)**(n-1).  The E-characteristic polynomial eliminates x
from A x = lambda x on the unit sphere: for even order the sphere
constraint folds into the system as a power of x.x; for odd order an
auxiliary variable beta with the quadric x.x - beta**2 is appended.

The two take different paths.  In the characteristic system the lambda
part of the Macaulay matrix is exactly the identity, so the resultant is
charpoly(B) / charpoly(B'), where B is the integer Macaulay matrix of
x -> L A x (L clears the denominators) and B' its principal submatrix on
the non-reduced monomials.  Both charpolys come from Hessenberg
reduction modulo word-size primes, every prime needed in one stacked
pass (see modular), divided exactly mod each prime and recombined by
Chinese remaindering under a Gershgorin bound on the coefficients.

The E-characteristic polynomial is computed by exact evaluation and
interpolation.  The system is linear in lambda, so its Macaulay matrix
and the divisor are pencils M(lambda) = F0 + lambda F1 and M'(lambda).
Modulo each prime, one shift c with A = M(c) and A' = M'(c) invertible
gives every node at once: with t = lambda - c and N = A**-1 F1,
Res(lambda) = det A / det A' * sum_j q_j t**(d - j), where
q = charpoly(-N) / charpoly(-N') and d = n - n' (see macaulay).  Each
node's value is recombined under its own Gershgorin bound 2 R**d, R the
largest absolute row sum of M at the node.  Where no shift works modulo
the first prime (the divisor of every hypergraph adjacency tensor tried
vanishes identically in lambda), each node is evaluated on its own:
det M / det M' modulo each prime, or a charpoly quotient where the
divisor determinant vanishes modulo the first prime.  The resultant is
homogeneous of degree prod_{j != i} d_j in the coefficients of f_i
(Macaulay 1902; Cox, Little & O'Shea, Using Algebraic Geometry, Ch. 3
Thm 3.1), so its lambda-degree is at most D, the sum of those products
over the f_i with a lambda part: 2 n (m-1)**(n-1) for odd order and
n (m-1)**(n-1) for even order.  Even order samples D + 1 points.  For
odd order, beta -> -beta turns the system at lambda into the system at
-lambda, and a linear change of variables multiplies the resultant by
its determinant to the power prod d_i (Jouanolou, Adv. Math. 90, 1991),
here (-1)**(2 (m-1)**n) = 1.  So the resultant is even in lambda, and
D/2 + 1 points (13 for order 3, dimension 3) determine it as a
polynomial in lambda**2.

The tensor determinant is the resultant of the numeric system x -> A x
itself, evaluated the same way; wherever its divisor determinant is
nonzero, this keeps phi(0) = (-1)**d * det an independent check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from typing import Iterator

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DegreeCapExceeded, DimMismatch, MathError
from .macaulay import (
    LambdaSystem,
    PolySystem,
    _charpoly_quotient,
    _eval_point,
    _FillTable,
    _pencil_values,
    check_dim_cap,
    resultant_value,
)
from .polynomial import MultiPoly, UniPoly, interpolate
from .tensor import Tensor


def tensor_polynomial_map(a: Tensor) -> tuple[MultiPoly, ...]:
    """Component polynomials of x -> A x, each homogeneous of degree m - 1."""
    n = a.dim
    acc: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(n)]
    for idx, value in a.nonzero_items():
        exp = [0] * n
        for j in idx[1:]:
            exp[j] += 1
        key = tuple(exp)
        bucket = acc[idx[0]]
        bucket[key] = bucket.get(key, Fraction(0)) + value
    return tuple(MultiPoly(n, bucket) for bucket in acc)


def _sphere_power(nvars: int, power: int) -> MultiPoly:
    unit = MultiPoly(nvars, {tuple([0] * nvars): Fraction(1)})
    square = MultiPoly(
        nvars,
        {tuple(2 if j == i else 0 for j in range(nvars)): Fraction(1) for i in range(nvars)},
    )
    out = unit
    for _ in range(power):
        out = out * square
    return out


def e_char_poly_system(a: Tensor) -> LambdaSystem:
    n, m = a.dim, a.order
    component = tensor_polynomial_map(a)
    if m % 2 == 0:
        sphere = _sphere_power(n, (m - 2) // 2)
        linear = []
        for i in range(n):
            x_i = MultiPoly(n, {tuple(1 if j == i else 0 for j in range(n)): Fraction(-1)})
            linear.append(sphere * x_i)
        return LambdaSystem(n, (m - 1,) * n, component, tuple(linear))
    # odd order: variables (x_1..x_n, beta) with the quadric x.x - beta**2
    nv = n + 1
    const = [
        MultiPoly(nv, {exp + (0,): c for exp, c in component[i].terms.items()})
        for i in range(n)
    ]
    linear = [
        MultiPoly(
            nv,
            {tuple((1 if j == i else 0) for j in range(n)) + (m - 2,): Fraction(-1)},
        )
        for i in range(n)
    ]
    quadric = {tuple(2 if j == i else 0 for j in range(nv)): Fraction(1) for i in range(n)}
    quadric[tuple([0] * n) + (2,)] = Fraction(-1)
    const.append(MultiPoly(nv, quadric))
    linear.append(MultiPoly(nv, {}))
    return LambdaSystem(nv, (m - 1,) * n + (2,), tuple(const), tuple(linear))


def _abscissae() -> Iterator[int]:
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _interpolated_resultant(
    lsys: LambdaSystem, cfg: RunConfig, *, even_in_lambda: bool = False
) -> UniPoly:
    """The resultant of lsys as a polynomial in lambda, by interpolation.

    The resultant is homogeneous of degree prod_{j != i} d_j in the
    coefficients of f_i (Macaulay 1902; Cox, Little & O'Shea, Using
    Algebraic Geometry, Ch. 3 Thm 3.1), and each of those coefficients
    is affine in lambda, so its lambda-degree is at most
    D = sum over the i with a nonzero lambda part of prod_{j != i} d_j.
    D + 1 exact values therefore determine it.

    If even_in_lambda, the resultant is known to be even in lambda; it is a
    polynomial of degree at most D/2 in mu = lambda**2, interpolated
    through the D/2 + 1 values at lambda = 0, 1, ..., D/2.

    The node values come from one pencil reduction per prime: det M and
    det M' of the pencils M(lambda) = F0 + lambda F1 and M'(lambda) are
    reversed charpolys of A**-1 F1 and A'**-1 F1' around a shift c, and
    Macaulay's identity det M = Res * det M' holds as polynomials in
    lambda.  Each node is recombined under its own bound 2 R**d, R the
    largest absolute row sum of M at the node, d = n - n'.  When no shift
    makes both matrices invertible modulo the first prime, every node is
    evaluated on its own by _eval_point instead.
    """
    check_dim_cap(lsys.nvars, lsys.degrees, cfg.dim_cap)
    bound = sum(
        prod(lsys.degrees[:i] + lsys.degrees[i + 1 :])
        for i, part in enumerate(lsys.linear)
        if not part.is_zero()
    )
    if bound > cfg.degree_cap:
        raise DegreeCapExceeded(
            f"resultant degree bound {bound} exceeds cap {cfg.degree_cap}"
        )
    table = _FillTable(lsys)
    if even_in_lambda:
        nodes = list(range(bound // 2 + 1))
    else:
        nodes = list(itertools.islice(_abscissae(), bound + 1))
    values = _pencil_values(table, nodes, cfg.prime_seed)
    if values is None:
        values = [_eval_point(table, lam, cfg.prime_seed) for lam in nodes]
    if even_in_lambda:
        half = interpolate([(lam * lam, v) for lam, v in zip(nodes, values)])
        return UniPoly(tuple(c for h in half.coeffs for c in (h, 0)))
    return interpolate(list(zip(nodes, values)))


def char_poly(a: Tensor, config: RunConfig | None = None) -> UniPoly:
    """Monic characteristic polynomial of degree dim * (order-1)**(dim-1)."""
    cfg = config if config is not None else DEFAULT_CONFIG
    if a.order < 2:
        raise DimMismatch("characteristic polynomial needs order at least 2")
    expected = a.dim * (a.order - 1) ** (a.dim - 1)
    if expected > cfg.degree_cap:
        raise DegreeCapExceeded(
            f"characteristic degree {expected} exceeds cap {cfg.degree_cap}"
        )
    n, m = a.dim, a.order
    check_dim_cap(n, (m - 1,) * n, cfg.dim_cap)
    component = tensor_polynomial_map(a)
    scale = lcm(*(c.denominator for p in component for c in p.terms.values()))
    system = PolySystem(n, tuple(p.scale(scale) for p in component), (m - 1,) * n)
    coeffs = _charpoly_quotient(_FillTable(LambdaSystem.constant(system)), 0, cfg.prime_seed)
    d = len(coeffs) - 1
    poly = UniPoly(tuple(Fraction(c, scale ** (d - j)) for j, c in enumerate(coeffs)))
    if poly.degree != expected or not poly.is_monic():
        raise MathError(
            f"characteristic polynomial came out degree {poly.degree}, "
            f"leading {poly.coefficient(max(poly.degree, 0))}; expected monic "
            f"of degree {expected}"
        )
    return poly


def e_char_poly(
    a: Tensor, config: RunConfig | None = None, *, normalize: bool = True
) -> UniPoly:
    """E-characteristic polynomial; normalized content-free by default."""
    cfg = config if config is not None else DEFAULT_CONFIG
    if a.order < 2:
        raise DimMismatch("E-characteristic polynomial needs order at least 2")
    if a.order >= 3 and a.dim >= 2 and all(v == 0 for v in a.entries):
        # shortcut: the component polynomials all carry the factor
        # beta**(m-2) (odd order) or (x.x)**((m-2)/2) (even order), whose
        # zero set meets the sphere quadric whenever dim >= 2, so the
        # resultant vanishes at every lambda and the general path returns
        # this same zero polynomial after evaluating every sample point
        return UniPoly.zero()
    # odd order: beta -> -beta maps the system at lambda to that at -lambda
    poly = _interpolated_resultant(
        e_char_poly_system(a), cfg, even_in_lambda=a.order % 2 == 1
    )
    return poly.normalized() if normalize else poly


def det_tensor(a: Tensor, config: RunConfig | None = None) -> Fraction:
    """Resultant of the map x -> A x; zero exactly when it has a nontrivial root."""
    cfg = config if config is not None else DEFAULT_CONFIG
    if a.order < 2:
        raise DimMismatch("tensor determinant needs order at least 2")
    system = PolySystem(a.dim, tensor_polynomial_map(a), (a.order - 1,) * a.dim)
    return resultant_value(system, prime_seed=cfg.prime_seed, dim_cap=cfg.dim_cap)
