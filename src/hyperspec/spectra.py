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
reduction modulo word-size primes (see modular), divided exactly mod
each prime and recombined by Chinese remaindering under a Gershgorin
bound on the coefficients.

The E-characteristic polynomial is computed by exact evaluation and
interpolation: the system is linear in lambda, so each integer sample
point costs two integer determinants, or a charpoly quotient where the
divisor determinant vanishes (see macaulay).  The tensor determinant is
the resultant of the numeric system x -> A x itself, evaluated the same
way; wherever its divisor determinant is nonzero, this keeps
phi(0) = (-1)**d * det an independent check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Iterator

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DegreeCapExceeded, DimMismatch, MathError
from .macaulay import (
    LambdaSystem,
    PolySystem,
    _charpoly_quotient,
    _eval_point,
    _FillTable,
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


def _interpolated_resultant(lsys: LambdaSystem, cfg: RunConfig) -> UniPoly:
    check_dim_cap(lsys.nvars, lsys.degrees, cfg.dim_cap)
    table = _FillTable(lsys)
    if table.lambda_rows > cfg.degree_cap:
        raise DegreeCapExceeded(
            f"interpolation degree {table.lambda_rows} exceeds cap {cfg.degree_cap}"
        )
    nodes = itertools.islice(_abscissae(), table.lambda_rows + 1)
    return interpolate(
        [(lam, _eval_point(table, lam, cfg.prime_seed)) for lam in nodes]
    )


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
    full, minor = _FillTable(LambdaSystem.constant(system)).fill(0)
    coeffs = _charpoly_quotient(full, minor, cfg.prime_seed)
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
    poly = _interpolated_resultant(e_char_poly_system(a), cfg)
    return poly.normalized() if normalize else poly


def det_tensor(a: Tensor, config: RunConfig | None = None) -> Fraction:
    """Resultant of the map x -> A x; zero exactly when it has a nontrivial root."""
    cfg = config if config is not None else DEFAULT_CONFIG
    if a.order < 2:
        raise DimMismatch("tensor determinant needs order at least 2")
    system = PolySystem(a.dim, tensor_polynomial_map(a), (a.order - 1,) * a.dim)
    return resultant_value(system, prime_seed=cfg.prime_seed, dim_cap=cfg.dim_cap)
