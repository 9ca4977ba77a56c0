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

The E-characteristic polynomial is interpolated modulo each prime.  The
system is linear in lambda, so its Macaulay matrix and the divisor are
pencils M(lambda) = F0 + lambda F1 and M'(lambda).  Modulo each prime,
one shift c with A = M(c) and A' = M'(c) invertible gives the residue at
every node: with t = lambda - c and N = A**-1 F1,
Res(lambda) = det A / det A' * sum_j q_j t**(d - j), where
q = charpoly(-N) / charpoly(-N') and d = n - n' (see macaulay).  Where
no shift works modulo the first prime (the divisor of every hypergraph
adjacency tensor tried vanishes identically in lambda), every node takes
the generalized charpoly's constant term instead, all (prime, node)
layers in shared stacks.  The exact Lagrange basis of the nodes, reduced
mod p, turns the node residues into coefficient residues, and one
Chinese remaindering recombines every coefficient, each under Cauchy's
estimate R(rho)**d / rho**j on a circle |lambda| = rho, R(rho) a
Gershgorin bound on the eigenvalues of M there.  The resultant is
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
itself, det M / det M' at a single point (see macaulay); wherever its
divisor determinant is nonzero, this keeps phi(0) = (-1)**d * det an
independent check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Iterator

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DegreeCapExceeded, DimMismatch, MathError
from .macaulay import (
    PolySystem,
    _charpoly_quotient,
    _coefficient_bounds,
    _FillTable,
    _gcp_values,
    _pencil_values,
    check_dim_cap,
    resultant_value,
)
from .modular import _matvec_mod, crt_values
from .polynomial import MultiPoly, UniPoly
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


def e_char_poly_system(a: Tensor) -> PolySystem:
    n, m = a.dim, a.order
    component = tensor_polynomial_map(a)
    if m % 2 == 0:
        sphere = _sphere_power(n, (m - 2) // 2)
        linear = []
        for i in range(n):
            x_i = MultiPoly(n, {tuple(1 if j == i else 0 for j in range(n)): Fraction(-1)})
            linear.append(sphere * x_i)
        return PolySystem(n, component, (m - 1,) * n, tuple(linear))
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
    return PolySystem(nv, tuple(const), (m - 1,) * n + (2,), tuple(linear))


def _abscissae() -> Iterator[int]:
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


@lru_cache(maxsize=None)
def _lagrange(abscissae: tuple[int, ...]) -> list[tuple[list[int], int]]:
    """(num_i, den_i) for the exact Lagrange basis of integer abscissae:
    L_i(x) = sum_j num_i[j] x**j / den_i, with num_i the coefficients of
    prod_{k != i} (x - x_k) and den_i = prod_{k != i} (x_i - x_k)."""
    basis = []
    for i, xi in enumerate(abscissae):
        num, den = [1], 1
        for k, xk in enumerate(abscissae):
            if k != i:
                num = [a - xk * b for a, b in zip([0] + num, num + [0])]
                den *= xi - xk
        basis.append((num, den))
    return basis


@lru_cache(maxsize=None)
def _lagrange_mod(abscissae: tuple[int, ...], p: int) -> np.ndarray:
    """The (N, N) matrix of num_i[j] / den_i modulo p, indexed [j, i]: it
    maps the values at the abscissae to the interpolant's coefficients."""
    columns = []
    for num, den in _lagrange(abscissae):
        # den's prime factors are at most the spread of the abscissae, far
        # below every modulus
        assert den % p, f"Lagrange denominator {den} vanishes modulo {p}"
        inverse = pow(den, -1, p)
        columns.append([c * inverse % p for c in num])
    return np.array(columns, dtype=np.int64).T


def _interpolated_resultant(
    system: PolySystem, cfg: RunConfig, *, even_in_lambda: bool = False
) -> UniPoly:
    """The resultant of the system as a polynomial in lambda, by interpolation.

    The resultant is homogeneous of degree prod_{j != i} d_j in the
    coefficients of f_i (Macaulay 1902; Cox, Little & O'Shea, Using
    Algebraic Geometry, Ch. 3 Thm 3.1), and each of those coefficients
    is affine in lambda, so its lambda-degree is at most
    D = sum over the i with a nonzero lambda part of prod_{j != i} d_j.
    D + 1 exact values therefore determine it.

    If even_in_lambda, the resultant is known to be even in lambda; it is a
    polynomial of degree at most D/2 in mu = lambda**2, interpolated
    through the D/2 + 1 values at lambda = 0, 1, ..., D/2.

    Modulo each prime, the node residues come from one pencil reduction
    (_pencil_values) or, when no shift works modulo the first prime, from
    the generalized charpoly at every node (_gcp_values).  The exact
    Lagrange basis of the abscissae, reduced mod p, turns them into the
    coefficients mod p.  The resultant of the row-scaled integer system
    has integer coefficients, and one crt_values call recombines them,
    each under its Cauchy estimate (_coefficient_bounds).  The row scales
    divide out once at the end.
    """
    check_dim_cap(system.nvars, system.degrees, cfg.dim_cap)
    bound = sum(
        prod(system.degrees[:i] + system.degrees[i + 1 :])
        for i, part in enumerate(system.linear)
        if not part.is_zero()
    )
    if bound > cfg.degree_cap:
        raise DegreeCapExceeded(
            f"resultant degree bound {bound} exceeds cap {cfg.degree_cap}"
        )
    table = _FillTable(system)
    if even_in_lambda:
        nodes = list(range(bound // 2 + 1))
        abscissae = tuple(lam * lam for lam in nodes)
        powers = [2 * j for j in range(len(nodes))]
    else:
        nodes = list(itertools.islice(_abscissae(), bound + 1))
        abscissae = tuple(nodes)
        powers = list(range(len(nodes)))
    bounds = _coefficient_bounds(table, powers)

    def recombine(node_values) -> list[int] | None:
        def coefficients_mod(primes: list[int]) -> list[np.ndarray | None]:
            pv = np.array(primes, dtype=np.int64)
            values, solved = node_values(table, nodes, pv)
            weights = np.stack([_lagrange_mod(abscissae, p) for p in primes])
            coeffs = _matvec_mod(weights, values, pv[:, None])
            return [c if ok else None for c, ok in zip(coeffs, solved.tolist())]

        return crt_values(coefficients_mod, bounds, cfg.prime_seed, table.layer_size)

    coeffs = recombine(_pencil_values)
    if coeffs is None:
        coeffs = recombine(_gcp_values)
    if even_in_lambda:
        coeffs = [c for h in coeffs for c in (h, 0)]
    scale = Fraction(table.scale_minor, table.scale_full)
    return UniPoly(tuple(c * scale for c in coeffs))


def check_degree_cap(dim: int, order: int, cap: int) -> int:
    """The characteristic degree dim * (order-1)**(dim-1), refused above
    cap before any tensor is built; both E-characteristic degree bounds
    are at least as large.  Past cap's bit length, the power is not
    formed: for order >= 3 it alone exceeds cap."""
    if order >= 3 and dim - 1 > cap.bit_length():
        degree: int | str = f"{dim}*{order - 1}**{dim - 1}"
    else:
        degree = dim * (order - 1) ** (dim - 1)
        if degree <= cap:
            return degree
    raise DegreeCapExceeded(f"characteristic degree {degree} exceeds cap {cap}")


def char_poly(a: Tensor, config: RunConfig = DEFAULT_CONFIG) -> UniPoly:
    """Monic characteristic polynomial of degree dim * (order-1)**(dim-1)."""
    if a.order < 2:
        raise DimMismatch("characteristic polynomial needs order at least 2")
    expected = check_degree_cap(a.dim, a.order, config.degree_cap)
    n, m = a.dim, a.order
    check_dim_cap(n, (m - 1,) * n, config.dim_cap)
    component = tensor_polynomial_map(a)
    scale = lcm(*(c.denominator for p in component for c in p.terms.values()))
    system = PolySystem(n, tuple(p.scale(scale) for p in component), (m - 1,) * n)
    coeffs = _charpoly_quotient(_FillTable(system), config.prime_seed)
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
    a: Tensor, config: RunConfig = DEFAULT_CONFIG, *, normalize: bool = True
) -> UniPoly:
    """E-characteristic polynomial; normalized content-free by default."""
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
        e_char_poly_system(a), config, even_in_lambda=a.order % 2 == 1
    )
    return poly.normalized() if normalize else poly


def det_tensor(a: Tensor, config: RunConfig = DEFAULT_CONFIG) -> Fraction:
    """Resultant of the map x -> A x; zero exactly when it has a nontrivial root."""
    if a.order < 2:
        raise DimMismatch("tensor determinant needs order at least 2")
    system = PolySystem(a.dim, tensor_polynomial_map(a), (a.order - 1,) * a.dim)
    return resultant_value(system, prime_seed=config.prime_seed, dim_cap=config.dim_cap)
