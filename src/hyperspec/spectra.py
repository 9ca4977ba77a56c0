"""Spectra of tensors through resultants.

The characteristic polynomial of an order-m dimension-n tensor is the
resultant of the system (lambda * unit - A) x, a monic polynomial of
degree n * (m-1)**(n-1).  The E-characteristic polynomial eliminates x
from A x = lambda x on the unit sphere: for even order the sphere
constraint folds into the system as a power of x.x; for odd order an
auxiliary variable beta with the quadric x.x - beta**2 is appended.

This module builds those systems and checks or normalizes the
polynomials that come back; macaulay turns every system into its exact
value.  char_poly and e_char_poly also take a hypergraph, which admit
refuses past the characteristic degree cap, or certifies its
E-characteristic polynomial 0, before adjacency_tensor is called.  A
tensor's caps are checked in char_poly, macaulay._interpolated_resultant
and macaulay.resultant_value (det_tensor).  In the characteristic
system the lambda part of the Macaulay matrix is exactly the identity,
so the resultant is charpoly(B) / charpoly(B'), where B is the integer
Macaulay matrix of x -> L A x (L clears the denominators) and B' its
principal submatrix on the non-reduced monomials
(macaulay._charpoly_quotient).

The E-characteristic polynomial has lambda-degree at most D,
2 n (m-1)**(n-1) for odd order and n (m-1)**(n-1) for even order; even
order interpolates it through the nodes lambda = 0..D
(macaulay._interpolated_resultant).  For odd order, beta -> -beta turns
the system at lambda into the system at -lambda, and a linear change of
variables multiplies the resultant by its determinant to the power
prod d_i (Jouanolou, Adv. Math. 90, 1991), here (-1)**(2 (m-1)**n) = 1.
So the resultant is even in lambda, and the D/2 + 1 nodes
lambda = 0..D/2 (13 for order 3, dimension 3) determine it as a
polynomial in lambda**2.  An uncovered pair of coordinates certifies an
identically zero E-characteristic polynomial first (_uncovered_pair).

The tensor determinant is the resultant of the numeric system x -> A x
itself, one value at lambda = 0 (macaulay._eval_point); wherever its
divisor determinant is nonzero, this keeps phi(0) = (-1)**d * det an
independent check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DegreeCapExceeded, DimMismatch, MathError
from .hypergraph import Hypergraph, adjacency_tensor
from .macaulay import (
    PolySystem,
    _charpoly_quotient,
    _FillTable,
    _interpolated_resultant,
    check_dim_cap,
    resultant_value,
)
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


def admit(h: Hypergraph, config: RunConfig, *, e_char: bool) -> bool:
    """Whether h's E-characteristic polynomial (e_char) is certified 0 by
    an uncovered pair; otherwise h is refused past the characteristic
    degree cap, from (n, k), before any n**k tensor is built."""
    if e_char and h.k >= 3 and _uncovered_pair(h):
        return True
    check_degree_cap(h.n, h.k, config.degree_cap)
    return False


def char_poly(a: Tensor | Hypergraph, config: RunConfig = DEFAULT_CONFIG) -> UniPoly:
    """Monic characteristic polynomial of degree dim * (order-1)**(dim-1);
    a hypergraph's is its adjacency tensor's, once admitted."""
    if isinstance(a, Hypergraph):
        admit(a, config, e_char=False)
        a = adjacency_tensor(a)
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


def _uncovered_pair(a: Tensor | Hypergraph) -> bool:
    """Whether some coordinates u < v carry no nonzero a[w, i_2, .., i_m]
    with every i_j in {u, v}: then x = e_u + i e_v has x.x = 0 and
    A x**(m-1) = 0, a common root (beta = 0 for odd order) of the
    E-characteristic system at every lambda when m >= 3, so its resultant
    is identically 0 (Qi, J. Math. Anal. Appl. 325, 2007).  A hypergraph's
    adjacency tensor has the supports e - {w} of its edges e and w in e:
    for k >= 4 every pair is uncovered, for k = 3 two vertices in no
    common edge."""
    if isinstance(a, Hypergraph):
        dim, supports = a.n, {frozenset(e).difference((w,)) for e in a.edges for w in e}
    else:
        dim, supports = a.dim, {frozenset(idx[1:]) for idx, _ in a.nonzero_items()}
    # an entry on {u} alone covers every pair holding u
    singles = set().union(*(s for s in supports if len(s) == 1))
    free = dim - len(singles)
    pairs = sum(1 for s in supports if len(s) == 2 and not s & singles)
    return pairs < free * (free - 1) // 2


def e_char_poly(
    a: Tensor | Hypergraph, config: RunConfig = DEFAULT_CONFIG, *, normalize: bool = True
) -> UniPoly:
    """E-characteristic polynomial, normalized content-free by default; a
    hypergraph's is its adjacency tensor's, once admitted."""
    if isinstance(a, Hypergraph):
        if admit(a, config, e_char=True):
            return UniPoly.zero()
        a = adjacency_tensor(a)
    elif a.order >= 3 and _uncovered_pair(a):
        return UniPoly.zero()
    if a.order < 2:
        raise DimMismatch("E-characteristic polynomial needs order at least 2")
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
