"""Spectra of tensors through resultants.

The characteristic polynomial of an order-m dimension-n tensor is the
resultant of the system (lambda * unit - A) x, a monic polynomial of
degree n * (m-1)**(n-1).  The E-characteristic polynomial eliminates x
from A x = lambda x on the unit sphere: for even order the sphere
constraint folds into the system as a power of x.x; for odd order an
auxiliary variable beta with the quadric x.x - beta**2 is appended.

This module builds those systems and checks or normalizes the
polynomials that come back; macaulay turns every system into its exact
value, through one table builder, macaulay._table, which refuses a
Macaulay matrix past the size cap before building it.  Every system
reads A x**(m-1) through _terms, off a tensor's entries or a
hypergraph's edge list: no n**k tensor is built.  A system holds plain
dicts from exponent tuples to nonzero coefficients, ints for a
hypergraph and Fractions for a tensor.  char_poly refuses
past the characteristic degree cap from (dim, order) or (n, k); for
e_char_poly, admit does the same for a hypergraph, or certifies its
E-characteristic polynomial 0.  A tensor is refused by its order, then
the degree cap, then the size cap, then the E-char's lambda-degree
bound; a hypergraph by the degree cap first.  In the characteristic
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
polynomial in lambda**2.  Before any system is built, an isotropic
common root read off the entries or the edge list certifies an
identically zero E-characteristic polynomial (_isotropic_root): an
uncovered pair of coordinates, or for order 3 a triple witness.

The tensor determinant is the resultant of the numeric system x -> A x
itself, one value at lambda = 0 (macaulay.resultant_value); wherever its
divisor determinant is nonzero, this keeps phi(0) = (-1)**d * det an
independent check.  Past the size cap, and before the system or its
table is built, a visible root gives 0 (_coordinate_root): a coordinate
vector e_u when every a[i, u, .., u] is 0, as in every k-graph with
k >= 3, or a zero slice a[i].
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm, prod
from operator import add

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DegreeCapExceeded, DimMismatch, MathError
from .hypergraph import Hypergraph
from .macaulay import (
    PolySystem, _charpoly_quotient, _interpolated_resultant, check_dim_cap, monomial_basis,
    resultant_value,
)
from .polynomial import UniPoly
from .tensor import Tensor


def _terms(a: Tensor | Hypergraph) -> tuple:
    """(dim, order, terms) of A x**(m-1), a term ((w, j_1, .., j_(m-1)), c)
    adding c x_j1 .. x_j(m-1) to f_w: a tensor's nonzero entries, or off a
    hypergraph's edge list, x**(e - {w}) with c = 1 for each edge e and w
    in e, what the (k-1)! arrangements of 1/(k-1)! in its adjacency tensor
    sum to."""
    if isinstance(a, Tensor):
        return a.dim, a.order, a.nonzero_items()
    return a.n, a.k, (((w - 1,) + tuple(v - 1 for v in e if v != w), 1)
                      for e in sorted(a.edges) for w in e)


def tensor_polynomial_map(a: Tensor | Hypergraph) -> tuple[dict, ...]:
    """Component polynomials of x -> A x, each homogeneous of degree m - 1:
    dicts from exponent tuples to their nonzero coefficients, ints for a
    hypergraph and Fractions for a tensor."""
    n, _, terms = _terms(a)
    acc: list[dict[tuple[int, ...], Fraction | int]] = [{} for _ in range(n)]
    for idx, value in terms:
        exp = [0] * n
        for j in idx[1:]:
            exp[j] += 1
        key = tuple(exp)
        bucket = acc[idx[0]]
        bucket[key] = bucket.get(key, 0) + value
    return tuple({e: c for e, c in bucket.items() if c} for bucket in acc)


def _sphere_power(nvars: int, power: int) -> dict[tuple[int, ...], int]:
    """(x.x)**power: x**(2 e) for each exponent e of total degree power,
    times the multinomial coefficient power! / prod_j e_j!."""
    return {tuple(2 * v for v in e): factorial(power) // prod(map(factorial, e))
            for e in monomial_basis(nvars, power)}


def e_char_poly_system(a: Tensor | Hypergraph) -> PolySystem:
    n, m, _ = _terms(a)
    component = tensor_polynomial_map(a)
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]  # x_i's exponents
    if m % 2 == 0:  # lambda parts -x_i (x.x)**((m-2)/2)
        sphere = _sphere_power(n, (m - 2) // 2)
        linear = tuple({tuple(map(add, s, e)): -c for s, c in sphere.items()} for e in units)
        return PolySystem(n, component, (m - 1,) * n, linear)
    # odd order: variables (x_1..x_n, beta) with the quadric x.x - beta**2
    nv = n + 1
    const = [{e + (0,): c for e, c in p.items()} for p in component]
    linear = [{e + (m - 2,): -1} for e in units]
    quadric = {tuple(2 * v for v in e) + (0,): 1 for e in units}
    quadric[(0,) * n + (2,)] = -1
    const.append(quadric)
    linear.append({})
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
    an isotropic root read off its edge list; otherwise h is refused past
    the characteristic degree cap, from (n, k), before its system is read
    off the edge list (_terms); no n**k tensor is built."""
    if e_char and h.k >= 3 and _isotropic_root(h):
        return True
    check_degree_cap(h.n, h.k, config.degree_cap)
    return False


def char_poly(a: Tensor | Hypergraph, config: RunConfig = DEFAULT_CONFIG) -> UniPoly:
    """Monic characteristic polynomial of degree dim * (order-1)**(dim-1);
    a hypergraph's is its adjacency tensor's, from a system read off its
    edge list (_terms) once its degree, read off (n, k), passes the cap:
    no n**k tensor is built."""
    n, m, _ = _terms(a)
    if m >= 2 or isinstance(a, Hypergraph):  # a tensor's order is refused first
        expected = check_degree_cap(n, m, config.degree_cap)
    if m < 2:
        raise DimMismatch("characteristic polynomial needs order at least 2")
    component = tensor_polynomial_map(a)
    scale = lcm(*(c.denominator for p in component for c in p.values()))
    system = PolySystem(n, tuple({e: c * scale for e, c in p.items()} for p in component),
                        (m - 1,) * n)
    coeffs = _charpoly_quotient(system, config)
    d = len(coeffs) - 1
    poly = UniPoly(tuple(Fraction(c, scale ** (d - j)) for j, c in enumerate(coeffs)))
    if poly.degree != expected or not poly.is_monic():
        raise MathError(
            f"characteristic polynomial came out degree {poly.degree}, "
            f"leading {poly.coefficient(max(poly.degree, 0))}; expected monic "
            f"of degree {expected}"
        )
    return poly


def _isotropic_root(a: Tensor | Hypergraph) -> int:
    """The size of the support of a witnessed x != 0 with x.x = 0 and
    A x**(m-1) = 0, or 0 when neither witness below holds.  Such an x
    (beta = 0 for odd order) is a common root of the E-characteristic
    system at every lambda when m >= 3, so its resultant is identically 0
    (Qi, J. Math. Anal. Appl. 325, 2007).  Both witnesses read the terms
    of f_w = (A x**(m-1))_w off _terms.

    2: coordinates u < v carry no term of any f_w on {u, v} alone, and
    x = e_u + i e_v.  For k >= 4 every pair of a hypergraph qualifies,
    for k = 3 two vertices in no common edge.

    3, order 3 only: x = e_a + omega e_b + omega**2 e_c, omega a
    primitive cube root of unity.  With S_jk the coefficients of x_j x_k
    in every f and D_j those of x_j**2, A x**2 = (D_a + S_bc) +
    omega (D_c + S_ab) + omega**2 (D_b + S_ac), which vanishes exactly
    when the three rational parts are equal, that is when
    key(a, b) = key(a, c) and key(b, a) = key(b, c) for
    key(j, k) = S_jk - D_k.  Cyclic shifts of (a, b, c) multiply x by
    omega, and a transposition conjugates it, so one unordered triple is
    tried once.  For a 3-graph, key(j, k) is the set of vertices that
    form an edge with jk: abc is not an edge, and every other vertex
    forms an edge with none or all of ab, ac and bc.
    """
    dim, order, items = _terms(a)
    # coefficients of each monomial, keyed by its sorted variables, in each f_w
    terms: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for (w, *rest), value in items:
        column = terms.setdefault(tuple(sorted(rest)), {})
        column[w] = column.get(w, 0) + value
    supports = {frozenset(key) for key, column in terms.items() if any(column.values())}
    # a term on {u} alone covers every pair holding u
    singles = set().union(*(s for s in supports if len(s) == 1))
    free = dim - len(singles)
    pairs = sum(1 for s in supports if len(s) == 2 and not s & singles)
    if pairs < free * (free - 1) // 2:
        return 2
    if order != 3:
        return 0

    def key(j: int, k: int) -> frozenset:
        out = dict(terms.get((min(j, k), max(j, k)), {}))
        for w, c in terms.get((k, k), {}).items():
            out[w] = out.get(w, 0) - c
        return frozenset((w, c) for w, c in out.items() if c)

    for first in range(dim):
        groups: dict[frozenset, list[int]] = {}
        for j in range(first + 1, dim):
            groups.setdefault(key(first, j), []).append(j)
        for group in groups.values():
            for j, k in itertools.combinations(group, 2):
                if key(j, first) == key(j, k):
                    return 3
    return 0


def e_char_poly(
    a: Tensor | Hypergraph, config: RunConfig = DEFAULT_CONFIG, *, normalize: bool = True
) -> UniPoly:
    """E-characteristic polynomial, normalized content-free by default; a
    hypergraph's is its adjacency tensor's, once admitted, from a system
    read off its edge list."""
    _, m, _ = _terms(a)
    if isinstance(a, Hypergraph):
        if admit(a, config, e_char=True):
            return UniPoly.zero()
    elif m >= 3 and _isotropic_root(a):
        return UniPoly.zero()
    if m < 2:
        raise DimMismatch("E-characteristic polynomial needs order at least 2")
    # odd order: beta -> -beta maps the system at lambda to that at -lambda
    poly = _interpolated_resultant(e_char_poly_system(a), config, even_in_lambda=m % 2 == 1)
    return poly.normalized() if normalize else poly


def _coordinate_root(a: Tensor) -> bool:
    """Whether x -> A x visibly has a nontrivial root: a coordinate vector
    e_u, when a[i, u, .., u] = 0 for every i (a zero column, for order
    2), or any root of the other polynomials, when a slice a[i] is zero."""
    n, m = a.dim, a.order
    size = n ** (m - 1)  # entries per slice a[i]; (u, .., u) sits at u * step
    step = sum(n**j for j in range(m - 1))
    slices = [a.entries[i * size:(i + 1) * size] for i in range(n)]
    if not all(map(any, slices)):
        return True
    return any(not any(s[u * step] for s in slices) for u in range(n))


def det_tensor(a: Tensor, config: RunConfig = DEFAULT_CONFIG) -> Fraction:
    """Resultant of the map x -> A x; zero exactly when it has a nontrivial
    root.  Once the size cap passes, 0 is returned before any system is
    built when _coordinate_root sees one, as for every k-graph with
    k >= 3."""
    if a.order < 2:
        raise DimMismatch("tensor determinant needs order at least 2")
    degrees = (a.order - 1,) * a.dim
    check_dim_cap(a.dim, degrees, config)
    if _coordinate_root(a):
        return Fraction(0)
    return resultant_value(PolySystem(a.dim, tensor_polynomial_map(a), degrees), config)
