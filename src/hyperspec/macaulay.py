"""Dense resultants of square homogeneous polynomial systems.

For n homogeneous polynomials in n variables of degrees d_1..d_n, build
Macaulay's matrix M on the monomials of total degree
D = sum(d_i - 1) + 1: each monomial mu owns one row, filled with the
coefficients of (mu / x_i**d_i) * f_i for the least variable index i
with x_i**d_i dividing mu.  The resultant is det(M) / det(M') where M'
is the principal submatrix of M on the monomials divisible by
x_i**d_i for two or more distinct i.

Every resultant goes through one integer path and one system type,
PolySystem, whose coefficients are linear in a parameter lambda.  Its
M is tabulated once as a sparse pencil (_FillTable); every route asks it
for one dense stack of M(lambda) modulo its primes and reads M' off it.
A route gives the residues of the resultant at integer nodes modulo a
stack of primes: from one pencil reduction at one shift per stack
(_pencil_values), from det(M) / det(M') at one node (_det_values), or
from the generalized charpoly below at every node, all (prime, node)
layers in shared stacks (_gcp_values).  One loop, _recombine, tries a
list of routes in order: it interpolates a route's node residues mod p
and recombines the coefficients in one crt_values call, all of whose
primes share one stacked pass (see modular).  A polynomial in lambda
takes the pencil, else the generalized charpoly
(_interpolated_resultant); one value takes the determinant ratio, else
the generalized charpoly (_eval_point).  A numeric system is the
lambda-free case, evaluated at lambda = 0.
det(M') vanishes for many sparse systems; there the value comes from
Canny's generalized characteristic polynomial (J. Symbolic Comput. 9,
1990) instead: the quotient charpoly(M) / charpoly(M') has a monic
divisor, and its constant term is the resultant up to sign.  Every
exact value is recombined by modular.crt_values under a Gershgorin
bound: each root of that quotient is an eigenvalue of M.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig
from .errors import (
    CapExceeded,
    DegreeCapExceeded,
    DimMismatch,
    InputError,
    NotHomogeneous,
    NotSquareSystem,
)
from .modular import (
    _det_mod, _inverses, _matvec_mod, _solve_mod, charpoly_mod, crt_values,
    poly_divexact_mod, stack_layers,
)
from .polynomial import MultiPoly, UniPoly


@dataclass(frozen=True)
class PolySystem:
    """Square homogeneous system polys[i] + lambda * linear[i], each part
    homogeneous of degrees[i].  A numeric system is the lambda-free case,
    linear = ()."""

    nvars: int
    polys: tuple[MultiPoly, ...]
    degrees: tuple[int, ...]
    linear: tuple[MultiPoly, ...] = ()

    def __post_init__(self):
        sizes = {len(self.polys), len(self.degrees), len(self.linear) or self.nvars}
        if sizes != {self.nvars}:
            raise NotSquareSystem(
                f"{len(self.polys)} polynomials, {len(self.degrees)} degrees, "
                f"{len(self.linear)} lambda parts, {self.nvars} variables"
            )
        for what, part in (("polynomial", self.polys), ("lambda part", self.linear)):
            for i, (poly, degree) in enumerate(zip(part, self.degrees)):
                if degree < 1:
                    raise InputError(f"degree of polynomial {i} must be positive")
                if poly.nvars != self.nvars:
                    raise DimMismatch(
                        f"{what} {i} lives in {poly.nvars} variables, "
                        f"system has {self.nvars}"
                    )
                if not poly.is_homogeneous(degree):
                    raise NotHomogeneous(f"{what} {i} is not homogeneous of degree {degree}")

    def at(self, lam: Fraction | int) -> "PolySystem":
        """The numeric system at one value of lambda."""
        polys = tuple(c + l.scale(lam) for c, l in zip(self.polys, self.linear))
        return PolySystem(self.nvars, polys, self.degrees)


def monomial_basis(nvars: int, total: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), total):
        exp = [0] * nvars
        for v in combo:
            exp[v] += 1
        out.append(tuple(exp))
    return tuple(sorted(out))


@dataclass(frozen=True)
class MacaulayStructure:
    """Combinatorial skeleton shared by every system with these degrees."""

    nvars: int
    degrees: tuple[int, ...]
    total_degree: int
    monomials: tuple[tuple[int, ...], ...]
    assignment: tuple[int, ...]
    nonreduced: tuple[int, ...]
    columns: dict[int, int]  # column of each monomial's code, in basis order

    @property
    def size(self) -> int:
        return len(self.monomials)


def _code(mono: tuple[int, ...], radix: int) -> int:
    """sum_j mono[j] * radix**j: codes add as monomials multiply."""
    return sum(e * radix**j for j, e in enumerate(mono))


def _assign(mono: tuple[int, ...], degrees: tuple[int, ...]) -> int:
    for i, d in enumerate(degrees):
        if mono[i] >= d:
            return i
    raise AssertionError("degree-D monomial with no owning variable")


@lru_cache(maxsize=None)
def macaulay_structure(nvars: int, degrees: tuple[int, ...]) -> MacaulayStructure:
    total = sum(d - 1 for d in degrees) + 1
    monos = monomial_basis(nvars, total)
    assignment = tuple(_assign(m, degrees) for m in monos)
    nonreduced = tuple(
        j
        for j, m in enumerate(monos)
        if sum(1 for i, d in enumerate(degrees) if m[i] >= d) >= 2
    )
    columns = {_code(m, total + 1): j for j, m in enumerate(monos)}
    return MacaulayStructure(nvars, degrees, total, monos, assignment, nonreduced, columns)


def macaulay_dim(nvars: int, degrees: Sequence[int]) -> int:
    total = sum(d - 1 for d in degrees) + 1
    return comb(total + nvars - 1, nvars - 1)


def check_dim_cap(nvars: int, degrees: Sequence[int], dim_cap: int) -> None:
    size = macaulay_dim(nvars, degrees)
    if size > dim_cap:
        raise CapExceeded(f"matrix dimension {size} exceeds cap {dim_cap}")


class _FillTable:
    """The Macaulay matrix of one system as one sparse integer pencil.

    Rows are scaled by the denominator lcm of their polynomial once, so
    M(lambda) = F0 + lambda F1 has integer entries, each nonzero one held
    once in the arrays row, col, i0 and i1; at scatters M(lambda) modulo
    each prime straight from them, and slope F1.  The divisor M' is the
    principal submatrix on the non-reduced monomials (minor); the
    accumulated scales divide back out of the determinant quotient.
    """

    def __init__(self, system: PolySystem):
        structure = macaulay_structure(system.nvars, system.degrees)
        self.size = structure.size
        self.nonreduced = np.array(structure.nonreduced, dtype=np.intp)
        self.d = self.size - len(structure.nonreduced)  # N - N', the quotient's degree

        # each polynomial's (i0, i1) terms, scaled to integers, and the
        # code shift of each: the row of mu holds (mu / x_i**d_i) * f_i, so
        # a term's column is that of code(mu) plus its shift
        radix = structure.total_degree + 1
        poly_terms: list[list[tuple[int, int]]] = []
        shifts: list[list[int]] = []
        poly_scale: list[int] = []
        linear = system.linear or (MultiPoly(system.nvars),) * system.nvars
        for i, (c_poly, l_poly) in enumerate(zip(system.polys, linear)):
            exps = set(c_poly.terms) | set(l_poly.terms)
            scale = lcm(*(c.denominator for p in (c_poly, l_poly) for c in p.terms.values()))
            poly_terms.append([
                (int(c_poly.terms.get(e, 0) * scale), int(l_poly.terms.get(e, 0) * scale))
                for e in exps
            ])
            shifts.append([_code(e, radix) - system.degrees[i] * radix**i for e in exps])
            poly_scale.append(scale)
        self.poly_terms = poly_terms

        column = structure.columns
        cols: list[int] = []
        entries: list[tuple[int, int]] = []
        for code, i in zip(column, structure.assignment):
            cols += [column[code + shift] for shift in shifts[i]]
            entries += poly_terms[i]
        counts = [len(poly_terms[i]) for i in structure.assignment]
        self.row = np.repeat(np.arange(self.size, dtype=np.intp), counts)
        self.col = np.array(cols, dtype=np.intp)
        big = any(abs(v) >= 1 << 62 for terms in poly_terms for pair in terms for v in pair)
        dtype = object if big else np.int64
        i0, i1 = zip(*entries) if entries else ((), ())
        self.i0, self.i1 = np.array(i0, dtype=dtype), np.array(i1, dtype=dtype)
        self.scale_full = prod(poly_scale[i] for i in structure.assignment)
        self.scale_minor = prod(
            poly_scale[structure.assignment[r]] for r in structure.nonreduced
        )
        # int64 entries one prime takes in the largest stacks built at once:
        # M(c) with F1, [A | F1], or a charpoly's table of polynomials
        self.layer_size = 2 * (self.size + 1) ** 2

    def _dense(self, entries: np.ndarray) -> np.ndarray:
        stack = np.zeros((len(entries), self.size, self.size), dtype=np.int64)
        stack[:, self.row, self.col] = entries
        return stack

    def at(self, primes: np.ndarray, lam: int | np.ndarray) -> np.ndarray:
        """The (P, size, size) stack M(lam) modulo each prime; lam is one
        integer or one per layer."""
        moduli = primes[:, None]
        slope = np.asarray(lam)[..., None] % moduli * (self.i1 % moduli)
        return self._dense((self.i0 % moduli + slope) % moduli)

    def slope(self, primes: np.ndarray) -> np.ndarray:
        """The (P, size, size) stack F1 modulo each prime."""
        return self._dense(self.i1 % primes[:, None])

    def minor(self, stack: np.ndarray) -> np.ndarray:
        """The divisor M' of each matrix in a stack of M: its principal
        submatrix on the non-reduced monomials."""
        return stack[..., self.nonreduced[:, None], self.nonreduced]

    def radius(self, lam: int) -> int:
        """Largest absolute row sum of M(lam), a bound on its eigenvalues;
        the rows of one polynomial share their absolute sums."""
        return max(
            (sum(abs(i0 + lam * i1) for i0, i1 in terms) for terms in self.poly_terms),
            default=0,
        )

    def vanishing_poly(self, lam: int) -> bool:
        return any(all(i0 + lam * i1 == 0 for i0, i1 in t) for t in self.poly_terms)


def _quotient_mod(full: np.ndarray, minor: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """charpoly(full) / charpoly(minor) of each layer modulo its prime."""
    return poly_divexact_mod(charpoly_mod(full, primes), charpoly_mod(minor, primes), primes)


def _charpoly_quotient(table: _FillTable, prime_seed: int) -> list[int]:
    """The ascending integer coefficients of charpoly(M) / charpoly(M') at
    lambda = 0.

    Every root of the quotient is an eigenvalue of M, so by Gershgorin
    its absolute value is at most R = table.radius(0), and the
    coefficient of x**j is at most C(d, j) * R**(d - j), d = N - N'.
    """
    d, radius = table.d, table.radius(0)

    def residues_mod(primes: list[int]) -> np.ndarray:
        pv = np.array(primes, dtype=np.int64)
        full = table.at(pv, 0)
        return _quotient_mod(full, table.minor(full), pv)

    bounds = [comb(d, j) * radius ** (d - j) for j in range(d + 1)]
    return crt_values(residues_mod, bounds, prime_seed, table.layer_size)


def _value_bound(table: _FillTable, lam: int) -> int:
    """A bound on the absolute resultant value at an integer lambda: R**d,
    R the largest absolute row sum of M there and d = N - N' (see
    _eval_point)."""
    return table.radius(lam) ** table.d


def _eval_point(table: _FillTable, lam: int, prime_seed: int) -> Fraction:
    """Exact resultant value at one integer lambda.

    Where det(M') is nonzero, the value is det(M) / det(M'), computed
    modulo each prime (_det_values); a prime dividing det(M') is skipped.  It is
    bounded by R**d, R the largest absolute row sum of M and d = N - N',
    because it is, up to sign, the constant term of the quotient below.
    When det(M') vanishes modulo the first prime, the value is the
    generalized characteristic polynomial's constant term: perturbing
    each scaled polynomial by -s * x_i**d_i subtracts s from the diagonal
    of M and M', so Res(F - s x^d) = (-1)**(N - N') * charpoly(M) /
    charpoly(M'), whose monic divisor never vanishes, and Res(F) is that
    quotient at s = 0 (_gcp_values), recombined under the same bound R**d.
    """
    if table.vanishing_poly(lam):
        return Fraction(0)
    (value,) = _recombine(
        table, (_det_values, _gcp_values), [lam], (lam,), [_value_bound(table, lam)],
        prime_seed,
    )
    return Fraction(value * table.scale_minor, table.scale_full)


def _det_values(
    table: _FillTable, nodes: Sequence[int], primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """det(M) / det(M') residues at one integer node, and the (P,) mask of
    the primes not dividing det(M'), the others to be skipped.  When the
    first prime divides it, the whole stack is refused before det(M) is
    taken."""
    (lam,) = nodes
    full = table.at(primes, lam)
    det_minor = _det_mod(table.minor(full), primes)
    if det_minor[0] == 0:
        refused = np.zeros(len(primes), dtype=bool)
        return np.zeros((len(primes), 1), dtype=np.int64), refused
    ratio = _det_mod(full, primes) * _inverses(det_minor, primes) % primes
    return ratio[:, None], det_minor != 0


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
        # den's prime factors are at most the spread of the nodes, far
        # below every modulus
        assert den % p, f"Lagrange denominator {den} vanishes modulo {p}"
        inverse = pow(den, -1, p)
        columns.append([c * inverse % p for c in num])
    return np.array(columns, dtype=np.int64).T


def _recombine(
    table: _FillTable,
    routes: Sequence[Callable],
    nodes: Sequence[int],
    abscissae: tuple[int, ...],
    bounds: Sequence[int],
    prime_seed: int,
) -> list[int]:
    """The integer coefficients, each within its bound, of the polynomial
    whose value at each abscissa is the resultant at its node.

    A route maps (table, nodes, primes) to the (P, nodes) residues and
    the (P,) mask of the primes it does not skip.  Modulo each prime,
    the exact Lagrange basis of the abscissae turns the node residues
    into coefficient residues, and one crt_values call recombines them.
    The first route whose first prime is not skipped gives the result;
    the last, _gcp_values, skips no prime.  One abscissa has the basis
    L_0 = 1, so its residues pass through unchanged.
    """
    for route in routes:
        def coefficients_mod(primes: list[int], route=route) -> list[np.ndarray | None]:
            pv = np.array(primes, dtype=np.int64)
            coeffs, solved = route(table, nodes, pv)
            if len(abscissae) > 1:
                weights = np.stack([_lagrange_mod(abscissae, p) for p in primes])
                coeffs = _matvec_mod(weights, coeffs, pv[:, None])
            return [c if ok else None for c, ok in zip(coeffs, solved.tolist())]

        coeffs = crt_values(coefficients_mod, bounds, prime_seed, table.layer_size)
        if coeffs is not None:
            return coeffs
    raise AssertionError("every route list ends with _gcp_values, which skips no prime")


def _gcp_values(
    table: _FillTable, nodes: Sequence[int], primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resultant residues at integer nodes from the generalized
    characteristic polynomial (see _eval_point).

    Every (prime, node) layer is one charpoly quotient, and the layers of
    all nodes share stacks of at most STACK_CAP int64 entries.  Returns
    the (P, nodes) residues, 0 where a polynomial vanishes identically,
    and the (P,) mask of primes not skipped, as _pencil_values does; the
    monic divisor never vanishes, so no prime is skipped.
    """
    live = [i for i, lam in enumerate(nodes) if not table.vanishing_poly(lam)]
    rows = np.repeat(np.arange(len(primes)), len(live))
    cols = np.tile(np.array(live, dtype=np.intp), len(primes))
    lams = np.array(nodes, dtype=np.int64)[cols]
    out = np.zeros((len(primes), len(nodes)), dtype=np.int64)
    step = stack_layers(table.layer_size)
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        pv = primes[rows[part]]
        full = table.at(pv, lams[part])
        constant = _quotient_mod(full, table.minor(full), pv)[:, 0]
        out[rows[part], cols[part]] = (-constant if table.d % 2 else constant) % pv
    return out, np.ones(len(primes), dtype=bool)


# base points c tried, in order, for the pencil reduction modulo one prime
_SHIFTS = (0, 1, -1, 2, -2)


def _pencil_values(
    table: _FillTable, nodes: Sequence[int], primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resultant residues at integer nodes, one pencil reduction per prime.

    The Macaulay matrix is a pencil M(lambda) = F0 + lambda F1, and so is
    its divisor M'.  At a shift c where A = M(c) and A' = M'(c) are
    invertible mod p, M(lambda) = A (I + t N) with t = lambda - c and
    N = A**-1 F1, so det M(lambda) = det A * t**n * charpoly(-N)(1/t), and
    likewise for M'.  Macaulay's identity det M = Res * det M' holds as
    polynomials in lambda, so with q = charpoly(-N) / charpoly(-N'),
    monic of degree d = n - n',
    Res(lambda) = det A / det A' * sum_j q_j t**(d - j) mod p.  The whole
    stack takes the first shift that works modulo its first prime.

    Returns the (P, nodes) residues and the (P,) mask of the primes where
    that shift works; the others must be skipped.  det M(c) and det M'(c)
    are then nonzero integers, so only the primes dividing them are, and a
    later stack fails every shift only if its first prime divides them at
    the first stack's shift.  When no shift works modulo the first prime,
    as for hypergraph adjacency tensors, whose divisor vanishes
    identically in lambda, _recombine takes _gcp_values instead.
    """
    solved = np.zeros(len(primes), dtype=bool)
    slope = table.slope(primes)
    for c in _SHIFTS:
        # the divisor is smaller and is the one that fails, so try it first
        full = table.at(primes, c)
        det_minor, n_minor = _solve_mod(table.minor(full), table.minor(slope), primes)
        if det_minor[0]:
            det_full, n_full = _solve_mod(full, slope, primes)
            if det_full[0]:
                solved = (det_minor != 0) & (det_full != 0)
                break
    if not solved[0]:
        return np.zeros((len(primes), len(nodes)), dtype=np.int64), solved
    # a skipped layer's quotient is x**n / x**n', so the division is exact
    n_full[~solved] = n_minor[~solved] = 0
    moduli, cube = primes[:, None], primes[:, None, None]
    q = _quotient_mod(-n_full % cube, -n_minor % cube, primes)
    t, acc = (np.array(nodes, dtype=np.int64) - c) % moduli, 0
    for j in range(q.shape[1]):  # q_0 multiplies t**d
        acc = (acc * t + q[:, j, None]) % moduli
    scale = det_full * _inverses(det_minor, primes) % primes
    return scale[:, None] * acc % moduli, solved


def _interpolated_resultant(
    system: PolySystem, cfg: RunConfig, *, even_in_lambda: bool = False
) -> UniPoly:
    """The resultant of the system as a polynomial in lambda, by interpolation.

    The resultant is homogeneous of degree prod_{j != i} d_j in the
    coefficients of f_i (Macaulay 1902; Cox, Little & O'Shea, Using
    Algebraic Geometry, Ch. 3 Thm 3.1), and each of those coefficients
    is affine in lambda, so its lambda-degree is at most
    D = sum over the i with a nonzero lambda part of prod_{j != i} d_j.
    The D + 1 nodes lambda = 0..D therefore determine it.  If
    even_in_lambda, the resultant is known to be even in lambda: a
    polynomial of degree at most D/2 in lambda**2, which the nodes
    lambda = 0..D/2 determine.

    The node residues come from the pencil, else from the generalized
    charpoly at every node (_recombine).  The resultant of the row-scaled
    integer system has integer coefficients.  At a complex lambda every
    root of the quotient charpoly(M) / charpoly(M') is still an
    eigenvalue of M(lambda) (see _eval_point), so on |lambda| = 1 the
    resultant is at most R**d, R the largest row sum of |F0| + |F1|
    (Gershgorin), and by Cauchy's estimate so is every coefficient; all
    are recombined under that one bound.  The row scales divide out once
    at the end.
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
    step = 2 if even_in_lambda else 1
    nodes = list(range(bound // step + 1))
    # the rows of one polynomial share their absolute sums
    radius = max(
        (sum(abs(i0) + abs(i1) for i0, i1 in terms) for terms in table.poly_terms), default=0
    )
    coeffs = _recombine(
        table, (_pencil_values, _gcp_values), nodes, tuple(lam**step for lam in nodes),
        [radius**table.d] * len(nodes), cfg.prime_seed,
    )
    if even_in_lambda:
        coeffs = [c for h in coeffs for c in (h, 0)]
    scale = Fraction(table.scale_minor, table.scale_full)
    return UniPoly(tuple(c * scale for c in coeffs))


def resultant_value(
    system: PolySystem, *, prime_seed: int = 0, dim_cap: int | None = None
) -> Fraction:
    """Exact resultant of one numeric system, or of a system's lambda-free
    part."""
    if dim_cap is not None:
        check_dim_cap(system.nvars, system.degrees, dim_cap)
    return _eval_point(_FillTable(system), 0, prime_seed)
