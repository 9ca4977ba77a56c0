"""Dense resultants of square homogeneous polynomial systems.

For n homogeneous polynomials in n variables of degrees d_1..d_n,
Macaulay's matrix M has one row per monomial mu of total degree
D = sum(d_i - 1) + 1, holding (mu / x_i**d_i) * f_i for the least i with
x_i**d_i dividing mu.  The resultant is det(M) / det(M'), M' the
principal submatrix on the monomials divisible by x_i**d_i for two or
more i.

Every resultant goes through one system type, PolySystem, linear in a
parameter lambda, whose M is tabulated once as a sparse integer pencil
split into diagonal blocks (_FillTable, built only by _table, which
refuses one past the size cap first).  No route forms M or M' whole:
each stacks the blocks of one size modulo its primes, and multiplies
their determinants or adds their power sums, which Newton's identities
turn into a charpoly quotient.  A route gives the resultant's residues
at integer nodes modulo a stack of primes: by one pencil reduction per
stack (_pencil_values), by det(M) / det(M') at one node (_det_values),
or by the generalized charpoly at every node (_gcp_values).  _recombine
tries routes in order, interpolates node residues mod p, and recombines
the coefficients in one crt_values call.  Each entry point takes
(system, config): a polynomial in lambda takes the pencil, else the
generalized charpoly (_interpolated_resultant); a value takes the
determinant ratio, else the generalized charpoly (resultant_value); the
characteristic quotient takes charpoly(M) / charpoly(M') whole
(_charpoly_quotient).  A zero value read off the input comes before any
system is built (spectra.det_tensor).
Where det(M') vanishes, Canny's generalized characteristic polynomial
(J. Symbolic Comput. 9, 1990) gives the value: charpoly(M) / charpoly(M')
has a monic divisor, and its constant term is the resultant up to sign.
Every exact value is recombined under the smaller of a Gershgorin and a
Schur bound, since the roots of that quotient are eigenvalues of M's
kept diagonal blocks (_FillTable, _elementary_bound).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lcm, prod
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    BadPrime,
    CapExceeded,
    DegreeCapExceeded,
    DimMismatch,
    InputError,
    NotHomogeneous,
    NotSquareSystem,
)
from .modular import (
    _inverses, _matvec_mod, _solve_mod, crt_values, newton_mod, stack_layers,
    summed_power_sums_mod, trace_layer_size, trace_powers_mod,
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


def _strong_components(size: int, row: np.ndarray, col: np.ndarray) -> list[list[int]]:
    """The strongly connected components of the graph on range(size) with
    an arc r -> c for each pair (row[e], col[e]), by an iterative Tarjan,
    in an order where every arc stays in its component or leads to a
    later one: a matrix with this pattern, permuted into this order, is
    block upper triangular (Duff & Reid, ACM TOMS 4, 1978)."""
    order = np.argsort(row, kind="stable")
    heads = col[order].tolist()
    starts = np.searchsorted(row[order], np.arange(size + 1)).tolist()
    index, low, spot = [-1] * size, [0] * size, [0] * size
    closed = [False] * size
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        work = [(root, starts[root])]
        index[root] = low[root] = counter
        counter += 1
        spot[root] = len(stack)
        stack.append(root)
        while work:
            v, i = work[-1]
            while i < starts[v + 1]:
                w = heads[i]
                i += 1
                if index[w] < 0:  # descend into w, resuming v at arc i
                    work[-1] = (v, i)
                    index[w] = low[w] = counter
                    counter += 1
                    spot[w] = len(stack)
                    stack.append(w)
                    work.append((w, starts[w]))
                    break
                if not closed[w] and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    components.append(stack[spot[v] :])
                    for w in components[-1]:
                        closed[w] = True
                    del stack[spot[v] :]
    # Tarjan closes a component after every component it reaches
    return components[::-1]


class _Blocks:
    """Diagonal blocks of one size: block b holds the monomials index[b],
    and its cell (i, j) entry slot[b, i, j] of a table's arrays, whose
    final 0 fills the empty cells.  A kept block's first divisor[b]
    monomials are its non-reduced ones, the block of M' inside it.  In a
    table with a lambda part, support holds the columns where F1 is
    nonzero on some block, and divisor_support those where it is nonzero
    on some block's divisor part."""

    def __init__(self, index: np.ndarray, slot: np.ndarray):
        self.index, self.slot, self.size = index, slot, index.shape[1]
        self.divisor = np.zeros(len(index), dtype=np.intp)
        self.support = self.divisor_support = np.arange(0)


def _group_blocks(
    blocks: list[list[int]], row: np.ndarray, col: np.ndarray, size: int
) -> list[_Blocks]:
    """The diagonal blocks, grouped by size, that disjoint index lists cut
    from the pattern (row, col) of a size x size matrix."""
    if not blocks:
        return []
    blocks = sorted(blocks, key=len)
    where, local = [-1] * size, [0] * size
    for b, nodes in enumerate(blocks):
        for i, v in enumerate(nodes):
            where[v], local[v] = b, i
    where, local = np.array(where), np.array(local)
    sizes = np.array([len(b) for b in blocks])
    offset = np.cumsum(sizes**2) - sizes**2
    owner = where[row]
    inside = np.flatnonzero((owner >= 0) & (owner == where[col]))
    owner = owner[inside]
    slot = np.full(offset[-1] + sizes[-1] ** 2, len(row))
    slot[offset[owner] + local[row[inside]] * sizes[owner] + local[col[inside]]] = inside
    groups, first = [], 0
    for s, run in itertools.groupby(sizes.tolist()):
        count = len(list(run))
        cells = slot[offset[first] : offset[first] + count * s * s]
        groups.append(_Blocks(np.array(blocks[first : first + count]), cells.reshape(-1, s, s)))
        first += count
    return groups


class _FillTable:
    """The Macaulay matrix of one system as one sparse integer pencil,
    split into diagonal blocks.

    Rows are scaled once by their polynomial's denominator lcm, so each
    nonzero entry of M(lambda) = F0 + lambda F1 is an integer, held once
    in row, col, i0 and i1; i0 and i1 end with a 0 that every empty cell
    of a block takes.  The scales divide back out of the quotient.  The
    strongly connected components of the pattern order the monomials so
    that M(lambda) is block upper triangular at every lambda, and so is
    M' on each block's non-reduced part: det M = prod det M_bb and
    tr(M**j) = sum tr(M_bb**j), and likewise for M'.  A block inside M'
    cancels and is dropped, singular or not; blocks holds the others,
    each with its non-reduced monomials first, so that M'_b is its
    leading divisor[b] x divisor[b] block, and minors those non-empty
    parts, grouped by size, for the power-sum routes.  stacks gathers a
    group's blocks modulo a prime each.

    The bounds read only the entries inside kept blocks.  The quotient
    q = charpoly(M) / charpoly(M') is a polynomial (see resultant_value),
    and once the dropped blocks cancel, q * prod charpoly(M'_b) =
    prod charpoly(M_bb) over the kept blocks b, M'_b the non-reduced
    part of M_bb.  So the roots of q are a sub-multiset of the kept
    blocks' eigenvalues: each at most the largest absolute row sum of
    its block (Gershgorin), and their squares summing to at most the
    blocks' squared Frobenius norms (Schur).  patterns holds each row's
    in-block entries as a mask over its polynomial's terms, with the
    number of rows sharing it.
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
        i0, i1 = zip(*entries, (0, 0))
        self.i0, self.i1 = np.array(i0, dtype=dtype), np.array(i1, dtype=dtype)
        self.scale_full = prod(poly_scale[i] for i in structure.assignment)
        self.scale_minor = prod(
            poly_scale[structure.assignment[r]] for r in structure.nonreduced
        )
        divisor = [False] * self.size
        for r in structure.nonreduced:
            divisor[r] = True
        kept = [
            sorted(b, key=lambda r: not divisor[r])  # the non-reduced monomials first
            for b in _strong_components(self.size, self.row, self.col)
            if not all(divisor[r] for r in b)
        ]
        self.blocks = _group_blocks(kept, self.row, self.col, self.size)
        minors = [m for b in kept if (m := [r for r in b if divisor[r]])]
        self.minors = _group_blocks(minors, self.row, self.col, self.size)
        in_divisor = np.array(divisor)
        for g in self.blocks:
            g.divisor = in_divisor[g.index].sum(axis=1)
        for g in self.blocks + self.minors if system.linear else ():
            f1 = self.i1[g.slot] != 0
            g.support = np.flatnonzero(f1.any(axis=(0, 1)))
            inner = np.arange(g.size) < g.divisor[:, None]
            f1 &= inner[:, :, None] & inner[:, None, :]
            g.divisor_support = np.flatnonzero(f1.any(axis=(0, 1)))
        inside = np.zeros(len(self.row) + 1, dtype=bool)  # the last takes empty cells
        inside[np.concatenate([g.slot.ravel() for g in self.blocks] + [self.col[:0]])] = True
        inside = inside.tolist()
        self.patterns = Counter(
            (i, tuple(inside[end - len(poly_terms[i]) : end]))
            for i, end in zip(structure.assignment, itertools.accumulate(counts))
        )
        # int64 entries one prime takes in the largest block's stacks
        self.layer_size = _stack_entries(max(map(len, kept), default=0), bool(system.linear))

    def stacks(
        self, primes: np.ndarray, lams: np.ndarray, columns: Callable | None = None
    ) -> Callable:
        """The stacks that _blockwise takes: the (len(blocks), size, size)
        stack of M(lams[i]) on blocks[i] of a group modulo primes[i] for
        each layer i, and with columns, F1 on the columns(group) too."""

        def build(group: _Blocks, layers: np.ndarray, blocks: np.ndarray) -> list[np.ndarray]:
            moduli = primes[layers, None, None]
            slot = group.slot[blocks]
            f1 = self.i1[slot] % moduli
            at = (self.i0[slot] % moduli + lams[layers, None, None] % moduli * f1) % moduli
            out = (at,) if columns is None else (at, f1[:, :, columns(group)])
            return [np.asarray(v, dtype=np.int64) for v in out]

        return build

    def _magnitudes(self, lam: int | None) -> list[list[int]]:
        """The absolute entries of each polynomial's rows of M(lam); for
        lam None, |i0| + |i1|, which bounds them on |lambda| = 1."""
        if lam is None:
            return [[abs(i0) + abs(i1) for i0, i1 in terms] for terms in self.poly_terms]
        return [[abs(i0 + lam * i1) for i0, i1 in terms] for terms in self.poly_terms]

    def norms(self, lam: int | None) -> tuple[int, int]:
        """(R, S) over the kept blocks of M(lam), or for lam None their
        bounds on |lambda| = 1: the largest absolute row sum inside a
        block, a bound on the quotient's roots (Gershgorin), and the sum
        of the blocks' squared Frobenius norms, a bound on the sum of
        their squared absolute values (Schur)."""
        mags = self._magnitudes(lam)
        rows = [(count, [m for m, keep in zip(mags[i], mask) if keep])
                for (i, mask), count in self.patterns.items()]
        return max((sum(row) for _, row in rows), default=0), sum(
            count * sum(v * v for v in row) for count, row in rows)


def check_dim_cap(nvars: int, degrees: tuple[int, ...], config: RunConfig) -> None:
    """Refuse a Macaulay matrix past config.dim_cap from its size alone,
    before macaulay_structure runs."""
    size = macaulay_dim(nvars, degrees)
    if size > config.dim_cap:
        raise CapExceeded(f"matrix dimension {size} exceeds cap {config.dim_cap}")


def _table(system: PolySystem, config: RunConfig) -> _FillTable:
    """The table of system, refused past the size cap first."""
    check_dim_cap(system.nvars, system.degrees, config)
    return _FillTable(system)


def _stack_entries(size: int, pencil: bool) -> int:
    """The int64 entries one prime takes in a stack of size x size blocks:
    M(c) with F1, or [A | F1], for the pencil, and M(c) alone for a
    determinant."""
    return 2 * (size + 1) ** 2 if pencil else max(size, 1) ** 2


def _blockwise(
    groups: Sequence[_Blocks],
    primes: np.ndarray,
    stacks: Callable[[_Blocks, np.ndarray, np.ndarray], Sequence[np.ndarray]],
    kernel: Callable,
    layer_size: Callable[[int], int],
) -> Iterator[tuple[np.ndarray, ...]]:
    """kernel(*stacks(group, layers, blocks), primes[layers]) on every
    (layer, block) pair of each group, in stacks of at most STACK_CAP
    entries, a pair of size s taking layer_size(s); per group, in turn,
    the kernel's outputs, each shaped (layers, blocks, ...)."""
    for group in groups:
        count = len(group.index)
        pairs = len(primes) * count
        step = stack_layers(layer_size(group.size))
        parts = []
        for start in range(0, pairs, step):
            layers, blocks = np.divmod(np.arange(start, min(start + step, pairs)), count)
            got = kernel(*stacks(group, layers, blocks), primes[layers])
            parts.append(got if isinstance(got, tuple) else (got,))
        yield tuple(
            (np.concatenate(r) if len(r) > 1 else r[0]).reshape(len(primes), count, *r[0].shape[1:])
            for r in zip(*parts)
        )


def _quotient(d: int, groups: Sequence, primes: np.ndarray, stacks: Callable) -> np.ndarray:
    """Ascending (P, d + 1) coefficients, modulo each layer's prime, of
    the monic quotient of degree d of the charpolys of the blocks
    groups[0] over those of groups[1], all as stacks gives them: its
    power sums are theirs less the divisor's (newton_mod).  A block
    takes min(size, d) traces, extended past its size by its charpoly."""
    def traces(a: np.ndarray, pv: np.ndarray) -> np.ndarray:
        return trace_powers_mod(a, pv, min(a.shape[1], d))

    sums = np.zeros((len(primes), d), dtype=np.int64)
    for sign, part in zip((1, -1), groups):
        for (t,) in _blockwise(part, primes, stacks, traces, lambda s: trace_layer_size(s, d)[1]):
            sums += sign * summed_power_sums_mod(t, primes, d)
    return newton_mod(sums % primes[:, None], primes)


def _quotients(table: _FillTable, primes: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """charpoly(M) / charpoly(M') at each layer's lambda modulo its prime."""
    return _quotient(table.d, (table.blocks, table.minors), primes, table.stacks(primes, lams))


def _det_product(dets: Sequence[np.ndarray], primes: np.ndarray) -> np.ndarray:
    """The product of (P, blocks) block determinants at each layer modulo
    its prime."""
    out = np.ones_like(primes)
    for value in np.concatenate([*dets, out[:, None]], axis=1).T:
        out = out * value % primes
    return out


def _elementary_bound(d: int, k: int, radius: int, frobenius: int) -> int:
    """A bound on |e_k|, the k-th elementary symmetric function, of any d
    complex numbers mu with every |mu| <= radius and sum |mu|**2 <=
    frobenius: the smaller of two.

    Gershgorin's: e_k has C(d, k) terms, each a product of k of them, so
    |e_k| <= C(d, k) radius**k.  Schur's: |e_k(mu)| <= e_k(|mu|), and by
    Maclaurin's inequality and the power mean,
    (e_k(|mu|) / C(d, k))**(1/k) <= sum |mu| / d <= (frobenius / d)**(1/2),
    so |e_k| <= C(d, k) (frobenius / d)**(k/2), taken here as the exact
    ceiling of the square root of C(d, k)**2 frobenius**k / d**k.  For
    k = d this is the AM-GM bound (frobenius / d)**(d/2) on the product.
    """
    c = comb(d, k)
    square = -(-c * c * frobenius**k // d**k)
    root = isqrt(square)
    return min(c * radius**k, root + (root * root < square))


def _charpoly_quotient(system: PolySystem, config: RunConfig) -> list[int]:
    """The ascending integer coefficients of charpoly(M) / charpoly(M') at
    lambda = 0, M the Macaulay matrix of an integer system: that of x**j
    is, up to sign, e_(d - j) of d eigenvalues of M's kept blocks, under
    _elementary_bound of their row sum R and sum of squares S
    (table.norms(0)).
    """
    table = _table(system, config)
    d, (radius, frobenius) = table.d, table.norms(0)

    def residues_mod(primes: list[int]) -> np.ndarray:
        pv = np.array(primes, dtype=np.int64)
        return _quotients(table, pv, np.zeros_like(pv))

    bounds = [_elementary_bound(d, d - j, radius, frobenius) for j in range(d + 1)]
    return crt_values(residues_mod, bounds, config.prime_seed, table.layer_size)


def _value_bound(table: _FillTable, lam: int | None) -> int:
    """A bound on the absolute resultant value at an integer lambda, or on
    |lambda| = 1 for lam None, where |i0 + lambda i1| <= |i0| + |i1|: up
    to sign the product of the quotient's d roots, eigenvalues of kept
    blocks of M(lambda): at most R**d and (S / d)**(d/2) (_elementary_bound)."""
    return _elementary_bound(table.d, table.d, *table.norms(lam))


def _det_ratio(table: _FillTable, primes: np.ndarray, lam: int, pencil: bool) -> tuple | None:
    """det(M) / det(M') at lam, modulo each layer's prime, from one
    _solve_mod of each kept block, for the pencil against F1 on the
    group's support: det M'_b is the product of the block's first
    divisor[b] pivots, taken from its first divisor[b] rows.  None as
    soon as the first prime divides det(M'), which stops the kernel's
    stack and the groups after it.  Returns the ratio, the (P,) masks of
    the primes where det(M') and det(M) do not vanish, and each group's
    solutions and right sides after its divisor's steps."""
    stacks = table.stacks(primes, np.full(len(primes), lam, dtype=np.int64),
                          (lambda g: g.support) if pencil else (lambda g: slice(0)))

    def with_divisor(group: _Blocks, layers: np.ndarray, blocks: np.ndarray) -> tuple:
        return (*stacks(group, layers, blocks), group.divisor[blocks])

    def solve(a: np.ndarray, b: np.ndarray, divisor: np.ndarray, pv: np.ndarray) -> tuple:
        return _solve_mod(a, b, pv, divisor, primes[0])

    dets, minors, solutions = [], [], {}
    groups = _blockwise(table.blocks, primes, with_divisor, solve,
                        lambda s: _stack_entries(s, pencil))
    for group, (det, x, minor, y) in zip(table.blocks, groups):
        if not minor[0].all():
            return None
        dets.append(det)
        minors.append(minor)
        solutions[group] = x, y
    det_full, det_minor = _det_product(dets, primes), _det_product(minors, primes)
    ratio = det_full * _inverses(det_minor, primes) % primes
    return ratio, det_minor != 0, det_full != 0, solutions


def _det_values(
    table: _FillTable, nodes: Sequence[int], primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """det(M) / det(M') residues at one integer node, and the (P,) mask of
    the primes not dividing det(M'), the others to be skipped; the whole
    stack is refused when the first prime divides it (_det_ratio)."""
    (lam,) = nodes
    got = _det_ratio(table, primes, lam, False)
    if got is None:
        return np.zeros((len(primes), 1), dtype=np.int64), np.zeros(len(primes), dtype=bool)
    return got[0][:, None], got[1]


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
        # den's prime factors are at most the spread of the nodes
        if den % p == 0:
            raise BadPrime(f"Lagrange denominator {den} vanishes modulo {p}")
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
    the (P,) mask of the primes it does not skip; the exact Lagrange
    basis of the abscissae (L_0 = 1 for one) turns them into coefficient
    residues mod p, which one crt_values call recombines.  The first
    route whose first prime is not skipped gives the result; the last,
    _gcp_values, skips no prime.
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
    characteristic polynomial (see resultant_value): every (prime, node)
    layer is one charpoly quotient, all in one _quotients call, whose
    _blockwise sizes every stack.  Returns the (P, nodes) residues, 0 as
    the resultant where a polynomial vanishes identically, and the (P,)
    mask of primes not skipped, all of them: the monic divisor never
    vanishes."""
    pv = np.repeat(primes, len(nodes))
    constant = _quotients(table, pv, np.tile(np.array(nodes, dtype=np.int64), len(primes)))[:, 0]
    out = (-1) ** table.d * constant % pv
    return out.reshape(len(primes), len(nodes)), np.ones(len(primes), dtype=bool)


# base points c tried, in order, for the pencil reduction modulo one prime
_SHIFTS = (0, 1, -1, 2, -2)


def _pencil_values(
    table: _FillTable, nodes: Sequence[int], primes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resultant residues at integer nodes, one pencil reduction per prime.

    At a shift c where A = M(c) and A' = M'(c) are invertible mod p,
    M(lambda) = A (I + t N) with t = lambda - c and N = A**-1 F1, so
    det M(lambda) = det A * t**n * charpoly(-N)(1/t), and likewise for M'.
    Macaulay's identity det M = Res * det M' holds as polynomials in
    lambda, so with q = charpoly(-N) / charpoly(-N'), monic of degree d,
    Res(lambda) = det A / det A' * sum_j q_j t**(d - j) mod p.  The whole
    stack takes the first shift that works modulo its first prime.  The
    diagonal blocks of N are N_bb = A_bb**-1 F1_bb, and N_bb is zero on
    each column where F1_bb is: with J the columns where F1 is nonzero on
    some block of a group, -N_bb has the eigenvalues of -N_bb[J, J] and
    zeros, which add 0 to every power sum.  So each block is solved
    against F1_bb[:, J] alone, and q has the power sums of the -N_bb[J, J]
    less the divisor's: for odd order, about half the size of the blocks.
    The same elimination gives the divisor's: after its first r = divisor[b]
    steps, a block's right side holds A'_b**-1 F1_bb[:r, J], whose rows and
    columns below r in J' (the group's divisor_support, within J) are
    N'_b[J', J'], and the rows and columns of J' from r on are zeroed.  So
    -N has at most m = sum count |J| nonzero eigenvalues over the groups,
    q = x**(d - m) g when m < d, and sum_j q_j t**(d - j) =
    sum_i g_i t**(m - i): q takes min(d, m) power sums.

    Returns the (P, nodes) residues and the (P,) mask of the primes where
    that shift works, the others to be skipped: only the primes dividing
    the nonzero integers det M(c) and det M'(c).  When no shift works
    modulo the first prime, as for hypergraph adjacency tensors, whose
    divisor vanishes identically in lambda, _recombine takes _gcp_values.
    """
    solved = np.zeros(len(primes), dtype=bool)
    for c in _SHIFTS:
        got = _det_ratio(table, primes, c, True)
        if got is not None and got[2][0]:
            scale, minor_ok, full_ok, solutions = got
            solved = minor_ok & full_ok
            break
    if not solved[0]:
        return np.zeros((len(primes), len(nodes)), dtype=np.int64), solved
    # -N_bb[J, J] and -N'_b[J', J'] of each group's blocks, each stack
    # under a group of its own size
    parts: tuple[list, list] = ([], [])
    negated = {}
    for g, (x, y) in solutions.items():
        inside = g.divisor_support < g.divisor[:, None]
        y = y[:, :, g.divisor_support][..., np.searchsorted(g.support, g.divisor_support)]
        y *= inside[:, :, None] & inside[:, None, :]
        for part, n in zip(parts, (x[:, :, g.support], y)):
            if n.shape[2]:
                n[~solved] = 0
                part.append(_Blocks(np.zeros(n.shape[1:3], dtype=np.intp), None))
                negated[part[-1]] = -n % primes[:, None, None, None]
    m = sum(len(g.index) * g.size for g in parts[0])
    q = _quotient(min(table.d, m), parts, primes,
                  lambda group, layers, blocks: (negated[group][layers, blocks],))
    moduli = primes[:, None]
    t, acc = (np.array(nodes, dtype=np.int64) - c) % moduli, 0
    for j in range(q.shape[1]):  # q_0 multiplies t**min(d, m)
        acc = (acc * t + q[:, j, None]) % moduli
    return scale[:, None] * acc % moduli, solved


def _interpolated_resultant(
    system: PolySystem, cfg: RunConfig, *, even_in_lambda: bool = False
) -> UniPoly:
    """The resultant of the system as a polynomial in lambda, by interpolation.

    The resultant is homogeneous of degree prod_{j != i} d_j in the
    coefficients of f_i (Macaulay 1902; Cox, Little & O'Shea, Using
    Algebraic Geometry, Ch. 3 Thm 3.1), each affine in lambda, so the
    nodes lambda = 0..D fix it, D the sum over the i with a nonzero
    lambda part of prod_{j != i} d_j; if even_in_lambda, as a polynomial
    in lambda**2, the nodes 0..D/2 do.

    The node residues come from the pencil, else from the generalized
    charpoly at every node (_recombine).  The row-scaled system's
    resultant has integer coefficients.  On |lambda| = 1 it is at most
    _value_bound(table, None), since every root of the quotient is an
    eigenvalue of a kept block of M(lambda), and by Cauchy's estimate so
    is every coefficient.  The row scales divide out once at the end.
    """
    table = _table(system, cfg)
    bound = sum(
        prod(system.degrees[:i] + system.degrees[i + 1 :])
        for i, part in enumerate(system.linear)
        if not part.is_zero()
    )
    if bound > cfg.degree_cap:
        raise DegreeCapExceeded(
            f"resultant degree bound {bound} exceeds cap {cfg.degree_cap}"
        )
    step = 2 if even_in_lambda else 1
    nodes = list(range(bound // step + 1))
    coeffs = _recombine(
        table, (_pencil_values, _gcp_values), nodes, tuple(lam**step for lam in nodes),
        [_value_bound(table, None)] * len(nodes), cfg.prime_seed,
    )
    if even_in_lambda:
        coeffs = [c for h in coeffs for c in (h, 0)]
    scale = Fraction(table.scale_minor, table.scale_full)
    return UniPoly(tuple(c * scale for c in coeffs))


def resultant_value(system: PolySystem, config: RunConfig = DEFAULT_CONFIG) -> Fraction:
    """Exact resultant of one numeric system, or of a system's lambda-free
    part: its value at lambda = 0, bounded by _value_bound.

    Where det(M') is nonzero, the value is det(M) / det(M') modulo each
    prime (_det_values); a prime dividing det(M') is skipped.  When it
    vanishes modulo the first prime: perturbing each scaled polynomial by
    -s * x_i**d_i subtracts s from the diagonal of M and M', so
    Res(F - s x^d) = (-1)**(N - N') * charpoly(M) / charpoly(M'), whose
    monic divisor never vanishes, and Res(F) is its value at s = 0
    (_gcp_values).
    """
    table = _table(system, config)
    (value,) = _recombine(
        table, (_det_values, _gcp_values), [0], (0,), [_value_bound(table, 0)],
        config.prime_seed,
    )
    return Fraction(value * table.scale_minor, table.scale_full)
