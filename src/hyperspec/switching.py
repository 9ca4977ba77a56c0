"""Spectrum-preserving edge switching for uniform hypergraphs.

A switching partition splits the vertices into V1 and V2.  The move is
legal when |V1| is even, no edge meets V1 in more than one vertex, and
every (k-1)-subset of V2 extends to an edge with either none, half, or
all of V1.  Switching replaces, for each half-count subset, its V1
neighborhood by the complement within V1.  The operation is an
involution and is realized by conjugating the adjacency tensor with an
explicit orthogonal, symmetric matrix Q.  An orthogonal Q preserves
E-eigenpairs and the E-characteristic polynomial, so switched pairs are
E-cospectral; for k = 2 they are also cospectral, but not in general for
k >= 3, where the characteristic polynomial counts simplices.

`verify_similarity` certifies a switched pair in integers.  Q has
entries in (1/n1)Z, so it checks that n1*Q, applied along each of the k
modes of (k-1)! A_H, gives n1^k (k-1)! A_G entry by entry.  The mode
products run in the tensor module's integer kernel, the one mat_sim
uses, and (k-1)! A comes from hypergraph.scaled_adjacency, the builder
adjacency_tensor divides back.  Q is built once, as n1*Q in
_scaled_switching_matrix; the library needs no Fraction form of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadPartition,
    BadSize,
    ConditionAViolated,
    ConditionBViolated,
    DimMismatch,
    InputError,
    OddV1,
)
from .hypergraph import Hypergraph, neighbors_in, scaled_adjacency
from .tensor import _mode_products


@dataclass(frozen=True)
class SwitchingPartition:
    v1: frozenset[int]
    v2: frozenset[int]

    @classmethod
    def from_v1(cls, n: int, v1: Iterable[int]) -> "SwitchingPartition":
        first = frozenset(int(v) for v in v1)
        rest = frozenset(range(1, n + 1)) - first
        return cls(first, rest)

    @property
    def n(self) -> int:
        return len(self.v1) + len(self.v2)


@dataclass(frozen=True)
class SwitchReport:
    """Outcome of a successful validation.

    switched_sets are the (k-1)-subsets of V2 seeing exactly half of V1;
    counts is the neighbor-count histogram over every (k-1)-subset of V2,
    as (count, occurrences) pairs.
    """

    v1_size: int
    switched_sets: tuple[tuple[int, ...], ...]
    counts: tuple[tuple[int, int], ...]


def _check_partition(p: SwitchingPartition, n: int) -> None:
    everything = frozenset(range(1, n + 1))
    if p.v1 & p.v2:
        raise BadPartition(f"parts overlap on {sorted(p.v1 & p.v2)}")
    if p.v1 | p.v2 != everything:
        missing = sorted(everything - (p.v1 | p.v2))
        extra = sorted((p.v1 | p.v2) - everything)
        raise BadPartition(
            f"parts must cover 1..{n}; missing {missing}, foreign {extra}"
        )
    if not p.v1:
        raise BadPartition("first part is empty")
    if len(p.v1) % 2:
        raise OddV1(f"first part has odd size {len(p.v1)}")


def validate(h: Hypergraph, p: SwitchingPartition) -> SwitchReport:
    """Check the partition against both switching conditions.

    Raises BadPartition, OddV1, ConditionAViolated or ConditionBViolated;
    on success reports the (k-1)-subsets whose neighborhoods will flip.
    """
    _check_partition(p, h.n)
    n1 = len(p.v1)
    for edge in sorted(h.edges):
        inside = sum(1 for v in edge if v in p.v1)
        if inside > 1:
            raise ConditionAViolated(edge)
    switched: list[tuple[int, ...]] = []
    histogram: dict[int, int] = {}
    for core in itertools.combinations(sorted(p.v2), h.k - 1):
        count = len(neighbors_in(h, core, p.v1))
        if count not in (0, n1 // 2, n1):
            raise ConditionBViolated(core, count, (0, n1 // 2, n1))
        histogram[count] = histogram.get(count, 0) + 1
        if count == n1 // 2:
            switched.append(core)
    return SwitchReport(n1, tuple(switched), tuple(sorted(histogram.items())))


def switch(h: Hypergraph, p: SwitchingPartition) -> Hypergraph:
    """Apply the switching move; validates first, and is an involution."""
    return _toggle(h, p, validate(h, p))


def _toggle(h: Hypergraph, p: SwitchingPartition, report: SwitchReport) -> Hypergraph:
    """The switched hypergraph, from the report of validate(h, p)."""
    # distinct (core, v) pairs give distinct edges, so none toggles twice
    toggled = {tuple(sorted(core + (v,))) for core in report.switched_sets for v in p.v1}
    return Hypergraph(h.n, h.k, h.edges ^ toggled)


def _scaled_switching_matrix(p: SwitchingPartition) -> np.ndarray:
    """n1*Q as an int64 array, rows in vertex-label order, where Q is
    (2/n1)J - I on the first part and the identity on the second:
    symmetric, orthogonal and its own inverse.

    Within the first part the entries are 2 - n1 on the diagonal and 2
    off it; the second part's diagonal is n1; every other entry is 0.
    """
    _check_partition(p, p.n)
    n1 = len(p.v1)
    first = np.isin(np.arange(1, p.n + 1), sorted(p.v1))
    inside = np.outer(first, first).astype(np.int64)
    return 2 * inside + np.diag(np.where(first, -n1, n1))


@dataclass(frozen=True)
class SimilarityReport:
    ok: bool
    first_mismatch: tuple[int, ...] | None = None
    expected: Fraction | None = None
    actual: Fraction | None = None


def verify_similarity(
    h: Hypergraph, g: Hypergraph, p: SwitchingPartition
) -> SimilarityReport:
    """Entrywise check that conjugation carries one adjacency tensor to the other.

    Both sides are scaled to integers: n1*Q is an integer matrix, and
    (k-1)! times an adjacency tensor is 1 at every arrangement of every
    edge.  The map is similar when n1*Q applied along every mode of
    (k-1)!*A_H equals n1^k * (k-1)! * A_G entrywise.  A mismatch reports
    the first differing 1-based index in row-major order, with both
    entries divided back to the Fractions of Q A_H Q and A_G.
    """
    n1 = len(p.v1)
    nq = _scaled_switching_matrix(p)
    if (g.n, g.k) != (h.n, h.k) or p.n != h.n:
        raise DimMismatch(
            f"similarity needs one size; got H with n={h.n} k={h.k}, "
            f"G with n={g.n} k={g.k} and a partition of {p.n} vertices"
        )
    image = _mode_products(nq, scaled_adjacency(h))
    scale = n1**h.k
    # n1 is at most the largest absolute row sum of n1*Q, so the target fits
    # in whichever dtype the kernel chose
    target = scaled_adjacency(g).astype(image.dtype) * scale
    differ = np.flatnonzero(image != target)
    if not differ.size:
        return SimilarityReport(True)
    flat = int(differ[0])
    idx = tuple(int(i) + 1 for i in np.unravel_index(flat, image.shape))
    denominator = scale * factorial(h.k - 1)
    return SimilarityReport(
        False,
        idx,
        Fraction(int(target.flat[flat]), denominator),
        Fraction(int(image.flat[flat]), denominator),
    )


def find_partitions(
    h: Hypergraph, *, max_v1: int = 6
) -> Iterator[SwitchingPartition]:
    """Brute-force scan for valid partitions with a nonempty switch.

    Tries every even-sized V1 up to max_v1 vertices and yields the
    partitions that validate with at least one half-count subset.  Cost
    grows as a sum of binomials; intended for small instances only.
    """
    vertices = range(1, h.n + 1)
    for size in range(2, min(max_v1, h.n) + 1, 2):
        for chosen in itertools.combinations(vertices, size):
            p = SwitchingPartition.from_v1(h.n, chosen)
            try:
                report = validate(h, p)
            except (ConditionAViolated, ConditionBViolated, OddV1):
                continue
            if report.switched_sets:
                yield p


def example_pair(
    n: int, inner_family: Sequence[Sequence[int]] | None = None
) -> tuple[Hypergraph, Hypergraph, SwitchingPartition]:
    """A switched pair of 3-uniform hypergraphs on n+4 vertices.

    Vertices 1..4 form the even part; vertices 5..n+4 carry a family of
    edges among themselves plus six edges joining chain pairs to the
    even part, arranged so every pair among the first three chain
    vertices sees exactly half of it.  The default family is the path of
    consecutive triples; a custom family may be passed as 3-sets within
    5..n+4 and must touch every vertex past the first three.  The two
    outputs are exchanged by the switching move and are non-isomorphic
    for every n >= 3: vertex 1 is isolated in the first output only.
    """
    if n < 3:
        raise BadSize(f"need n >= 3 chain vertices, got {n}")
    u = (1, 2, 3, 4)
    v = tuple(4 + i for i in range(1, n + 1))
    if inner_family is None:
        family = [(v[i], v[i + 1], v[i + 2]) for i in range(n - 2)]
    else:
        family = [tuple(sorted(int(x) for x in e)) for e in inner_family]
        allowed = set(v)
        for edge in family:
            if len(edge) != 3 or len(set(edge)) != 3 or not set(edge) <= allowed:
                raise InputError(
                    f"family edge {edge} must be 3 distinct vertices within {v[0]}..{v[-1]}"
                )
        covered = set(itertools.chain.from_iterable(family))
        uncovered = [w for w in v[3:] if w not in covered]
        if uncovered:
            raise InputError(f"family leaves vertices {uncovered} isolated")
    h_mixed = [
        (v[0], v[1], u[1]),
        (v[0], v[1], u[2]),
        (v[1], v[2], u[1]),
        (v[1], v[2], u[3]),
        (v[0], v[2], u[2]),
        (v[0], v[2], u[3]),
    ]
    g_mixed = [
        (v[0], v[1], u[0]),
        (v[0], v[1], u[3]),
        (v[1], v[2], u[0]),
        (v[1], v[2], u[2]),
        (v[0], v[2], u[0]),
        (v[0], v[2], u[1]),
    ]
    total = n + 4
    h = Hypergraph.from_edges(total, 3, list(family) + h_mixed)
    g = Hypergraph.from_edges(total, 3, list(family) + g_mixed)
    partition = SwitchingPartition.from_v1(total, u)
    return h, g, partition
