"""Uniform hypergraphs on 1-based vertices.

A k-uniform hypergraph on vertices 1..n stores its edges as sorted
k-tuples.  The adjacency tensor has order k and entry 1/(k-1)! at every
arrangement of each edge, so that the tensor's polynomial map sends x to
the edge-neighborhood sums; its one builder, scaled_adjacency, gives
(k-1)! times it in int64.  Edge sets also travel as bitmasks over the
lexicographic list of all k-subsets, which is what the universe walks,
their simplex counts and canonicalization operate on.  Every
vertex relabeling of a mask is read off one cached numpy table per
(n, k), for up to CANONICAL_MAX_N vertices.

The text format is line-based: optional '#' comments, one "n k" header
line, then one edge per line as k ascending vertex ids.  Formatting a
parsed file reproduces it byte for byte when the edges were sorted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BadEdge, BadSetSize, BadSize, CapExceeded, ParseError
from .tensor import Tensor

VertexSet = tuple[int, ...]

# canonical forms read all n! relabelings off one cached remap table: at
# n = 8 it takes 9-23 MB, and a table of 9! rows would be ten times that
CANONICAL_MAX_N = 8

# edge slots C(n, k) of a universe walked mask by mask; below 64, every
# mask fits in an int64
MAX_EDGE_SLOTS = 63


def universe_slots(n: int, k: int) -> int:
    """The C(n, k) edge slots of the (n, k) universe, refused above
    MAX_EDGE_SLOTS before any mask or table is built."""
    if k < 1 or n < k:
        raise BadSize(f"need 1 <= k <= n, got n={n} k={k}")
    slots = comb(n, k)
    if slots > MAX_EDGE_SLOTS:
        raise CapExceeded(f"{slots} candidate edges exceed the enumeration cap")
    return slots


@dataclass(frozen=True)
class Hypergraph:
    n: int
    k: int
    edges: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.k < 1 or self.n < self.k:
            raise BadSize(f"need 1 <= k <= n, got n={self.n} k={self.k}")
        if self.edges and self.k < 2:
            raise BadSize("edges require k >= 2")
        for edge in self.edges:
            _check_edge(edge, self.n, self.k)

    @classmethod
    def from_edges(
        cls, n: int, k: int, edges: Iterable[Sequence[int]]
    ) -> "Hypergraph":
        normalized = frozenset(tuple(sorted(int(v) for v in e)) for e in edges)
        return cls(n, k, normalized)

    @classmethod
    def empty(cls, n: int, k: int) -> "Hypergraph":
        return cls(n, k, frozenset())

    @classmethod
    def complete(cls, n: int, k: int) -> "Hypergraph":
        return cls(n, k, frozenset(itertools.combinations(range(1, n + 1), k)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, vertex: int) -> int:
        return sum(1 for e in self.edges if vertex in e)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degree(v) for v in range(1, self.n + 1)))


def _check_edge(edge: tuple[int, ...], n: int, k: int) -> None:
    if len(edge) != k:
        raise BadEdge(f"edge {edge} has {len(edge)} vertices, expected {k}")
    if len(set(edge)) != k:
        raise BadEdge(f"edge {edge} repeats a vertex")
    if list(edge) != sorted(edge):
        raise BadEdge(f"edge {edge} is not sorted")
    if edge[0] < 1 or edge[-1] > n:
        raise BadEdge(f"edge {edge} out of range 1..{n}")


def scaled_adjacency(h: Hypergraph) -> np.ndarray:
    """(k-1)! times the adjacency tensor of h, as an int64 array: 1 at
    every arrangement of every edge."""
    try:
        a = np.zeros((h.n,) * h.k, dtype=np.int64)
    except (ValueError, MemoryError):  # numpy refuses the shape or the memory
        raise CapExceeded(f"adjacency tensor of {h.n}**{h.k} entries does not fit") from None
    if h.edges:
        edges = np.array(sorted(h.edges), dtype=np.intp) - 1
        perms = np.array(list(itertools.permutations(range(h.k))), dtype=np.intp)
        a[tuple(edges[:, perms].reshape(-1, h.k).T)] = 1
    return a


def adjacency_tensor(h: Hypergraph) -> Tensor:
    weight, zero = Fraction(1, factorial(h.k - 1)), Fraction(0)
    entries = tuple(weight if v else zero for v in scaled_adjacency(h).ravel().tolist())
    return Tensor(h.k, h.n, entries)


def complement(h: Hypergraph) -> Hypergraph:
    every = frozenset(itertools.combinations(range(1, h.n + 1), h.k))
    return Hypergraph(h.n, h.k, every - h.edges)


def count_simplices(h: Hypergraph) -> int:
    """Vertex sets of size k+1 all of whose k-subsets are edges."""
    return sum(1 for _ in simplices(h))


def simplices(h: Hypergraph) -> Iterator[tuple[int, ...]]:
    """The simplices of h in lexicographic order.  Each is the edge on its
    k least vertices plus one larger vertex, so the work is O(|E| n k)
    set lookups, not one per (k+1)-set of 1..n."""
    for edge in sorted(h.edges):
        for w in range(edge[-1] + 1, h.n + 1):
            group = edge + (w,)
            if all(group[:i] + group[i + 1 :] in h.edges for i in range(h.k)):
                yield group


def neighbors_in(
    h: Hypergraph, core: Iterable[int], pool: Iterable[int]
) -> frozenset[int]:
    """Vertices w in the pool completing the (k-1)-set core to an edge."""
    core_set = frozenset(core)
    if len(core_set) != h.k - 1:
        raise BadSetSize(
            f"core has {len(core_set)} vertices, expected {h.k - 1}"
        )
    base = tuple(sorted(core_set))
    out = set()
    for w in pool:
        if w in core_set:
            continue
        if tuple(sorted(base + (w,))) in h.edges:
            out.add(w)
    return frozenset(out)


# --- bitmask view ------------------------------------------------------------


@lru_cache(maxsize=None)
def subset_order(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def _subset_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(subset_order(n, k))}


@lru_cache(maxsize=None)
def simplex_masks(n: int, k: int) -> tuple[tuple[VertexSet, int], ...]:
    """Each (k+1)-set of 1..n, in lexicographic order, with the bitmask of
    its k-subsets: an edge set holds that simplex when it covers the mask."""
    index = _subset_index(n, k)
    return tuple(
        (group, sum(1 << index[sub] for sub in itertools.combinations(group, k)))
        for group in itertools.combinations(range(1, n + 1), k + 1)
    )


def mask_simplex_count(n: int, k: int, mask: int) -> int:
    """count_simplices of the (n, k) hypergraph with this edge bitmask."""
    return sum(mask & faces == faces for _, faces in simplex_masks(n, k))


_FILTER_CHUNK = 4096  # masks counted per numpy pass


def with_simplex_count(
    n: int, k: int, masks: Iterable[int], count: int
) -> Iterator[int]:
    """The masks, in their order, whose mask_simplex_count is count.

    Lazy: each chunk of masks is counted in one numpy pass against the
    simplex_masks table, so a walk over 2^C(n, k) masks never builds an
    array of them.
    """
    dtype = np.int64 if comb(n, k) < 64 else object
    faces = np.array([f for _, f in simplex_masks(n, k)], dtype=dtype)
    walk = iter(masks)
    while True:
        chunk = np.fromiter(itertools.islice(walk, _FILTER_CHUNK), dtype=dtype)
        if not chunk.size:
            return
        counts = (chunk[:, None] & faces == faces).sum(axis=1)
        yield from chunk[counts == count].tolist()


def popcount_masks(slots: int, count: int) -> Iterator[int]:
    """Every mask of count bits below 1 << slots, in increasing order.

    Gosper's next-bit-permutation (HAKMEM item 175) steps from each mask
    to the next, so only the C(slots, count) masks are visited.
    """
    if not 0 <= count <= slots:
        return
    if count == 0:
        yield 0
        return
    mask, limit = (1 << count) - 1, 1 << slots
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> 2) // low


def edge_bitmask(h: Hypergraph) -> int:
    index = _subset_index(h.n, h.k)
    mask = 0
    for edge in h.edges:
        mask |= 1 << index[edge]
    return mask


def mask_edges(n: int, k: int, mask: int) -> list[tuple[int, ...]]:
    """The edges of this (n, k) bitmask, in lexicographic order."""
    order = subset_order(n, k)
    return [order[i] for i in range(len(order)) if mask >> i & 1]


def from_bitmask(n: int, k: int, mask: int) -> Hypergraph:
    slots = comb(n, k)
    if mask < 0 or mask >> slots:
        raise BadEdge(f"bitmask {mask} out of range for {slots} subsets")
    return Hypergraph(n, k, frozenset(mask_edges(n, k, mask)))


@lru_cache(maxsize=None)
def _perm_remaps(n: int, k: int) -> np.ndarray:
    """(n!, C(n, k)) table: row p, column i is 1 << the index of k-subset i
    under vertex permutation p.  It is int64 while those bits fit, and
    Python ints beyond (only (8, 4), with 70 subsets, among n <= 8).

    Distinct subsets have distinct images, so the row sum over the set
    bits of a mask is the mask relabeled by p.
    """
    order = subset_order(n, k)
    dtype = np.int64 if len(order) < 64 else object
    vertex_sets = np.zeros(1 << n, dtype=dtype)  # image vertex set -> bit
    incidence = np.zeros((n, len(order)), dtype=np.int64)
    for i, s in enumerate(order):
        vertex_sets[sum(1 << (v - 1) for v in s)] = 1 << i
        incidence[[v - 1 for v in s], i] = 1
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    return vertex_sets[(1 << perms) @ incidence]


def mask_orbit(n: int, k: int, mask: int) -> set[int]:
    """The edge bitmasks of every vertex relabeling of this (n, k) mask."""
    if n > CANONICAL_MAX_N:
        raise CapExceeded(
            f"canonical form capped at {CANONICAL_MAX_N} vertices, got {n}"
        )
    bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return set(_perm_remaps(n, k)[:, bits].sum(axis=1).tolist())


def canonical_form(h: Hypergraph) -> int:
    """Least edge bitmask over all vertex relabelings; a hashable class key."""
    return min(mask_orbit(h.n, h.k, edge_bitmask(h)))


def is_isomorphic(g: Hypergraph, h: Hypergraph) -> tuple[int, ...] | None:
    """A relabeling sending g onto h, as images of vertices 1..n, or None."""
    if g.n != h.n or g.k != h.k or g.edge_count != h.edge_count:
        return None
    if g.degree_sequence() != h.degree_sequence():
        return None
    g_degrees = {v: g.degree(v) for v in range(1, g.n + 1)}
    h_degrees = {v: h.degree(v) for v in range(1, h.n + 1)}
    vertex_order = sorted(range(1, g.n + 1), key=lambda v: -g_degrees[v])
    images: dict[int, int] = {}
    used: set[int] = set()

    g_edges_by_last: dict[int, list[tuple[int, ...]]] = {v: [] for v in vertex_order}
    position = {v: i for i, v in enumerate(vertex_order)}
    for edge in g.edges:
        last = max(edge, key=lambda v: position[v])
        g_edges_by_last[last].append(edge)

    def place(i: int) -> bool:
        if i == len(vertex_order):
            return True
        v = vertex_order[i]
        for candidate in range(1, h.n + 1):
            if candidate in used or h_degrees[candidate] != g_degrees[v]:
                continue
            images[v] = candidate
            used.add(candidate)
            ok = all(
                tuple(sorted(images[u] for u in edge)) in h.edges
                for edge in g_edges_by_last[v]
            )
            if ok and place(i + 1):
                return True
            del images[v]
            used.discard(candidate)
        return False

    if place(0):
        return tuple(images[v] for v in range(1, g.n + 1))
    return None


# --- text format --------------------------------------------------------------


def format_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.k}"]
    lines.extend(" ".join(str(v) for v in edge) for edge in sorted(h.edges))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"expected integers, got {line!r}", line_no) from None
        if header is None:
            if len(values) != 2:
                raise ParseError("header must be two integers: n k", line_no)
            n, k = values
            if k < 1 or n < k:
                raise ParseError(f"need 1 <= k <= n, got n={n} k={k}", line_no)
            header = (n, k)
            continue
        n, k = header
        if len(values) != k:
            raise ParseError(f"edge needs {k} vertices, got {len(values)}", line_no)
        edge = tuple(values)
        if any(a >= b for a, b in zip(edge, edge[1:])):
            raise ParseError(f"vertices must be strictly ascending: {line!r}", line_no)
        if edge[0] < 1 or edge[-1] > n:
            raise ParseError(f"vertex out of range 1..{n}: {line!r}", line_no)
        if edge in seen:
            raise ParseError(f"duplicate edge {line!r}", line_no)
        seen.add(edge)
        edges.append(edge)
    if header is None:
        raise ParseError("missing header line")
    return Hypergraph(header[0], header[1], frozenset(edges))
