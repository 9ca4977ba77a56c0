"""Uniform hypergraphs: construction, adjacency, isomorphism, text format."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import comb, factorial

import pytest
from oracles import enumerate_all, is_symmetric, mask_simplex_count, neighbors_in, popcount_masks
from oracles import simplices as oracle_simplices

from hyperspec import hypergraph
from hyperspec.errors import (
    BadEdge,
    BadSize,
    CapExceeded,
    ParseError,
)
from hyperspec.hypergraph import (
    Hypergraph,
    adjacency_tensor,
    canonical_form,
    complement,
    count_simplices,
    edge_bitmask,
    format_hypergraph,
    from_bitmask,
    mask_chunks,
    mask_edges,
    is_isomorphic,
    mask_orbit,
    parse_hypergraph,
    simplex_counts,
    simplex_masks,
    simplices,
    subset_order,
)


def test_construction_and_accessors():
    h = Hypergraph.from_edges(4, 3, [(1, 2, 3), (3, 2, 4)])
    assert h.n == 4 and h.k == 3
    assert h.edge_count == 2
    assert (1, 2, 3) in h.edges and (2, 3, 4) in h.edges
    assert (1, 2, 4) not in h.edges
    assert h.degree(3) == 2 and h.degree(1) == 1
    assert h.degree_sequence() == (1, 1, 2, 2)  # sorted ascending


def test_construction_validation():
    with pytest.raises(BadEdge):
        Hypergraph.from_edges(4, 3, [(1, 2)])  # wrong arity
    with pytest.raises(BadEdge):
        Hypergraph.from_edges(4, 3, [(1, 2, 5)])  # out of range
    with pytest.raises(BadEdge):
        Hypergraph.from_edges(4, 3, [(1, 2, 2)])  # repeated vertex
    with pytest.raises(BadSize):
        Hypergraph.from_edges(2, 3, [])  # k > n
    with pytest.raises(BadSize):
        Hypergraph.from_edges(3, 0, [])
    with pytest.raises(BadSize):
        Hypergraph.from_edges(3, 1, [(1,)])  # singleton edges unsupported
    assert Hypergraph.empty(3, 1).edge_count == 0  # vertex-only shell is fine


def test_complete_counts():
    assert Hypergraph.complete(5, 3).edge_count == comb(5, 3)
    assert Hypergraph.complete(4, 4).edge_count == 1


def _adjacency_oracle(h):
    # every index tuple of the tensor, in row-major order: 1/(k-1)! where
    # its vertices are an edge, zero elsewhere
    weight = Fraction(1, factorial(h.k - 1))
    return tuple(
        weight if tuple(sorted(i + 1 for i in idx)) in h.edges else Fraction(0)
        for idx in product(range(h.n), repeat=h.k)
    )


def test_adjacency_tensor_single_edge():
    for k in (2, 3, 4):
        h = Hypergraph.from_edges(k, k, [range(1, k + 1)])
        a = adjacency_tensor(h)
        assert a.order == k and a.dim == k
        nz = dict(a.nonzero_items())
        assert len(nz) == factorial(k)  # all orderings of the one edge
        assert all(v == Fraction(1, factorial(k - 1)) for v in nz.values())
        assert is_symmetric(a)
        assert a.entries == _adjacency_oracle(h)


def test_adjacency_tensor_too_large_for_numpy_is_a_cap():
    # numpy refuses the 10**24-entry shape before it allocates anything
    with pytest.raises(CapExceeded):
        adjacency_tensor(Hypergraph.from_edges(10**8, 3, [(1, 2, 3)]))


def test_adjacency_tensor_complete():
    for n, k in ((4, 2), (4, 3), (5, 4)):
        a = adjacency_tensor(Hypergraph.complete(n, k))
        nz = dict(a.nonzero_items())
        assert len(nz) == comb(n, k) * factorial(k)
        assert all(v == Fraction(1, factorial(k - 1)) for v in nz.values())
        # weight is 1/(k-1)! so that row sums count incident edges
        assert sum(nz.values()) == comb(n, k) * k


@pytest.mark.parametrize("n, k", [(2, 2), (4, 2), (5, 2), (4, 3), (5, 3), (4, 4), (5, 4)])
def test_adjacency_tensor_matches_the_brute_force_oracle(n, k):
    rng = random.Random(10 * n + k)
    graphs = [Hypergraph.empty(n, k), Hypergraph.complete(n, k)]
    graphs += [from_bitmask(n, k, rng.getrandbits(comb(n, k))) for _ in range(8)]
    for h in graphs:
        a = adjacency_tensor(h)
        assert (a.order, a.dim) == (k, n)
        assert a.entries == _adjacency_oracle(h)
        assert all(type(v) is Fraction for v in a.entries)


def test_complement():
    h = Hypergraph.from_edges(5, 3, [(1, 2, 3)])
    c = complement(h)
    assert c.edge_count == comb(5, 3) - 1
    assert (1, 2, 3) not in c.edges
    assert complement(c).edges == h.edges
    almost = complement(Hypergraph.from_edges(5, 3, [(1, 2, 3)]))
    back = complement(almost)
    assert back.edge_count == 1


def test_simplex_counts():
    # a simplex is k+1 vertices whose k-subsets are all present
    assert count_simplices(Hypergraph.complete(4, 3)) == 1
    assert count_simplices(Hypergraph.complete(6, 3)) == comb(6, 4)
    full = Hypergraph.complete(6, 3)
    pruned = Hypergraph.from_edges(6, 3, full.edges - {(1, 2, 3)})
    # dropping one triple kills the simplices through it: those are the
    # comb(6-3, 1) = 3 four-sets containing {1,2,3}
    assert count_simplices(pruned) == comb(6, 4) - 3
    assert count_simplices(Hypergraph.empty(5, 3)) == 0


def test_simplex_count_law():
    for n in (4, 5, 6, 7, 8):
        for k in (3, 4):
            if k + 1 > n:
                continue
            assert count_simplices(Hypergraph.complete(n, k)) == comb(n, k + 1)


def test_simplices_listing():
    h = Hypergraph.from_edges(5, 3, Hypergraph.complete(4, 3).edges)
    found = list(simplices(h))
    assert found == [(1, 2, 3, 4)]


def test_simplex_masks_table():
    table = simplex_masks(5, 3)
    assert len(table) == comb(5, 4)
    group, faces = table[0]
    assert group == (1, 2, 3, 4)
    order = subset_order(5, 3)
    assert {order[i] for i in range(len(order)) if faces >> i & 1} == set(
        combinations(group, 3)
    )
    assert simplex_masks(3, 3) == ()  # no 4-sets among 3 vertices


def _assert_simplices_match_oracle(h):
    expected = oracle_simplices(h)
    assert list(simplices(h)) == expected
    assert count_simplices(h) == len(expected)


def test_simplices_match_oracle_on_small_universes():
    # count_simplices walks the edge list; the oracle's mask_simplex_count
    # checks every (k+1)-set's face mask, and simplex_counts, which the
    # universe walks use, every mask of an array against every face mask
    # at once
    for n, k in ((5, 3), (5, 2)):
        counts = simplex_counts(n, k, range(1 << comb(n, k))).tolist()
        for mask in range(1 << comb(n, k)):
            h = from_bitmask(n, k, mask)
            _assert_simplices_match_oracle(h)
            assert count_simplices(h) == mask_simplex_count(n, k, mask) == counts[mask]
    rng = random.Random(64)
    for _ in range(50):
        _assert_simplices_match_oracle(from_bitmask(6, 4, rng.getrandbits(comb(6, 4))))
    # fewer than k + 1 vertices: no simplex at all
    for h in (Hypergraph.complete(3, 3), Hypergraph.complete(4, 4)):
        assert oracle_simplices(h) == []
        _assert_simplices_match_oracle(h)


def test_neighbors_in():
    edges = [(1, 2, 4), (1, 2, 5), (2, 3, 4), (2, 3, 6), (1, 3, 5), (1, 3, 6)]
    h = Hypergraph.from_edges(6, 3, edges)
    assert neighbors_in(h, (1, 2), (4, 5, 6)) == frozenset({4, 5})
    assert neighbors_in(h, (2, 3), (4, 5, 6)) == frozenset({4, 6})
    assert neighbors_in(h, (4, 5), (1, 2, 3)) == frozenset()


def test_bitmask_round_trip():
    order = subset_order(5, 3)
    assert len(order) == comb(5, 3)
    assert order[0] == (1, 2, 3)
    rng = random.Random(41)
    for _ in range(20):
        chosen = [e for e in order if rng.random() < 0.4]
        h = Hypergraph.from_edges(5, 3, chosen)
        mask = edge_bitmask(h)
        back = from_bitmask(5, 3, mask)
        assert back.edges == h.edges
        assert edge_bitmask(back) == mask
        assert mask_edges(5, 3, mask) == sorted(h.edges)


def test_canonical_form_is_label_invariant():
    rng = random.Random(42)
    base = Hypergraph.from_edges(5, 3, [(1, 2, 3), (2, 3, 4), (3, 4, 5)])
    for _ in range(10):
        relabel = list(range(1, 6))
        rng.shuffle(relabel)
        moved = Hypergraph.from_edges(
            5, 3, [tuple(sorted(relabel[v - 1] for v in e)) for e in base.edges]
        )
        assert canonical_form(moved) == canonical_form(base)
    # different degree multiset, so no relabeling can match
    other = Hypergraph.from_edges(5, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 5)])
    assert canonical_form(other) != canonical_form(base)


def test_canonical_form_cap():
    with pytest.raises(CapExceeded):
        canonical_form(Hypergraph.empty(12, 3))


def test_mask_orbit_on_eight_vertices():
    # beyond the cached remap tables: a 2-edge path has 8 * C(7, 2) placements
    path = Hypergraph.from_edges(8, 2, [(5, 7), (7, 8)])
    orbit = mask_orbit(8, 2, edge_bitmask(path))
    assert len(orbit) == 168
    assert all(m.bit_count() == 2 for m in orbit)
    assert canonical_form(path) == min(orbit) == 0b11  # edges 12 and 13


def test_canonical_form_refuses_nine_vertices():
    # 9! relabelings per call do not finish in seconds; 8! do
    assert canonical_form(Hypergraph.empty(8, 2)) == 0
    with pytest.raises(CapExceeded):
        canonical_form(Hypergraph.empty(9, 2))


def test_is_isomorphic_finds_mappings():
    base = Hypergraph.from_edges(5, 3, [(1, 2, 3), (2, 3, 4), (3, 4, 5)])
    ident = is_isomorphic(base, base)
    assert ident is not None
    relabel = [3, 1, 4, 5, 2]
    moved = Hypergraph.from_edges(
        5, 3, [tuple(sorted(relabel[v - 1] for v in e)) for e in base.edges]
    )
    images = is_isomorphic(base, moved)
    assert images is not None
    mapped = {
        tuple(sorted(images[v - 1] for v in e)) for e in base.edges
    }
    assert mapped == set(moved.edges)
    sparse = Hypergraph.from_edges(5, 3, [(1, 2, 3), (2, 3, 4)])
    assert is_isomorphic(base, sparse) is None


def test_is_isomorphic_agrees_with_canonical_form():
    all_n4 = list(enumerate_all(4, 3))
    assert len(all_n4) == 16
    for g in all_n4:
        for h in all_n4:
            via_canon = canonical_form(g) == canonical_form(h)
            via_search = is_isomorphic(g, h) is not None
            assert via_canon == via_search


def test_enumerate_all():
    assert len(list(enumerate_all(4, 3))) == 16
    classes = list(enumerate_all(4, 3, up_to_iso=True))
    assert len(classes) == 5
    assert len(list(enumerate_all(5, 4))) == 32
    two_edges = list(enumerate_all(4, 3, edge_count=2))
    assert len(two_edges) == comb(4, 2)
    assert all(g.edge_count == 2 for g in two_edges)
    with pytest.raises(CapExceeded):
        list(enumerate_all(12, 3))  # 220 subsets exceeds the default cap


def _old_enumerate_all(n, k, edge_count=None, up_to_iso=False):
    """enumerate_all as first written: every mask, one canonical form each."""
    for mask in range(1 << comb(n, k)):
        if edge_count is not None and mask.bit_count() != edge_count:
            continue
        h = from_bitmask(n, k, mask)
        if up_to_iso and canonical_form(h) != mask:
            continue
        yield h


@pytest.mark.parametrize("n, k", [(4, 3), (5, 2), (5, 3)])
def test_enumerate_all_matches_the_old_definition(n, k):
    for edge_count in [None] + list(range(comb(n, k) + 1)):
        for up_to_iso in (False, True):
            got = list(enumerate_all(n, k, edge_count=edge_count, up_to_iso=up_to_iso))
            assert got == list(_old_enumerate_all(n, k, edge_count, up_to_iso))


def test_popcount_masks_walk_in_increasing_order():
    for slots in range(9):
        for count in range(-1, slots + 2):
            assert list(popcount_masks(slots, count)) == [
                m for m in range(1 << slots) if m.bit_count() == count
            ]


def test_mask_chunks_decode_the_popcount_walk():
    # colex ranks decoded chunk by chunk give popcount_masks' walk, and
    # with no count every mask; every chunk but the last is full, also
    # past one chunk, with complements decoded past half the slots, and
    # at the top of int64, where the first chunk of the C(63, 31) masks
    # is decoded without the ones before it
    chunk = hypergraph._FILTER_CHUNK
    for slots in range(9):
        for count in [None, *range(-1, slots + 2)]:
            got = [m for c in mask_chunks(slots, count) for m in c.tolist()]
            want = range(1 << slots) if count is None else popcount_masks(slots, count)
            assert got == list(want), (slots, count)
    for slots, count in ((15, 7), (15, 8), (16, 8), (14, None), (63, 1), (63, 62), (63, 63)):
        chunks = list(mask_chunks(slots, count))
        assert [len(c) for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
        want = range(1 << slots) if count is None else popcount_masks(slots, count)
        assert [m for c in chunks for m in c.tolist()] == list(want), (slots, count)
    first = next(mask_chunks(63, 31)).tolist()
    assert first == list(islice(popcount_masks(63, 31), chunk))


@pytest.mark.parametrize("n, k", [(6, 2), (6, 3), (7, 2), (7, 3), (8, 4)])
def test_mask_orbit_matches_brute_force(n, k):
    # (8, 4) has 70 edge slots, so its remap table holds Python ints.  The
    # oracle tries the 8! relabelings in seconds a mask, so n = 8 checks one
    # seeded mask against it; every relabeling fixes the empty and the
    # complete edge set
    order = subset_order(n, k)
    index = {s: i for i, s in enumerate(order)}
    rng = random.Random(100 * n + k)
    full = (1 << len(order)) - 1
    assert mask_orbit(n, k, 0) == {0}
    assert mask_orbit(n, k, full) == {full}
    for mask in [rng.getrandbits(len(order)) for _ in range(1 if n == 8 else 3)]:
        edges = [e for i, e in enumerate(order) if mask >> i & 1]
        expected = {
            sum(1 << index[tuple(sorted(perm[v - 1] for v in e))] for e in edges)
            for perm in permutations(range(1, n + 1))
        }
        assert mask_orbit(n, k, mask) == expected


def test_format_round_trip():
    h = Hypergraph.from_edges(5, 3, [(1, 2, 3), (2, 4, 5)])
    text = format_hypergraph(h)
    assert parse_hypergraph(text).edges == h.edges
    assert parse_hypergraph(text).n == 5
    empty = Hypergraph.empty(4, 2)
    assert parse_hypergraph(format_hypergraph(empty)).edges == frozenset()


def test_parse_accepts_comments_and_blank_lines():
    text = "# header comment\n\n5 3\n1 2 3\n\n# trailing\n2 4 5\n"
    h = parse_hypergraph(text)
    assert h.n == 5 and h.k == 3
    assert h.edges == frozenset({(1, 2, 3), (2, 4, 5)})


def test_parse_refuses_integers_beyond_ascii_digits():
    # int() alone would read "٣" as 3 and "1_0" as 10
    for text in ("4 3\n1 2 ٣\n", "10 3\n1 2 1_0\n", "1_0 3\n"):
        with pytest.raises(ParseError) as info:
            parse_hypergraph(text)
        line = text.splitlines()[-1]
        assert str(info.value).endswith(f"expected integers, got {line!r}")
    assert parse_hypergraph("+4 03\n1 2 +3\n").edges == frozenset({(1, 2, 3)})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_hypergraph("")
    assert "header" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_hypergraph("5\n")
    assert str(info.value).startswith("line 1:")

    with pytest.raises(ParseError) as info:
        parse_hypergraph("5 3\n1 2\n")
    assert str(info.value).startswith("line 2:")

    with pytest.raises(ParseError) as info:
        parse_hypergraph("5 3\n1 2 x\n")
    assert str(info.value).startswith("line 2:")

    with pytest.raises(ParseError) as info:
        parse_hypergraph("5 3\n3 2 1\n")  # vertices must ascend
    assert str(info.value).startswith("line 2:")

    with pytest.raises(ParseError) as info:
        parse_hypergraph("5 3\n1 2 3\n1 2 3\n")  # duplicate edge
    assert str(info.value).startswith("line 3:")

    with pytest.raises(ParseError) as info:
        parse_hypergraph("5 3\n1 2 9\n")  # out of range
    assert str(info.value).startswith("line 2:")
