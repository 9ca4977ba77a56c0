"""Half-neighborhood edge switching and its similarity certificate."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from oracles import (
    entry,
    enumerate_all,
    from_rows,
    is_orthogonal,
    is_symmetric,
    neighbors_in,
    shao_product,
    validate_by_cores,
)

from hyperspec.errors import (
    BadPartition,
    ConditionAViolated,
    ConditionBViolated,
    DimMismatch,
    InputError,
    MathError,
    OddV1,
)
from hyperspec.hypergraph import (
    Hypergraph,
    adjacency_tensor,
    count_simplices,
    is_isomorphic,
)
from hyperspec.spectra import _isotropic_root, char_poly
from hyperspec.switching import (
    SimilarityReport,
    SwitchingPartition,
    SwitchReport,
    _scaled_switching_matrix,
    example_pair,
    find_partitions,
    switch,
    validate,
    verify_similarity,
)


def _q(p):
    """Q in Fractions, rows in label order: n1*Q divided back by n1."""
    n1 = len(p.v1)
    return from_rows([[Fraction(int(v), n1) for v in row] for row in _scaled_switching_matrix(p)])


def _fraction_oracle(h, g, p):
    """verify_similarity in Fractions: Q A_H Q against A_G, densely, row-major.

    The image is the two-sided Shao product, not mat_sim, which shares
    verify_similarity's integer kernel.
    """
    q = _q(p)
    q_t = from_rows([[entry(q, (j, i)) for j in range(q.dim)] for i in range(q.dim)])
    image = shao_product(shao_product(q, adjacency_tensor(h)), q_t)
    target = adjacency_tensor(g)
    cells = product(range(1, h.n + 1), repeat=h.k)
    for idx, got, want in zip(cells, image.entries, target.entries):
        if got != want:
            return SimilarityReport(False, idx, want, got)
    return SimilarityReport(True)


def _flip(g, edge):
    return Hypergraph.from_edges(g.n, g.k, set(g.edges) ^ {edge})


def test_example_pair_structure():
    for n in (3, 4, 5, 6):
        h, g, p = example_pair(n)
        assert h.n == n + 4 and h.k == 3
        assert sorted(p.v1) == [1, 2, 3, 4]
        report = validate(h, p)
        assert report.v1_size == 4
        assert switch(h, p).edges == g.edges
        assert switch(g, p).edges == h.edges
        assert is_isomorphic(h, g) is None


def test_example_pair_n3_report():
    h, _, p = example_pair(3)
    report = validate(h, p)
    assert report.switched_sets == ((5, 6), (5, 7), (6, 7))
    assert dict(report.counts)[2] == 3  # three cores at the half count


def test_example_pair_simplex_gap():
    # for k = 3 the codegree-4 coefficient of the characteristic
    # polynomial is a nonzero multiple of the simplex count (Clark & Cooper,
    # JCTB 149, 2021; the multiple is pinned in test_spectra), so no pair
    # below is cospectral.  Each is E-cospectral: an orthogonal Q carries
    # A_H to A_G
    for n in range(3, 9):
        h, g, _ = example_pair(n)
        assert (count_simplices(h), count_simplices(g)) == (0, 1), n


def test_similarity_certificate():
    for n in (3, 4):
        h, g, p = example_pair(n)
        report = verify_similarity(h, g, p)
        assert report.ok
        assert report.first_mismatch is None


def test_similarity_catches_corruption():
    h, g, p = example_pair(3)
    bad = _flip(g, (5, 6, 7))
    report = verify_similarity(h, bad, p)
    assert report == SimilarityReport(False, (5, 6, 7), Fraction(0), Fraction(1, 2))
    assert report == _fraction_oracle(h, bad, p)


def test_similarity_rejects_mismatched_sizes():
    # both tensors are all zero, so a check that pairs entries up blindly
    # would certify these
    h = Hypergraph.empty(4, 3)
    p = SwitchingPartition.from_v1(4, (1, 2))
    for g in (Hypergraph.empty(5, 3), Hypergraph.empty(4, 2)):
        with pytest.raises(DimMismatch):
            verify_similarity(h, g, p)
    with pytest.raises(DimMismatch):
        verify_similarity(h, h, SwitchingPartition.from_v1(5, (1, 2)))


def _oracle_instances():
    """example_pair(3..8), then every partition find_partitions yields on
    seeded random 3-graphs with at most 7 vertices."""
    for n in range(3, 9):
        h, _, p = example_pair(n)
        yield h, p
    rng = random.Random(12)
    for _ in range(24):
        n = rng.randint(4, 7)
        edges = [e for e in combinations(range(1, n + 1), 3) if rng.random() < 0.25]
        h = Hypergraph.from_edges(n, 3, edges)
        for p in find_partitions(h):
            yield h, p


def test_similarity_matches_the_fraction_oracle():
    rng = random.Random(13)
    polys = {}

    def phi(h):
        if h not in polys:
            polys[h] = char_poly(adjacency_tensor(h))
        return polys[h]

    checked = 0
    for h, p in _oracle_instances():
        g = switch(h, p)
        assert verify_similarity(h, g, p) == SimilarityReport(True)
        assert _fraction_oracle(h, g, p) == SimilarityReport(True)
        if h.n <= 5:
            assert phi(h) == phi(g)
        bad = _flip(g, tuple(sorted(rng.sample(range(1, h.n + 1), 3))))
        report = verify_similarity(h, bad, p)
        assert not report.ok
        assert report == _fraction_oracle(h, bad, p)
        checked += 1
    assert checked >= 100


def test_switch_without_half_counts_is_identity():
    h = Hypergraph.from_edges(5, 3, [(3, 4, 5)])
    p = SwitchingPartition.from_v1(5, (1, 2))
    report = validate(h, p)
    assert report.switched_sets == ()
    assert switch(h, p).edges == h.edges


def _random_valid_instance(rng):
    n1 = rng.choice((2, 4))
    n2 = 4
    n = n1 + n2
    v1 = tuple(range(1, n1 + 1))
    v2 = tuple(range(n1 + 1, n + 1))
    edges = set()
    for triple in combinations(v2, 3):
        if rng.random() < 0.5:
            edges.add(triple)
    for core in combinations(v2, 2):
        count = rng.choice((0, n1 // 2, n1))
        for v in rng.sample(v1, count):
            edges.add(tuple(sorted(core + (v,))))
    return Hypergraph.from_edges(n, 3, edges), SwitchingPartition.from_v1(n, v1)


def test_switch_is_an_involution_on_random_instances():
    rng = random.Random(61)
    for _ in range(60):
        h, p = _random_valid_instance(rng)
        validate(h, p)
        g = switch(h, p)
        validate(g, p)
        assert switch(g, p).edges == h.edges


def test_switch_complements_exactly_the_half_cores():
    rng = random.Random(62)
    for _ in range(40):
        h, p = _random_valid_instance(rng)
        g = switch(h, p)
        v1 = sorted(p.v1)
        half = len(v1) // 2
        for core in combinations(sorted(p.v2), h.k - 1):
            before = neighbors_in(h, core, v1)
            after = neighbors_in(g, core, v1)
            if len(before) == half:
                assert after == frozenset(v1) - before
            else:
                assert after == before
        # edges living inside the second cell never move
        inner_before = {e for e in h.edges if not set(e) & p.v1}
        inner_after = {e for e in g.edges if not set(e) & p.v1}
        assert inner_before == inner_after


def _outcome(check, h, p):
    """The report, or the exception's type, message and attributes."""
    try:
        return check(h, p)
    except (InputError, MathError) as exc:
        return type(exc), str(exc), vars(exc)


def test_validate_matches_the_core_walk_on_valid_instances():
    rng = random.Random(63)
    for _ in range(60):
        h, p = _random_valid_instance(rng)
        assert validate(h, p) == validate_by_cores(h, p)


def test_validate_matches_the_core_walk_on_random_partitions():
    rng = random.Random(64)
    kinds = set()
    for _ in range(800):
        n = rng.randint(3, 9)
        k = rng.randint(2, min(4, n))
        density = rng.random() / 2
        edges = [e for e in combinations(range(1, n + 1), k) if rng.random() < density]
        h = Hypergraph.from_edges(n, k, edges)
        p = SwitchingPartition.from_v1(n, rng.sample(range(1, n + 1), rng.randint(0, n)))
        got = _outcome(validate, h, p)
        assert got == _outcome(validate_by_cores, h, p), (h, p)
        kinds.add(type(got) if isinstance(got, SwitchReport) else got[0])
    assert kinds == {SwitchReport, BadPartition, OddV1, ConditionAViolated, ConditionBViolated}


def test_validate_reads_a_large_sparse_file_off_its_edges():
    # C(2998, 2) = 4,492,503 cores of V2, one of them reached by an edge
    h = Hypergraph.from_edges(3000, 3, [(1, 5, 6)])
    report = validate(h, SwitchingPartition.from_v1(3000, (1, 2)))
    assert report.switched_sets == ((5, 6),)
    assert report.counts == ((0, 4492502), (1, 1))


def test_validate_rejects_partition_mismatch():
    h, _, _ = example_pair(3)
    with pytest.raises(BadPartition):
        validate(h, SwitchingPartition.from_v1(8, (1, 2, 3, 4)))


def test_validate_rejects_odd_cell():
    h, _, _ = example_pair(3)
    with pytest.raises(OddV1):
        validate(h, SwitchingPartition.from_v1(7, (1, 2, 3)))


def test_validate_rejects_deep_edges():
    # an edge with two vertices in the first cell breaks the row pattern
    h = Hypergraph.from_edges(6, 3, [(1, 2, 5)])
    p = SwitchingPartition.from_v1(6, (1, 2, 3, 4))
    with pytest.raises(ConditionAViolated) as info:
        validate(h, p)
    assert info.value.edge == (1, 2, 5)
    assert "two vertices" in str(info.value) or "at least two" in str(info.value)


def test_validate_rejects_uneven_neighborhoods():
    # core {5,6} sees exactly one vertex of the first cell: not 0, 2, or 4
    h = Hypergraph.from_edges(6, 3, [(1, 5, 6)])
    p = SwitchingPartition.from_v1(6, (1, 2, 3, 4))
    with pytest.raises(ConditionBViolated) as info:
        validate(h, p)
    assert info.value.subset == (5, 6)
    assert info.value.count == 1
    assert set(info.value.allowed) == {0, 2, 4}


def test_switching_matrix_block_form():
    p = SwitchingPartition.from_v1(7, (1, 2, 3, 4))
    m = _q(p)
    assert m.dim == 7
    for i in range(4):
        for j in range(4):
            expected = Fraction(1, 2) - (1 if i == j else 0)
            assert entry(m, (i, j)) == expected
    for i in range(4, 7):
        for j in range(7):
            assert entry(m, (i, j)) == (1 if i == j else 0)
    # symmetric and orthogonal, so m is its own inverse
    assert is_orthogonal(m)
    assert is_symmetric(m)


def test_switching_matrix_pair_cell_swaps():
    p = SwitchingPartition.from_v1(4, (1, 2))
    m = _q(p)
    assert entry(m, (0, 0)) == 0 and entry(m, (0, 1)) == 1
    assert entry(m, (1, 0)) == 1 and entry(m, (1, 1)) == 0


def test_aligned_matrix_handles_scattered_cells():
    p = SwitchingPartition(frozenset({2, 4}), frozenset({1, 3}))
    m = _q(p)
    # symmetric and orthogonal, so m is its own inverse
    assert is_orthogonal(m)
    assert is_symmetric(m)
    # rows follow vertex labels: row 0 is vertex 1, untouched
    assert entry(m, (0, 0)) == 1 and entry(m, (0, 1)) == 0
    # vertices 2 and 4 (rows 1 and 3) swap
    assert entry(m, (1, 3)) == 1 and entry(m, (1, 1)) == 0


def test_aligned_matrix_is_the_block_form_relabeled():
    # every partition with an even first part on up to 7 vertices, against
    # (2/n1)J - I on the first part and the identity on the second, in
    # label order
    def block(first, i, j):
        if i in first and j in first:
            return Fraction(2, len(first)) - (i == j)
        return Fraction(int(i == j))

    for n in range(2, 8):
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for size in range(2, n + 1, 2):
            for v1 in combinations(range(1, n + 1), size):
                p = SwitchingPartition.from_v1(n, v1)
                in_label_order = [block(v1, i, j) for i, j in cells]
                assert list(_q(p).entries) == in_label_order
    bad = SwitchingPartition(frozenset({1, 2}), frozenset({2, 3}))
    with pytest.raises(BadPartition):
        _scaled_switching_matrix(bad)
    with pytest.raises(BadPartition):
        verify_similarity(Hypergraph.empty(3, 2), Hypergraph.empty(3, 2), bad)


def test_find_partitions_recovers_the_example():
    h, _, p = example_pair(3)
    found = {tuple(sorted(q.v1)) for q in find_partitions(h, max_v1=4)}
    assert (1, 2, 3, 4) in found
    # every reported partition validates and actually moves something
    for q in find_partitions(h, max_v1=4):
        report = validate(h, q)
        assert report.switched_sets != ()


def test_custom_inner_family():
    default_h, default_g, _ = example_pair(4)
    h, g, _ = example_pair(4, inner_family=[(5, 6, 7), (6, 7, 8)])
    assert h.edges == default_h.edges and g.edges == default_g.edges
    alt_h, alt_g, alt_p = example_pair(4, inner_family=[(5, 6, 8), (5, 7, 8)])
    assert alt_h.edges != default_h.edges
    assert is_isomorphic(alt_h, alt_g) is None
    assert verify_similarity(alt_h, alt_g, alt_p).ok


def test_custom_inner_family_validation():
    with pytest.raises(InputError):
        example_pair(4, inner_family=[(1, 2, 3), (2, 3, 4)])  # wrong labels
    with pytest.raises(InputError):
        example_pair(4, inner_family=[(5, 6, 7)])  # vertex 8 left isolated
    with pytest.raises(InputError):
        example_pair(4, inner_family=[(5, 6, 6)])  # repeated vertex


@pytest.mark.parametrize("n, switchable, classes", [(4, 1, 5), (5, 14, 34)])
def test_switchable_three_graphs_have_certified_zero_e_chars(n, switchable, classes):
    # V1 holds two vertices in no common edge, in both the class and its
    # switched mate, so both E-chars are certified 0
    graphs = list(enumerate_all(n, 3, up_to_iso=True))
    found = 0
    for h in graphs:
        partitions = list(find_partitions(h))
        found += bool(partitions)
        for p in partitions:
            assert _isotropic_root(h) == _isotropic_root(switch(h, p)) == 2, (h, p)
    assert (found, len(graphs)) == (switchable, classes)
