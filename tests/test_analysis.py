"""Cospectrality scans, spectral-determination verdicts, destruction minima."""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from math import comb, factorial
from types import SimpleNamespace

import pytest
from oracles import enumerate_all

from hyperspec import analysis, hypergraph
from hyperspec.analysis import (
    PolyCache,
    _candidate_masks,
    cospectral_invariant_scan,
    are_cospectral,
    are_e_cospectral,
    ds_verify,
    find_fingerprint_violations,
    load_checkpoint,
    save_checkpoint,
    simplex_destruction_min,
    Violation,
)
from hyperspec.config import DEFAULT_CONFIG
from hyperspec.errors import CapExceeded, DegreeCapExceeded, DimMismatch, InputError
from hyperspec.hypergraph import (
    Hypergraph,
    adjacency_tensor,
    from_bitmask,
    mask_orbit,
    mask_simplex_count,
    popcount_masks,
    simplex_masks,
    with_simplex_count,
)
from hyperspec.polynomial import UniPoly
from hyperspec.spectra import char_poly


def _k4_plus(isolated):
    """K4^(3) plus isolated vertices, as a ds target."""
    return Hypergraph(4 + isolated, 3, Hypergraph.complete(4, 3).edges)


def _relabeled(h, images):
    return Hypergraph.from_edges(
        h.n, h.k, [tuple(sorted(images[v - 1] for v in e)) for e in h.edges]
    )


def test_cospectral_under_relabeling():
    h = Hypergraph.from_edges(4, 3, [(1, 2, 3), (2, 3, 4)])
    g = _relabeled(h, [4, 2, 1, 3])
    assert are_cospectral(h, g)


def test_e_cospectral_under_relabeling():
    # order-2 case keeps the stationary-spectrum computation cheap
    h = Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5)])
    g = _relabeled(h, [3, 1, 4, 2, 5])
    assert are_e_cospectral(h, g)
    star = Hypergraph.from_edges(5, 2, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert not are_e_cospectral(h, star)


def test_not_cospectral_when_edge_counts_differ():
    full = Hypergraph.complete(4, 3)
    pruned = Hypergraph.from_edges(4, 3, full.edges - {(1, 2, 3)})
    assert not are_cospectral(full, pruned)


def test_empty_vs_single_edge():
    empty = Hypergraph.empty(3, 3)
    single = Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    assert not are_cospectral(empty, single)
    assert not are_e_cospectral(empty, single)


def test_cospectrality_refused_from_n_and_k(monkeypatch):
    # the degree cap refuses before any n**k tensor is built; an E-char
    # with an uncovered pair, such as an edgeless one, is 0 at any size,
    # so two of them are still answered, but not one beside K6^(3), which
    # covers every pair
    def refuse(h):
        raise AssertionError("adjacency tensor built")

    big = Hypergraph.from_edges(1000, 3, [(1, 2, 3)])
    with monkeypatch.context() as patch:
        patch.setattr(hypergraph, "scaled_adjacency", refuse)
        with pytest.raises(DegreeCapExceeded, match=r"1000\*2\*\*999 exceeds cap 128"):
            are_cospectral(big, big)
        assert are_e_cospectral(big, big)
        empty = Hypergraph.empty(6, 3)  # characteristic degree 192
        assert are_e_cospectral(empty, empty)
        complete = Hypergraph.complete(6, 3)
        for compare, other in ((are_cospectral, empty), (are_e_cospectral, complete)):
            with pytest.raises(DegreeCapExceeded, match="degree 192 exceeds cap 128"):
                compare(empty, other)


def test_edgeless_e_cospectrality_answered_from_n_and_k(monkeypatch):
    # an edgeless E-char is 0 only for k >= 3: "3 2" has lambda**3, so an
    # edgeless 2-graph is capped by its degree; identical hypergraphs are
    # cospectral without a polynomial, once the cap has passed
    def refuse(h):
        raise AssertionError("adjacency tensor built")

    monkeypatch.setattr(hypergraph, "scaled_adjacency", refuse)
    assert are_e_cospectral(Hypergraph.empty(200, 3), Hypergraph.empty(200, 3))
    with pytest.raises(DegreeCapExceeded, match="characteristic degree 200 exceeds cap 128"):
        are_e_cospectral(Hypergraph.empty(200, 2), Hypergraph.empty(200, 2))
    single = Hypergraph.from_edges(4, 3, [(1, 2, 3)])
    assert are_cospectral(single, single) and are_e_cospectral(single, single)


def test_dimension_mismatch_rejected():
    a = Hypergraph.empty(3, 3)
    b = Hypergraph.empty(4, 3)
    with pytest.raises(DimMismatch):
        are_cospectral(a, b)
    c = Hypergraph.empty(4, 4)
    with pytest.raises(DimMismatch):
        are_cospectral(b, c)


def test_poly_cache_deduplicates_by_shape():
    cache = PolyCache()
    h = Hypergraph.from_edges(4, 3, [(1, 2, 3)])
    g = _relabeled(h, [2, 3, 4, 1])
    first = cache.get_char(h)
    assert cache.computed == 1
    second = cache.get_char(g)  # isomorphic: served from the cache
    assert cache.computed == 1
    assert first == second
    cache.get_char(Hypergraph.empty(4, 3))
    assert cache.computed == 2


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "scan.json")
    cache = PolyCache()
    cache.get_char(Hypergraph.from_edges(4, 3, [(1, 2, 3)]))
    save_checkpoint(path, 4, 3, cache, watermark=7)
    loaded, watermark = load_checkpoint(path, 4, 3)
    assert watermark == 7
    assert loaded.to_json() == cache.to_json()
    # shape mismatch is refused rather than silently reused
    with pytest.raises(InputError):
        load_checkpoint(path, 5, 3)
    missing, watermark = load_checkpoint(str(tmp_path / "absent.json"), 4, 3)
    assert watermark == -1
    assert missing.computed == 0


def _counted_writes(monkeypatch):
    # the watermark of every checkpoint write, in order
    writes = []
    save = analysis.save_checkpoint

    def counted(path, n, k, cache, watermark):
        writes.append(watermark)
        save(path, n, k, cache, watermark)

    monkeypatch.setattr(analysis, "save_checkpoint", counted)
    return writes


def test_checkpoint_writes_are_bounded_by_their_duration(tmp_path, monkeypatch):
    cold = tmp_path / "cold.json"
    report = cospectral_invariant_scan(5, 2, checkpoint_path=str(cold))
    assert report.polynomials_computed == 34
    writes = _counted_writes(monkeypatch)
    # a clock that stands still: every write takes no time, so every growth
    # of the cache writes, and the end writes once more
    monkeypatch.setattr(analysis, "time", SimpleNamespace(monotonic=lambda: 0.0))
    frozen = tmp_path / "frozen.json"
    cospectral_invariant_scan(5, 2, checkpoint_path=str(frozen))
    assert len(writes) == 34 + 1
    assert frozen.read_bytes() == cold.read_bytes()
    # a clock that ticks once a reading: every write takes one tick, so the
    # next one waits until ten ticks after it began
    del writes[:]
    ticks = itertools.count()
    clock = SimpleNamespace(monotonic=lambda: float(next(ticks)))
    monkeypatch.setattr(analysis, "time", clock)
    ticking = tmp_path / "ticking.json"
    cospectral_invariant_scan(5, 2, checkpoint_path=str(ticking))
    assert 2 <= len(writes) <= 1 + next(ticks) // 10
    assert writes == sorted(writes) and writes[-1] == (1 << 10) - 1
    assert ticking.read_bytes() == cold.read_bytes()


@pytest.mark.parametrize("search", ["ds", "scan"])
def test_failed_checkpoint_write_is_not_retried(tmp_path, monkeypatch, search):
    # the first growth writes at once, into a missing directory; the error
    # is that one write's, with no second attempt chained to it
    writes = _counted_writes(monkeypatch)
    path = str(tmp_path / "missing" / "state.json")
    with pytest.raises(FileNotFoundError) as caught:
        if search == "ds":
            ds_verify(Hypergraph.from_edges(4, 3, [(1, 2, 3)]), checkpoint_path=path)
        else:
            cospectral_invariant_scan(4, 3, checkpoint_path=path)
    assert len(writes) == 1
    assert caught.value.__context__ is None


@pytest.mark.parametrize("stop", [KeyboardInterrupt, CapExceeded])
def test_interrupted_search_writes_what_it_computed(tmp_path, monkeypatch, stop):
    char_poly_, calls = analysis.char_poly, []

    def failing(a, config):
        if len(calls) == 2:
            raise stop("stopped")
        calls.append(a)
        return char_poly_(a, config)

    monkeypatch.setattr(analysis, "char_poly", failing)
    # the first write takes one unit of a fake clock that then stands
    # still, so the loop writes no more and the exception writes the
    # second class
    clock = itertools.chain([0.0, 0.0, 1.0], itertools.repeat(1.0))
    monkeypatch.setattr(analysis, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    writes = _counted_writes(monkeypatch)
    path = tmp_path / "state.json"
    h = Hypergraph.from_edges(5, 2, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(stop):
        ds_verify(h, checkpoint_path=str(path))
    assert len(writes) == 2
    assert len(json.loads(path.read_text())["polys"]) == 2


def _least_image(n, k, mask):
    order = list(itertools.combinations(range(1, n + 1), k))
    edges = [e for i, e in enumerate(order) if mask >> i & 1]
    return min(
        sum(1 << order.index(tuple(sorted(perm[v - 1] for v in e))) for e in edges)
        for perm in itertools.permutations(range(1, n + 1))
    )


def _automorphism_count(n, k, mask):
    order = list(itertools.combinations(range(1, n + 1), k))
    edges = {e for i, e in enumerate(order) if mask >> i & 1}
    return sum(
        {tuple(sorted(perm[v - 1] for v in e)) for e in edges} == edges
        for perm in itertools.permutations(range(1, n + 1))
    )


@pytest.mark.parametrize("n, k, classes", [(4, 3, 5), (5, 2, 34), (5, 3, 34)])
def test_class_keys_match_brute_force(n, k, classes):
    cache = PolyCache()
    universe = range(1 << comb(n, k))
    for mask in universe:
        assert cache.class_key(n, k, mask) == (n, k, _least_image(n, k, mask))
    orbits = {frozenset(mask_orbit(n, k, mask)) for mask in universe}
    assert len(orbits) == classes
    assert sorted(m for orbit in orbits for m in orbit) == list(universe)
    for orbit in orbits:
        rep = min(orbit)
        assert len(orbit) == factorial(n) // _automorphism_count(n, k, rep)


def test_resumed_cache_serves_a_whole_orbit(tmp_path):
    path = str(tmp_path / "scan.json")
    cospectral_invariant_scan(5, 2, checkpoint_path=path)
    path_mask = 0b1000000011  # edges 12, 13, 45: a path plus a disjoint edge
    loaded, _ = load_checkpoint(path, 5, 2)
    orbit = mask_orbit(5, 2, path_mask)
    assert len(orbit) > 1
    polys = {loaded.get_char(from_bitmask(5, 2, mask)) for mask in orbit}
    assert len(polys) == 1
    assert loaded.computed == 0


def test_checkpoint_rejects_foreign_version(tmp_path):
    path = tmp_path / "scan.json"
    blob = {"version": 99, "n": 4, "k": 3, "watermark": 0, "polys": {}}
    path.write_text(json.dumps(blob))
    with pytest.raises(InputError):
        load_checkpoint(str(path), 4, 3)


def test_fingerprint_violation_detection():
    groups = [
        [
            (0b01, 3, 0),
            (0b10, 3, 0),   # same group, same fingerprint: fine
            (0b11, 4, 0),   # same group, different edge count: violation
        ],
        [(0b100, 3, 1)],    # another group: compared with nothing
    ]
    assert find_fingerprint_violations(groups) == (
        Violation(0b01, 0b11, "edge_count", 3, 4),
    )


def test_fingerprint_clean_rows():
    assert find_fingerprint_violations([[(1, 3, 0), (2, 3, 0)]]) == ()


def test_fingerprint_violations_follow_group_order():
    # groups are reported in the order given, each row against its
    # group's first, edge count before simplex count
    groups = [
        [(5, 2, 0), (9, 2, 1)],
        [(2, 1, 0), (6, 2, 1), (10, 1, 0)],
    ]
    assert find_fingerprint_violations(groups) == (
        Violation(5, 9, "simplex_count", 0, 1),
        Violation(2, 6, "edge_count", 1, 2),
        Violation(2, 6, "simplex_count", 0, 1),
    )


def test_scan_trivial_universe():
    report = cospectral_invariant_scan(3, 3)
    assert report.total == 2  # empty and the one triple
    assert report.class_count == 2
    assert report.violations == ()


def test_scan_n4_finds_no_violations(tmp_path):
    path = str(tmp_path / "scan4.json")
    report = cospectral_invariant_scan(4, 3, checkpoint_path=path)
    assert report.total == 16
    assert report.class_count == 5
    assert report.violations == ()
    assert report.polynomials_computed == 5
    # groups partition the whole universe
    assert sorted(m for grp in report.groups for m in grp) == list(range(16))
    # resuming from the checkpoint recomputes nothing
    again = cospectral_invariant_scan(4, 3, checkpoint_path=path)
    assert again.polynomials_computed == 0
    assert again.groups == report.groups


def test_scan_groups_align_with_isomorphism_on_n4():
    from hyperspec.hypergraph import canonical_form, from_bitmask

    # each spectral group is a union of whole isomorphism classes: every
    # mask whose canonical form some member shares is in the group, and the
    # groups cover all 16 masks
    report = cospectral_invariant_scan(4, 3)
    canonical = {m: canonical_form(from_bitmask(4, 3, m)) for m in range(16)}
    assert sorted(m for grp in report.groups for m in grp) == list(range(16))
    for grp in report.groups:
        forms = {canonical[m] for m in grp}
        assert {m for m in range(16) if canonical[m] in forms} == set(grp)
        # within a spectral class, every member has the same char poly
        polys = {char_poly(adjacency_tensor(from_bitmask(4, 3, m))) for m in grp}
        assert len(polys) == 1


_FINGERPRINT_SPECS = (("edges", "simplices"), ("edges",), ("simplices",), ())


@pytest.mark.parametrize("n, k", [(4, 3), (5, 2), (5, 3), (6, 2)])
def test_candidate_walk_matches_the_keep_filter(n, k):
    # the old definition: every mask, kept when each fingerprint field
    # equals the target's
    slots = comb(n, k)
    counts = [(m.bit_count(), mask_simplex_count(n, k, m)) for m in range(1 << slots)]
    rng = random.Random(slots)
    for edges in range(slots + 1):
        target = sum(1 << i for i in rng.sample(range(slots), edges))
        want_edges, want_simplices = counts[target]
        for spec in _FINGERPRINT_SPECS:
            expected = [
                m
                for m, (e, s) in enumerate(counts)
                if ("edges" not in spec or e == want_edges)
                and ("simplices" not in spec or s == want_simplices)
            ]
            assert list(_candidate_masks(n, k, target, spec)) == expected


def test_candidate_walk_finds_the_simplices_on_seven_vertices():
    # K4^(3) on 7 vertices: 4 edges and 1 simplex match exactly the 35
    # placements of K4^(3), among the C(35, 4) four-edge masks walked
    faces = sorted(f for _, f in simplex_masks(7, 3))
    assert len(faces) == 35
    assert sum(1 for _ in popcount_masks(35, 4)) == comb(35, 4) == 52_360
    found = list(_candidate_masks(7, 3, faces[0], ("edges", "simplices")))
    assert found == faces


def test_simplex_filter_beyond_int64_masks():
    # 66 edge slots: masks above 2^63 are counted as Python integers
    masks = list(itertools.islice(popcount_masks(66, 3), 3000)) + [
        (1 << 66) - 1,
        (1 << 65) | (1 << 64) | (1 << 63),
    ]
    counts = [mask_simplex_count(12, 2, m) for m in masks]
    for count in (0, 1, 220):
        assert list(with_simplex_count(12, 2, masks, count)) == [
            m for m, c in zip(masks, counts) if c == count
        ]


def test_ds_verify_single_edge_n4():
    h = Hypergraph.from_edges(4, 3, [(1, 2, 3)])
    verdict = ds_verify(h)
    assert verdict.all_isomorphic
    assert all(g.edge_count == h.edge_count for g in verdict.cospectral_mates)
    assert verdict.cospectral_mates == tuple(
        from_bitmask(4, 3, mask) for mask in verdict.mate_masks
    )
    assert verdict.candidates == 16
    assert verdict.pruned > 0


def test_ds_verify_shared_cache_counts():
    cache = PolyCache()
    total = 0
    for h in enumerate_all(4, 3):
        verdict = ds_verify(h, cache=cache)
        assert verdict.all_isomorphic
        total += verdict.polynomials_computed
    assert cache.computed <= 5  # one per class, shared across all 16 runs


def test_ds_verify_weak_fingerprint_still_correct():
    h = Hypergraph.from_edges(4, 3, [(1, 2, 3)])
    verdict = ds_verify(h, fingerprint_fields=("edges",))
    assert verdict.all_isomorphic
    strict = ds_verify(h)
    assert strict.pruned >= verdict.pruned or strict.pruned == verdict.pruned


@pytest.fixture(scope="module", params=[(5, 2), (5, 3)], ids=["n5k2", "n5k3"])
def scanned_universe(request, universe_scan):
    """(n, k, scan report, a cache holding every class's polynomial) for
    a 34-class universe; the cache is the scan's checkpoint read back."""
    n, k = request.param
    report, path = universe_scan(n, k)
    cache, _ = load_checkpoint(path, n, k)
    return n, k, report, cache


def _groups_per_mask(n, k, cache, masks):
    """The masks grouped by polynomial, one lookup and one hash per mask,
    each group increasing and the groups in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for mask in masks:
        groups.setdefault(cache.get_char_mask(n, k, mask).coeffs, []).append(mask)
    return groups


def test_scan_groups_match_a_per_mask_grouping(scanned_universe):
    n, k, report, cache = scanned_universe
    universe = range(1 << comb(n, k))
    groups = _groups_per_mask(n, k, cache, universe)
    assert report.groups == tuple(tuple(groups[coeffs]) for coeffs in sorted(groups))
    assert (report.total, report.class_count) == (len(universe), len(groups))
    assert report.polynomials_computed == 34
    assert report.violations == ()


def test_ds_verdicts_match_a_per_mask_comparison(scanned_universe):
    n, k, _, cache = scanned_universe
    universe = range(1 << comb(n, k))
    counts = {m: (m.bit_count(), mask_simplex_count(n, k, m)) for m in universe}
    targets = sorted({cache.class_key(n, k, m)[2] for m in universe})
    assert len(targets) == 34
    for target in targets:
        target_poly = cache.get_char_mask(n, k, target)
        target_key = cache.class_key(n, k, target)
        for spec in (("edges", "simplices"), ("edges",), ()):
            kept = [
                m
                for m in universe
                if ("edges" not in spec or counts[m][0] == counts[target][0])
                and ("simplices" not in spec or counts[m][1] == counts[target][1])
            ]
            mates = tuple(
                m
                for m in kept
                if m != target and cache.get_char_mask(n, k, m) == target_poly
            )
            verdict = ds_verify(
                from_bitmask(n, k, target), cache=cache, fingerprint_fields=spec
            )
            assert verdict.mate_masks == mates
            assert verdict.all_isomorphic == all(
                cache.class_key(n, k, m) == target_key for m in mates
            )
            assert verdict.pruned == len(universe) - len(kept)
            assert verdict.polynomials_computed == 0


def test_scan_reports_violations_by_least_mask(monkeypatch):
    # no real count disagrees, so a fake simplex count makes some; the
    # violations must come in the order of a per-mask grouping, each group
    # at its least mask and each row against that mask
    monkeypatch.setattr(analysis, "mask_simplex_count", lambda n, k, mask: mask % 3)
    report = cospectral_invariant_scan(5, 2)
    groups = _groups_per_mask(5, 2, PolyCache(), range(1 << 10))
    expected = find_fingerprint_violations(
        [(m, m.bit_count(), m % 3) for m in group] for group in groups.values()
    )
    assert len(expected) > 2
    assert report.violations == expected


def test_ds_compares_one_polynomial_per_class(monkeypatch):
    # the 6-vertex 2-graph 106 keeps 1,125 masks in 7 classes
    calls = []
    eq = UniPoly.__eq__

    def counting(self, other):
        calls.append(self)
        return eq(self, other)

    monkeypatch.setattr(UniPoly, "__eq__", counting)
    verdict = ds_verify(from_bitmask(6, 2, 106))
    assert verdict.candidates - verdict.pruned == 1_125
    assert verdict.polynomials_computed == 7
    assert len(calls) <= 7


def test_disjoint_union_check_trivial_padding():
    verdict = ds_verify(_k4_plus(0))
    assert verdict.target.n == 4
    assert verdict.target.edge_count == 4
    assert verdict.all_isomorphic


def test_destruction_minimum_small():
    report = simplex_destruction_min(5, 3, 1)
    assert report.minimum == 2  # n - k = 2
    assert report.expected_minimum == 2
    assert report.matches_expected
    assert report.achievers_are_exactly_common_core
    for achiever in report.achievers:
        assert len(achiever) == 1


def test_destruction_minimum_two_edges():
    report = simplex_destruction_min(6, 3, 2)
    assert report.minimum == (6 - 3) + (6 - 3 - 1)
    assert report.matches_expected
    assert report.achievers_are_exactly_common_core
    for achiever in report.achievers:
        a, b = achiever
        assert len(set(a) & set(b)) == 2  # the pair shares k-1 vertices


def test_destruction_respects_brute_force_cap(monkeypatch):
    # C(120, 3) * C(10, 4), about 5.9e7 steps, is refused before any work
    def no_work(*args):
        raise AssertionError("the refused search started")

    monkeypatch.setattr(analysis, "subset_order", no_work)
    monkeypatch.setattr(analysis, "simplex_masks", no_work)
    assert comb(comb(10, 3), 3) * comb(10, 4) > analysis.BRUTE_FORCE_CAP
    with pytest.raises(CapExceeded, match="exceeds cap 2000000"):
        simplex_destruction_min(10, 3, 3)


@pytest.mark.slow
def test_disjoint_union_with_isolated_vertex():
    verdict = ds_verify(_k4_plus(1))
    assert verdict.target.n == 5
    assert verdict.all_isomorphic


@pytest.mark.slow
def test_disjoint_union_with_two_isolated_vertices():
    # A pin of what the search computes, not a theorem: it prunes by simplex
    # count, which the invariant scan validates only up to n = 5.
    cfg = replace(DEFAULT_CONFIG, degree_cap=200)
    verdict = ds_verify(_k4_plus(2), cfg)
    assert verdict.target.n == 6
    assert verdict.all_isomorphic
    assert len(verdict.cospectral_mates) == 14
    assert verdict.candidates == 1 << 20
    assert verdict.pruned == 1_048_561
    assert verdict.polynomials_computed == 1
