"""Cospectrality decisions over enumerated hypergraph families.

The expensive object in every question here is the characteristic
polynomial, so this module is organized around a cache keyed by
canonical form: isomorphic hypergraphs share one computation.  Both
universe questions run one loop over edge bitmasks of labeled
hypergraphs on n vertices, in increasing order; it can persist the cache
to a JSON checkpoint and resume after interruption.  The checkpoint is
rewritten when the cache has grown, at most once per ten durations of
the last write, and once more at the end or when an exception stops the
loop.  The scan walks every mask.  The search walks only the masks with
the target's edge count, as a popcount walk, and filters them by simplex
count in numpy chunks.

The loop hands back the walked masks grouped by isomorphism class, so
each question looks up and compares one polynomial per class.

Two routes to the same facts are deliberately kept apart.  The
invariant scan computes every polynomial and then checks that equal
polynomials force equal edge and simplex counts; the determined-by-
spectrum search takes that implication as a pruning rule and computes
polynomials only for candidates matching the target's cheap counts.
The scan therefore validates the assumption the search relies on.
Both read the counts straight off a bitmask, as its popcount and
through the hypergraph module's simplex table, and build a Hypergraph
only for a class whose polynomial is computed; mates stay bitmasks.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from math import comb, inf
from typing import Iterable, Sequence

from .config import DEFAULT_CONFIG, RunConfig
from .errors import BadSize, CapExceeded, DimMismatch, DivisionByZero, InputError
from .hypergraph import (
    Hypergraph,
    edge_bitmask,
    from_bitmask,
    mask_orbit,
    mask_simplex_count,
    popcount_masks,
    simplex_masks,
    subset_order,
    universe_slots,
    with_simplex_count,
)
from .polynomial import UniPoly
from .spectra import admit, char_poly, e_char_poly


# estimated subset-times-simplex steps simplex_destruction_min will take
BRUTE_FORCE_CAP = 2_000_000


def are_cospectral(
    g: Hypergraph, h: Hypergraph, config: RunConfig = DEFAULT_CONFIG
) -> bool:
    """Exact equality of the characteristic polynomials; same (n, k) only."""
    return _same_poly(g, h, config, e_char=False)


def are_e_cospectral(
    g: Hypergraph, h: Hypergraph, config: RunConfig = DEFAULT_CONFIG
) -> bool:
    """Equality of the normalized E-characteristic polynomials."""
    return _same_poly(g, h, config, e_char=True)


def _same_poly(g: Hypergraph, h: Hypergraph, config: RunConfig, *, e_char: bool) -> bool:
    if g.n != h.n or g.k != h.k:
        raise DimMismatch(
            f"cospectrality needs matching (n, k); got ({g.n},{g.k}) vs ({h.n},{h.k})"
        )
    admit(g, config, e_char=e_char)  # refuses past the cap even when g == h
    poly = e_char_poly if e_char else char_poly
    return g == h or poly(g, config) == poly(h, config)


class PolyCache:
    """Characteristic polynomials keyed by isomorphism class.

    The key of a class is (n, k, least edge bitmask over all vertex
    relabelings).  The first lookup of any member maps the class's
    whole orbit to that key, so every later member costs one dict
    lookup, and the polynomial is computed once, on the least mask.
    `computed` counts the classes this cache computed, not those loaded
    from a checkpoint.
    """

    def __init__(self) -> None:
        self._polys: dict[tuple[int, int, int], UniPoly] = {}
        self._class_keys: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        self.computed = 0

    def class_key(self, n: int, k: int, mask: int) -> tuple[int, int, int]:
        """(n, k, least mask of the orbit) of this labeled edge bitmask."""
        key = self._class_keys.get((n, k, mask))
        if key is None:
            orbit = mask_orbit(n, k, mask)
            key = (n, k, min(orbit))
            self._class_keys.update(((n, k, m), key) for m in orbit)
        return key

    def get_char_mask(
        self, n: int, k: int, mask: int, config: RunConfig = DEFAULT_CONFIG
    ) -> UniPoly:
        """The characteristic polynomial of the (n, k) edge bitmask."""
        key = self.class_key(n, k, mask)
        hit = self._polys.get(key)
        if hit is not None:
            return hit
        poly = char_poly(from_bitmask(*key), config)
        self._polys[key] = poly
        self.computed += 1
        return poly

    def get_char(self, h: Hypergraph, config: RunConfig = DEFAULT_CONFIG) -> UniPoly:
        return self.get_char_mask(h.n, h.k, edge_bitmask(h), config)

    def to_json(self) -> dict:
        return {
            f"{n},{k},{mask}": list(poly.to_coeff_strings())
            for (n, k, mask), poly in sorted(self._polys.items())
        }

    @classmethod
    def from_json(cls, data: dict, n: int, k: int) -> "PolyCache":
        """Inverse of to_json for an (n, k) checkpoint.

        A malformed entry raises InputError: a key that does not parse
        or is for another (n, k), a mask out of range or not the least
        of its orbit, or coefficients that are not rational strings.
        """
        cache = cls()
        slots = comb(n, k)
        for key, coeffs in data.items():
            try:
                key_n, key_k, mask = (int(part) for part in key.split(","))
            except ValueError:
                raise InputError(f"malformed cache key {key!r}") from None
            if (key_n, key_k) != (n, k):
                raise InputError(f"cache key {key!r} is not for (n={n}, k={k})")
            if mask < 0 or mask >> slots:
                raise InputError(
                    f"cache key {key!r}: mask out of range for {slots} edge slots"
                )
            if not isinstance(coeffs, list) or not all(isinstance(c, str) for c in coeffs):
                raise InputError(f"cache entry {key!r} is not a list of strings")
            try:
                poly = UniPoly.from_coeff_strings(coeffs)
            except DivisionByZero as exc:
                raise InputError(f"cache entry {key!r}: {exc}") from None
            if cache.class_key(n, k, mask) != (n, k, mask):
                raise InputError(
                    f"cache key {key!r}: mask is not the least of its isomorphism class"
                )
            cache._polys[(n, k, mask)] = poly
        return cache


CHECKPOINT_VERSION = 1


def save_checkpoint(path: str, n: int, k: int, cache: PolyCache, watermark: int) -> None:
    """Atomically persist the cache and the enumeration watermark."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "n": n,
        "k": k,
        "watermark": watermark,
        "polys": cache.to_json(),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path: str, n: int, k: int) -> tuple[PolyCache, int]:
    """Read a checkpoint back; (empty cache, -1) when the file is absent.

    A file that is not a well-formed checkpoint raises InputError.
    """
    if not os.path.exists(path):
        return PolyCache(), -1
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise InputError(f"checkpoint {path} does not hold a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise InputError(f"unsupported checkpoint version in {path}")
    if payload.get("n") != n or payload.get("k") != k:
        raise InputError(
            f"checkpoint {path} is for (n={payload.get('n')}, k={payload.get('k')}), "
            f"not (n={n}, k={k})"
        )
    polys, watermark = payload.get("polys"), payload.get("watermark")
    if not isinstance(polys, dict) or not isinstance(watermark, int):
        raise InputError(
            f"checkpoint {path} needs a 'polys' object and an integer 'watermark'"
        )
    return PolyCache.from_json(polys, n, k), watermark


def _universe_polys(
    n: int,
    k: int,
    cfg: RunConfig,
    *,
    cache: PolyCache | None = None,
    checkpoint_path: str | None = None,
    masks: Iterable[int] | None = None,
) -> tuple[PolyCache, dict[tuple[int, int, int], list[int]]]:
    """(cache, {class key: masks walked in that class}) over the labeled
    (n, k) universe; every class's polynomial is in the cache.

    Covers the given masks, which must come in increasing order; with
    none, every mask.  A checkpoint seeds the cache (a given cache takes
    precedence) and the watermark.  It is rewritten when the cache has
    grown and ten times the last write's duration has passed since that
    write began (the first growth writes at once), and once at the end
    with the full watermark.  An exception in the loop writes once more,
    with the last mask reached, if classes were computed since the last
    write was attempted; so a write that fails is not attempted again.
    """
    slots = universe_slots(n, k)
    watermark = -1
    if checkpoint_path:
        loaded, watermark = load_checkpoint(checkpoint_path, n, k)
        cache = loaded if cache is None else cache
    if cache is None:
        cache = PolyCache()
    if masks is None:
        masks = range(1 << slots)
    classes: dict[tuple[int, int, int], list[int]] = {}
    persisted, due, finished = cache.computed, -inf, False
    try:
        for mask in masks:
            cache.get_char_mask(n, k, mask, cfg)
            classes.setdefault(cache.class_key(n, k, mask), []).append(mask)
            watermark = max(watermark, mask)
            if checkpoint_path and cache.computed != persisted and time.monotonic() >= due:
                # persisted before the write, so a write that fails is not retried
                began, persisted = time.monotonic(), cache.computed
                save_checkpoint(checkpoint_path, n, k, cache, watermark)
                due = began + 10 * (time.monotonic() - began)
        finished, watermark = True, (1 << slots) - 1
    finally:
        if checkpoint_path and (finished or cache.computed != persisted):
            save_checkpoint(checkpoint_path, n, k, cache, watermark)
    return cache, classes


@dataclass(frozen=True)
class Violation:
    """Two cospectral hypergraphs whose cheap counts disagree."""

    mask_a: int
    mask_b: int
    field: str
    value_a: int
    value_b: int


def find_fingerprint_violations(
    groups: Iterable[Sequence[tuple[int, int, int]]],
) -> tuple[Violation, ...]:
    """Each group holds the (mask, edge_count, simplex_count) rows of
    cospectral hypergraphs.

    Reports, group by group, every row whose edge or simplex count
    differs from the group's first row.  Pure so that synthetic groups
    can exercise the reporting path.
    """
    violations: list[Violation] = []
    for (first_mask, first_edges, first_simplices), *rest in groups:
        for mask, edges, simplices in rest:
            if edges != first_edges:
                violations.append(
                    Violation(first_mask, mask, "edge_count", first_edges, edges)
                )
            if simplices != first_simplices:
                violations.append(
                    Violation(
                        first_mask, mask, "simplex_count", first_simplices, simplices
                    )
                )
    return tuple(violations)


@dataclass(frozen=True)
class ScanReport:
    n: int
    k: int
    total: int
    class_count: int
    groups: tuple[tuple[int, ...], ...]
    violations: tuple[Violation, ...]
    polynomials_computed: int


def cospectral_invariant_scan(
    n: int,
    k: int,
    config: RunConfig = DEFAULT_CONFIG,
    *,
    checkpoint_path: str | None = None,
) -> ScanReport:
    """Exhaustive check that cospectral mates share edge and simplex counts.

    Computes the characteristic polynomial of every hypergraph on n
    labeled vertices (cached per isomorphism class, no count-based
    shortcuts), groups by polynomial, and reports violations.  A
    checkpoint, when given, makes the run resumable.
    """
    cache, classes = _universe_polys(n, k, config, checkpoint_path=checkpoint_path)
    by_poly: dict[tuple, list[int]] = {}
    for key, masks in classes.items():
        by_poly.setdefault(cache.get_char_mask(*key, config).coeffs, []).extend(masks)
    groups = tuple(tuple(sorted(masks)) for _, masks in sorted(by_poly.items()))
    return ScanReport(
        n=n,
        k=k,
        total=sum(map(len, classes.values())),
        class_count=len(groups),
        groups=groups,
        violations=find_fingerprint_violations(  # groups by least mask, as walked
            [(m, m.bit_count(), mask_simplex_count(n, k, m)) for m in group]
            for group in sorted(groups)
        ),
        polynomials_computed=cache.computed,
    )


def _candidate_masks(
    n: int, k: int, target_mask: int, fingerprint_fields: Sequence[str]
) -> Iterable[int]:
    """The (n, k) masks, increasing, whose fingerprint fields match the target's."""
    slots = comb(n, k)
    if "edges" in fingerprint_fields:
        masks: Iterable[int] = popcount_masks(slots, target_mask.bit_count())
    else:
        masks = range(1 << slots)
    if "simplices" in fingerprint_fields:
        masks = with_simplex_count(
            n, k, masks, mask_simplex_count(n, k, target_mask)
        )
    return masks


@dataclass(frozen=True)
class DsVerdict:
    target: Hypergraph
    mate_masks: tuple[int, ...]
    all_isomorphic: bool
    candidates: int
    pruned: int
    polynomials_computed: int

    @property
    def cospectral_mates(self) -> tuple[Hypergraph, ...]:
        """The mates as hypergraphs, built from mate_masks on each access."""
        return tuple(from_bitmask(self.target.n, self.target.k, m) for m in self.mate_masks)


def ds_verify(
    h: Hypergraph,
    config: RunConfig = DEFAULT_CONFIG,
    *,
    cache: PolyCache | None = None,
    fingerprint_fields: Sequence[str] = ("edges", "simplices"),
    checkpoint_path: str | None = None,
) -> DsVerdict:
    """Search the labeled (n, k) universe for cospectral mates of h.

    Candidates whose cheap counts differ from the target's are pruned
    before any polynomial work; equal counts for cospectral mates is
    exactly what the invariant scan validates.  fingerprint_fields may
    be narrowed to "edges" alone to demonstrate that the isomorphism
    filter catches what a weaker fingerprint lets through.  With
    "edges", only the masks of the target's popcount are walked.
    """
    unknown = set(fingerprint_fields) - {"edges", "simplices"}
    if unknown:
        raise InputError(f"unknown fingerprint fields {sorted(unknown)}")
    universe_slots(h.n, h.k)
    n, k, target_mask = h.n, h.k, edge_bitmask(h)
    cache, classes = _universe_polys(
        n,
        k,
        config,
        cache=cache,
        checkpoint_path=checkpoint_path,
        masks=_candidate_masks(n, k, target_mask, fingerprint_fields),
    )
    target_poly = cache.get_char_mask(n, k, target_mask, config)
    matches = {key for key in classes if cache.get_char_mask(*key, config) == target_poly}
    candidates = 1 << comb(n, k)
    return DsVerdict(
        target=h,
        mate_masks=tuple(
            sorted(m for key in matches for m in classes[key] if m != target_mask)
        ),
        all_isomorphic=matches <= {cache.class_key(n, k, target_mask)},
        candidates=candidates,
        pruned=candidates - sum(map(len, classes.values())),
        polynomials_computed=cache.computed,
    )


@dataclass(frozen=True)
class DestructionReport:
    n: int
    k: int
    r: int
    minimum: int
    expected_minimum: int
    matches_expected: bool
    achievers: tuple[tuple[tuple[int, ...], ...], ...]
    achievers_are_exactly_common_core: bool
    subsets_checked: int


def simplex_destruction_min(n: int, k: int, r: int) -> DestructionReport:
    """Fewest simplices lost when r edges leave the complete hypergraph.

    Brute-forces every r-subset of edges, counts the simplices that
    contain at least one removed edge, and checks two facts: the
    minimum equals sum(n-k-i for i in range(r)), and the minimizers are
    exactly the r-subsets whose edges share k-1 common vertices.  Work
    estimated above BRUTE_FORCE_CAP is refused before it starts.
    """
    from itertools import combinations

    if k < 1 or n < k:
        raise BadSize(f"need 1 <= k <= n, got n={n} k={k}")
    slots = comb(n, k)
    if r < 1 or slots < r:
        raise BadSize(f"need 1 <= r <= C(n, k) = {slots}, got r={r}")
    work = comb(slots, r) * comb(n, k + 1)
    if work > BRUTE_FORCE_CAP:
        raise CapExceeded(f"estimated work {work} exceeds cap {BRUTE_FORCE_CAP}")
    order = subset_order(n, k)
    faces = [f for _, f in simplex_masks(n, k)]
    best = len(faces) + 1
    achievers: list[tuple[int, ...]] = []
    core_sets: set[tuple[int, ...]] = set()
    for chosen in combinations(range(slots), r):
        removed = 0
        for i in chosen:
            removed |= 1 << i
        destroyed = sum(1 for f in faces if f & removed)
        if destroyed < best:
            best = destroyed
            achievers = [chosen]
        elif destroyed == best:
            achievers.append(chosen)
        if len(set.intersection(*(set(order[i]) for i in chosen))) >= k - 1:
            core_sets.add(chosen)

    expected = sum(n - k - i for i in range(r))
    achiever_edge_sets = tuple(
        tuple(order[i] for i in chosen) for chosen in achievers
    )
    return DestructionReport(
        n=n,
        k=k,
        r=r,
        minimum=best,
        expected_minimum=expected,
        matches_expected=best == expected,
        achievers=achiever_edge_sets,
        achievers_are_exactly_common_core=set(achievers) == core_sets,
        subsets_checked=comb(slots, r),
    )
