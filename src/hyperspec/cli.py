"""Command-line front end.

Every subcommand reads hypergraphs in the line-based text format,
computes exactly, and emits JSON (machine format, byte-deterministic)
or a flat table (human convenience).  Exit codes: 0 success, 2 bad
input or an output path that cannot be written, 3 a configured cap
refused the work, 4 a mathematical precondition failed; the failing
condition and witness go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import lru_cache
from typing import Any

from .analysis import (
    are_cospectral,
    are_e_cospectral,
    cospectral_invariant_scan,
    ds_verify,
    simplex_destruction_min,
)
from .config import RunConfig, config_from_env
from .errors import CapExceeded, HyperspecError, InputError, MathError
from .hypergraph import (
    Hypergraph,
    format_hypergraph,
    mask_edges,
    parse_hypergraph,
    simplices,
    subset_order,
)
from .polynomial import UniPoly
from .rational import parse_int
from .spectra import char_poly, e_char_poly
from .switching import (
    SwitchingPartition,
    _toggle,
    example_pair,
    validate,
    verify_similarity,
)


def _read_hypergraph(path: str) -> Hypergraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    return parse_hypergraph(text)


def _poly_payload(poly: UniPoly) -> dict[str, Any]:
    return {
        "degree": poly.degree,
        "coefficients": list(poly.to_coeff_strings()),
    }


class _EdgeLists:
    """A payload value: the edge lists of (n, k) edge bitmasks, one list
    per mask, each in lexicographic order.  `_json` writes them from the
    masks' set bits and `_as_table` from `mask_edges`, so a JSON payload
    builds no edge tuples."""

    __slots__ = ("n", "k", "masks")

    def __init__(self, n: int, k: int, masks: tuple[int, ...]) -> None:
        self.n, self.k, self.masks = n, k, masks


def _as_table(payload: dict[str, Any], indent: int = 0) -> str:
    lines: list[str] = []
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if type(value) is _EdgeLists:
            value = [mask_edges(value.n, value.k, m) for m in value.masks]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_as_table(value, indent + 1).rstrip("\n"))
        elif isinstance(value, list):
            rendered = " ".join(
                json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else str(v)
                for v in value
            )
            lines.append(f"{pad}{key}: [{rendered}]")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines) + "\n"


def _json(value: Any, pad: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) byte for byte, for
    str-keyed dicts, lists, tuples and scalars, and for an _EdgeLists as
    its lists of edge lists; pad is "\n" and the indent of value's
    closing line.
    With an indent the stdlib encoder runs in pure Python, which took most
    of a warm ds call.  Here ints go through int.__repr__, keys and other
    scalars through json.dumps on its C path, and an all-int tuple (an
    edge) is rendered once per pad; testing type(v) is int keeps unhashable
    tuples out of that memo and (True, 2) apart from (1, 2)."""
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is tuple and all(type(v) is int for v in value):
        return _int_tuple(value, pad)
    if type(value) is _EdgeLists:
        return _edge_lists(value, pad)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [json.dumps(k) + ": " + _json(v, inner) for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
    else:
        return json.dumps(value)
    left, right = "{}" if isinstance(value, dict) else "[]"
    return left + inner + ("," + inner).join(items) + pad + right if items else left + right


@lru_cache(maxsize=4096)
def _int_tuple(value: tuple[int, ...], pad: str) -> str:
    return _json(list(value), pad)


@lru_cache(maxsize=None)
def _edge_strings(n: int, k: int, pad: str) -> tuple[str, ...]:
    """The JSON of each (n, k) edge slot, in subset order, closing at pad."""
    return tuple(_int_tuple(edge, pad) for edge in subset_order(n, k))


def _edge_lists(value: _EdgeLists, pad: str) -> str:
    """_json of value's edge lists: each mask's pre-rendered edge
    strings joined over its set bits, lowest first."""
    inner, edge_pad = pad + "  ", pad + "    "
    table, comma = _edge_strings(value.n, value.k, edge_pad), "," + edge_pad
    items = []
    for mask in value.masks:
        edges = []
        while mask:
            low = mask & -mask
            edges.append(table[low.bit_length() - 1])
            mask ^= low
        items.append("[" + edge_pad + comma.join(edges) + inner + "]" if edges else "[]")
    return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"


def _emit(payload: dict[str, Any], args: argparse.Namespace) -> None:
    if args.format == "json":
        text = _json(payload) + "\n"
    else:
        text = _as_table(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_vertex_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(parse_int(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {raw!r}") from None


def _cmd_charpoly(args: argparse.Namespace, cfg: RunConfig) -> dict[str, Any]:
    return _poly_payload(char_poly(_read_hypergraph(args.file), cfg))


def _cmd_echarpoly(args: argparse.Namespace, cfg: RunConfig) -> dict[str, Any]:
    h = _read_hypergraph(args.file)
    return _poly_payload(e_char_poly(h, cfg, normalize=not args.raw))


def _cmd_cospectral(args: argparse.Namespace, cfg: RunConfig) -> dict[str, Any]:
    g = _read_hypergraph(args.first)
    h = _read_hypergraph(args.second)
    payload: dict[str, Any] = {"cospectral": are_cospectral(g, h, cfg)}
    if args.e_char:
        payload["e_cospectral"] = are_e_cospectral(g, h, cfg)
    return payload


def _cmd_simplices(args: argparse.Namespace, cfg: RunConfig) -> dict[str, Any]:
    h = _read_hypergraph(args.file)
    found = list(simplices(h))
    return {"count": len(found), "simplices": [list(s) for s in found]}


def _cmd_verify_switch(args: argparse.Namespace, cfg: RunConfig) -> dict[str, Any]:
    h = _read_hypergraph(args.file)
    p = SwitchingPartition.from_v1(h.n, _parse_vertex_list(args.v1))
    report = validate(h, p)
    g = _toggle(h, p, report)
    similarity = verify_similarity(h, g, p)
    payload: dict[str, Any] = {
        "verdict": similarity.ok,
        "switched_sets": [list(s) for s in report.switched_sets],
        "counts": {str(c): occurrences for c, occurrences in report.counts},
        "switched_text": format_hypergraph(g),
    }
    if args.expect:
        expected = _read_hypergraph(args.expect)
        payload["matches_expected"] = g == expected
    if not similarity.ok:
        payload["mismatch_index"] = list(similarity.first_mismatch or ())
    return payload


def _cmd_example_pair(args: argparse.Namespace, cfg: RunConfig) -> dict[str, Any]:
    family = (
        [_parse_vertex_list(raw) for raw in args.family_edge]
        if args.family_edge
        else None
    )
    h, g, p = example_pair(args.n, family)
    out_dir = args.dir or "."
    os.makedirs(out_dir, exist_ok=True)
    h_path = os.path.join(out_dir, "H.hg")
    g_path = os.path.join(out_dir, "G.hg")
    p_path = os.path.join(out_dir, "partition.json")
    with open(h_path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(h))
    with open(g_path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(g))
    with open(p_path, "w", encoding="utf-8") as fh:
        fh.write(_json({"v1": sorted(p.v1), "v2": sorted(p.v2)}) + "\n")
    return {
        "h_file": h_path,
        "g_file": g_path,
        "partition_file": p_path,
        "vertices": h.n,
        "h_edges": h.edge_count,
        "g_edges": g.edge_count,
    }


def _cmd_ds(args: argparse.Namespace, cfg: RunConfig) -> dict[str, Any]:
    h = _read_hypergraph(args.file)
    fields = tuple(part for part in args.fingerprint.split(",") if part)
    verdict = ds_verify(
        h,
        cfg,
        fingerprint_fields=fields,
        checkpoint_path=args.checkpoint,
    )
    return {
        "all_isomorphic": verdict.all_isomorphic,
        "mates": _EdgeLists(h.n, h.k, verdict.mate_masks),
        "candidates": verdict.candidates,
        "pruned": verdict.pruned,
        "polynomials_computed": verdict.polynomials_computed,
    }


def _cmd_invariant_scan(args: argparse.Namespace, cfg: RunConfig) -> dict[str, Any]:
    report = cospectral_invariant_scan(
        args.n, args.k, cfg, checkpoint_path=args.checkpoint
    )
    return {
        "total": report.total,
        "classes": report.class_count,
        "groups": [list(group) for group in report.groups],
        "violations": [asdict(v) for v in report.violations],
        "polynomials_computed": report.polynomials_computed,
    }


def _cmd_simplex_bound(args: argparse.Namespace, cfg: RunConfig) -> dict[str, Any]:
    report = simplex_destruction_min(args.n, args.k, args.r)
    return {
        "minimum": report.minimum,
        "expected_minimum": report.expected_minimum,
        "matches_expected": report.matches_expected,
        "achiever_count": len(report.achievers),
        "achievers_are_exactly_common_core": report.achievers_are_exactly_common_core,
        "achievers": [
            [list(edge) for edge in chosen] for chosen in report.achievers
        ],
        "subsets_checked": report.subsets_checked,
    }


def _int_option(text: str) -> int:
    """parse_int for integer options; argparse names the type in its
    refusal, which reads "invalid int value: ..." as for int."""
    return parse_int(text)


_int_option.__name__ = "int"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspec",
        description="Exact spectra of uniform hypergraph adjacency tensors.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--degree-cap", type=_int_option, default=RunConfig.degree_cap)
    common.add_argument("--dim-cap", type=_int_option, default=RunConfig.dim_cap)
    common.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    common.add_argument("--out", help="write output to this file instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "charpoly", parents=[common], help="characteristic polynomial of a file"
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser(
        "echarpoly", parents=[common], help="E-characteristic polynomial of a file"
    )
    p.add_argument("file")
    p.add_argument("--raw", action="store_true", help="skip content normalization")
    p.set_defaults(func=_cmd_echarpoly)

    p = sub.add_parser(
        "cospectral", parents=[common], help="compare two files' spectra"
    )
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument(
        "--e-char", action="store_true", help="also compare E-characteristic polynomials"
    )
    p.set_defaults(func=_cmd_cospectral)

    p = sub.add_parser("simplices", parents=[common], help="count and list simplices")
    p.add_argument("file")
    p.set_defaults(func=_cmd_simplices)

    p = sub.add_parser(
        "verify-switch",
        parents=[common],
        help="validate a partition, switch, and certify the similarity",
    )
    p.add_argument("file")
    p.add_argument("--v1", required=True, help="comma-separated vertex ids")
    p.add_argument("--expect", help="file the switched hypergraph must equal")
    p.set_defaults(func=_cmd_verify_switch)

    p = sub.add_parser(
        "example-pair",
        parents=[common],
        help="write a built-in switched pair H.hg / G.hg / partition.json",
    )
    p.add_argument("--n", type=_int_option, required=True, help="chain length (>= 3)")
    p.add_argument("--dir", help="output directory (default: current)")
    p.add_argument(
        "--family-edge",
        action="append",
        help="replace the default chain family; repeatable, e.g. --family-edge 5,6,7",
    )
    p.set_defaults(func=_cmd_example_pair)

    p = sub.add_parser(
        "ds", parents=[common], help="search the universe for cospectral mates"
    )
    p.add_argument("file")
    p.add_argument("--checkpoint", help="JSON checkpoint path for resumable runs")
    p.add_argument(
        "--fingerprint",
        default="edges,simplices",
        help="comma list of pruning counts: edges,simplices",
    )
    p.set_defaults(func=_cmd_ds)

    p = sub.add_parser(
        "invariant-scan",
        parents=[common],
        help="verify cospectral mates share edge and simplex counts",
    )
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--k", type=_int_option, required=True)
    p.add_argument("--checkpoint", help="JSON checkpoint path for resumable runs")
    p.set_defaults(func=_cmd_invariant_scan)

    p = sub.add_parser(
        "simplex-bound",
        parents=[common],
        help="minimum simplices destroyed by deleting r edges from the complete hypergraph",
    )
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--k", type=_int_option, required=True)
    p.add_argument("--r", type=_int_option, required=True)
    p.set_defaults(func=_cmd_simplex_bound)

    return parser


# the subcommands that recombine values modulo primes, and so read
# HYPERSPEC_PRIME_SEED, before any file
_PRIME_COMMANDS = frozenset({"charpoly", "echarpoly", "cospectral", "ds", "invariant-scan"})


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call rather than at import;
    parse_args leaves it unchanged, so later calls reuse it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    cfg = RunConfig(degree_cap=args.degree_cap, dim_cap=args.dim_cap)
    try:
        if args.command in _PRIME_COMMANDS:
            cfg = config_from_env(cfg)
        _emit(args.func(args, cfg), args)
        return 0
    except (HyperspecError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapExceeded) else 4 if isinstance(exc, MathError) else 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
