"""Command-line interface: payloads, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperspec
from hyperspec import analysis, cli, hypergraph
from hyperspec.analysis import ds_verify
from hyperspec.cli import main
from hyperspec.errors import MathError
from hyperspec.hypergraph import (
    Hypergraph,
    edge_bitmask,
    format_hypergraph,
    from_bitmask,
    mask_edges,
    mask_orbit,
    parse_hypergraph,
)

DATA = Path(__file__).parent / "data"


def _write_graph(tmp_path, name, h):
    path = tmp_path / name
    path.write_text(format_hypergraph(h))
    return str(path)


def _single_edge_file(tmp_path):
    return _write_graph(
        tmp_path, "single.hg", Hypergraph.from_edges(3, 3, [(1, 2, 3)])
    )


_ZERO = '{\n  "coefficients": [],\n  "degree": -1\n}\n'  # the zero polynomial's payload


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_charpoly_matches_frozen(tmp_path, capsys):
    golden = json.loads((DATA / "single_edge_n3_char.json").read_text())
    code, out, err = _run(capsys, ["charpoly", _single_edge_file(tmp_path)])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["degree"] == 12
    assert payload["coefficients"] == golden["char_poly"]["coefficients"]


def test_charpoly_empty_graph(tmp_path, capsys):
    path = _write_graph(tmp_path, "empty.hg", Hypergraph.empty(3, 3))
    code, out, _ = _run(capsys, ["charpoly", path])
    assert code == 0
    payload = json.loads(out)
    coeffs = payload["coefficients"]
    assert coeffs == ["0"] * 12 + ["1"]


def test_echarpoly_raw_and_normalized(tmp_path, capsys):
    golden = json.loads((DATA / "single_edge_n3_echar.json").read_text())
    path = _single_edge_file(tmp_path)
    code, out, _ = _run(capsys, ["echarpoly", "--raw", path])
    assert code == 0
    raw = json.loads(out)["coefficients"]
    assert raw == golden["e_char_poly_raw"]["coefficients"]
    code, out, _ = _run(capsys, ["echarpoly", path])
    assert code == 0
    norm = json.loads(out)["coefficients"]
    assert norm == golden["e_char_poly_normalized"]["coefficients"]


def test_table_format(tmp_path, capsys):
    code, out, _ = _run(
        capsys, ["charpoly", "--format", "table", _single_edge_file(tmp_path)]
    )
    assert code == 0
    assert "degree" in out
    assert "{" not in out  # not JSON


def test_out_redirects_payload(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = _run(
        capsys,
        ["charpoly", "--out", str(target), _single_edge_file(tmp_path)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["degree"] == 12


def test_simplices_on_complete(tmp_path, capsys):
    path = _write_graph(tmp_path, "k6.hg", Hypergraph.complete(6, 3))
    code, out, _ = _run(capsys, ["simplices", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 15
    assert len(payload["simplices"]) == 15


def test_cospectral_relabeled_pair(tmp_path, capsys):
    h = Hypergraph.from_edges(4, 3, [(1, 2, 3), (2, 3, 4)])
    images = [3, 1, 4, 2]
    g = Hypergraph.from_edges(
        4, 3, [tuple(sorted(images[v - 1] for v in e)) for e in h.edges]
    )
    pa = _write_graph(tmp_path, "a.hg", h)
    pb = _write_graph(tmp_path, "b.hg", g)
    code, out, _ = _run(capsys, ["cospectral", pa, pb])
    assert code == 0
    assert json.loads(out)["cospectral"] is True


def test_cospectral_distinguishes(tmp_path, capsys):
    pa = _write_graph(tmp_path, "a.hg", Hypergraph.empty(3, 3))
    pb = _single_edge_file(tmp_path)
    code, out, _ = _run(capsys, ["cospectral", pa, pb])
    assert code == 0
    assert json.loads(out)["cospectral"] is False


def test_cospectral_e_char_flag(tmp_path, capsys):
    h = Hypergraph.from_edges(4, 2, [(1, 2), (2, 3), (3, 4)])
    images = [2, 4, 1, 3]
    g = Hypergraph.from_edges(
        4, 2, [tuple(sorted(images[v - 1] for v in e)) for e in h.edges]
    )
    pa = _write_graph(tmp_path, "a2.hg", h)
    pb = _write_graph(tmp_path, "b2.hg", g)
    code, out, _ = _run(capsys, ["cospectral", "--e-char", pa, pb])
    assert code == 0
    assert json.loads(out)["cospectral"] is True


def test_example_pair_and_verify_switch(tmp_path, capsys):
    code, out, _ = _run(
        capsys, ["example-pair", "--n", "4", "--dir", str(tmp_path)]
    )
    assert code == 0
    for name in ("H.hg", "G.hg", "partition.json"):
        assert (tmp_path / name).exists()
    partition = json.loads((tmp_path / "partition.json").read_text())
    assert partition["v1"] == [1, 2, 3, 4]
    h = parse_hypergraph((tmp_path / "H.hg").read_text())
    assert h.n == 8 and h.k == 3

    code, out, _ = _run(
        capsys,
        [
            "verify-switch",
            str(tmp_path / "H.hg"),
            "--v1",
            "1,2,3,4",
            "--expect",
            str(tmp_path / "G.hg"),
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["matches_expected"] is True


def test_verify_switch_validates_once(tmp_path, capsys, monkeypatch):
    # one validation serves both the report and the switched hypergraph
    from hyperspec import switching

    calls = []
    validate = switching.validate

    def counted(h, p):
        calls.append(p)
        return validate(h, p)

    for module in (switching, cli):
        monkeypatch.setattr(module, "validate", counted)
    _run(capsys, ["example-pair", "--n", "4", "--dir", str(tmp_path)])
    code, out, _ = _run(capsys, ["verify-switch", str(tmp_path / "H.hg"), "--v1", "1,2,3,4"])
    assert code == 0 and json.loads(out)["verdict"] is True
    assert len(calls) == 1


def test_example_pair_custom_family(tmp_path, capsys):
    code, _, _ = _run(
        capsys,
        [
            "example-pair",
            "--n",
            "4",
            "--dir",
            str(tmp_path),
            "--family-edge",
            "5,6,8",
            "--family-edge",
            "5,7,8",
        ],
    )
    assert code == 0
    h = parse_hypergraph((tmp_path / "H.hg").read_text())
    g = parse_hypergraph((tmp_path / "G.hg").read_text())
    assert h.edges != g.edges


def test_ds_verdict(tmp_path, capsys):
    path = _write_graph(
        tmp_path, "one.hg", Hypergraph.from_edges(4, 3, [(1, 2, 3)])
    )
    code, out, _ = _run(capsys, ["ds", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_isomorphic"] is True
    assert payload["candidates"] == 16


def test_ds_fingerprint_flag(tmp_path, capsys):
    path = _write_graph(
        tmp_path, "one.hg", Hypergraph.from_edges(4, 3, [(1, 2, 3)])
    )
    code, out, _ = _run(capsys, ["ds", "--fingerprint", "edges", path])
    assert code == 0
    assert json.loads(out)["all_isomorphic"] is True


def test_invariant_scan(tmp_path, capsys):
    code, out, _ = _run(capsys, ["invariant-scan", "--n", "4", "--k", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 16
    assert payload["classes"] == 5
    assert payload["violations"] == []


def _sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


# Byte pins recorded before ds and the scan moved to edge-bitmask
# fingerprints: sha256 of the ds stdout and of its final checkpoint for
# three 6-vertex graphs, given by their edge bitmasks; 106 has cospectral
# mates that are not isomorphic to it.
_DS_PINS = {
    106: (
        "eb29fdadcfad0a974126e927cdca74bc06a5ec572fcca53bf62ee23ff60519e8",
        "2e36e6a9829945d46fbac3156fdd1542495474c745533fe5d6e745f1149c88d5",
        (False, 419, 31643, 7),
    ),
    1919: (
        "89954fe9b60fe65ced4e1dd28f14346e26519f18c8513365f16e437dfa2bc5f1",
        "3a6a9111ee8881b0f98506aaa2a796cbbb1507191a878b54fc3c18f0ecba1699",
        (True, 359, 31868, 4),
    ),
    759: (
        "84ee920aa9952ef269ec049fcb102ad587546f68907d10ce96d032b699550ed4",
        "166f392142f4195827cc0d708391c7581f20bc73fd487639d2f4327dab59d524",
        (True, 179, 32318, 4),
    ),
}


@pytest.mark.parametrize("mask", sorted(_DS_PINS))
def test_ds_output_pinned(tmp_path, capsys, mask):
    out_digest, checkpoint_digest, summary = _DS_PINS[mask]
    path = _write_graph(tmp_path, "g.hg", from_bitmask(6, 2, mask))
    state = tmp_path / "state.json"
    code, out, err = _run(capsys, ["ds", path, "--checkpoint", str(state)])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert (
        payload["all_isomorphic"],
        len(payload["mates"]),
        payload["pruned"],
        payload["polynomials_computed"],
    ) == summary
    assert _sha256(out) == out_digest
    assert _sha256(state.read_bytes()) == checkpoint_digest


# The same three graphs under the narrower fingerprints, which walk the
# popcount masks alone, the full range filtered by simplex count, and the
# full range: sha256 of the stdout and of the final checkpoint, recorded
# before ds walked only the target's popcount.
_DS_FINGERPRINT_PINS = {
    (106, "edges"): (
        "4e1183c78305a8e0232b44a5b91cf99f6e476c6c6e3b67d2bb850f58a2a3f50d",
        "0b0ad3fa871fa73e09ece3d947dc14b24111e4dd2e12a6894ca2de86fc9c42f9",
    ),
    (106, "simplices"): (
        "8977ee97c63c6fb44954d2145364ec707217f8e69c44a7c4c705715347b0ac7e",
        "500ea8a29787ea5553cf4f0fad23db4dc313cc044c31476c9d7f1e95ffce9b6b",
    ),
    (106, ""): (
        "741bd84dbdc3d9c41483bb000e8f5abd11f85888d70660586c9181b5208adfa6",
        "24b8a6902fe33c62ec9918dfa004549d1680306845c4eb23bb60346f7ca87df4",
    ),
    (1919, "edges"): (
        "346103ed50e34adf127cf8e80cde6cc11b4a5055b19b4b4c931ae3aed078a03d",
        "991982ac892aee0f33bae1fe486d1c161ab26ded667fb5b8e62a3ae996513b58",
    ),
    (1919, "simplices"): (
        "c034337ac401ac0d5e3f6fd8f88a6b95019de9b41348a176aedd0bebd551656b",
        "c5146237f914947af44711e9d8f0fec08de739d386fbec5e29c6410b58ff59c0",
    ),
    (1919, ""): (
        "c361b47078af4c6576f97cadef5c74cb0810fa41befdca9021d135b26fefa3a8",
        "24b8a6902fe33c62ec9918dfa004549d1680306845c4eb23bb60346f7ca87df4",
    ),
    (759, "edges"): (
        "bb59650fa7da66f9d0659e1e8ae9e20b54ac8d74ba70d563712135cb428d9d3d",
        "748f10b1d954eddcfd06088d042181ebbfe7c07e3b6e3a20926d08c08265c7a2",
    ),
    (759, "simplices"): (
        "9065d250fd7db236c40c986187df73bb931159bf533f6028870e5727cde1bf1f",
        "93a34bf38db442ebeba1d610859df62a089fdd302dd3e5221f62de884b4f6418",
    ),
    (759, ""): (
        "4a18d7f8e9e64e2f516d77b7d147ca81ab2faa88fd0b80f948acb2af86cae380",
        "24b8a6902fe33c62ec9918dfa004549d1680306845c4eb23bb60346f7ca87df4",
    ),
}


@pytest.mark.parametrize("mask, spec", sorted(_DS_FINGERPRINT_PINS))
def test_ds_fingerprint_output_pinned(tmp_path, capsys, mask, spec):
    out_digest, checkpoint_digest = _DS_FINGERPRINT_PINS[mask, spec]
    path = _write_graph(tmp_path, "g.hg", from_bitmask(6, 2, mask))
    state = tmp_path / "state.json"
    argv = ["ds", path, "--checkpoint", str(state), "--fingerprint", spec]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert _sha256(out) == out_digest
    assert _sha256(state.read_bytes()) == checkpoint_digest


def test_ds_table_and_out_file_pinned(tmp_path, capsys):
    # class 106, with its 419 mates: sha256 of the table stdout and of
    # the --out file, recorded while the payload went through json.dumps
    path = _write_graph(tmp_path, "g.hg", from_bitmask(6, 2, 106))
    code, out, err = _run(capsys, ["ds", path, "--format", "table"])
    assert code == 0 and err == ""
    assert _sha256(out) == "29021b86e98e53a77142007a33b21a8e662ae7b1af724318064fc85916521729"
    target = tmp_path / "ds.json"
    code, out, err = _run(capsys, ["ds", path, "--out", str(target)])
    assert (code, out, err) == (0, "", "")
    assert _sha256(target.read_bytes()) == _DS_PINS[106][0]


@pytest.mark.parametrize("mask", sorted(_DS_PINS))
def test_ds_relabeled_target_keeps_summary(tmp_path, capsys, mask):
    h = from_bitmask(6, 2, mask)
    images = (4, 6, 1, 5, 2, 3)
    moved = Hypergraph.from_edges(
        6, 2, [tuple(images[v - 1] for v in edge) for edge in h.edges]
    )
    assert edge_bitmask(moved) != mask
    path = _write_graph(tmp_path, "moved.hg", moved)
    code, out, err = _run(capsys, ["ds", path])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert (
        payload["all_isomorphic"],
        len(payload["mates"]),
        payload["pruned"],
        payload["polynomials_computed"],
    ) == _DS_PINS[mask][2]


@pytest.mark.parametrize("n, k, classes", [(4, 3, 5), (5, 2, 34)])
def test_ds_output_matches_the_stdlib_encoder(tmp_path, capsys, n, k, classes):
    # each class as the target, by the greatest mask of its orbit; the
    # reference lists the mates' edges with mask_edges and encodes them
    # with json.dumps, or as the table's "key: value" lines
    targets = sorted({max(mask_orbit(n, k, m)) for m in range(1 << comb(n, k))})
    assert len(targets) == classes
    mateless = 0
    for target in targets:
        h = from_bitmask(n, k, target)
        path = _write_graph(tmp_path, "g.hg", h)
        for spec in ("edges,simplices", "edges"):
            verdict = ds_verify(h, fingerprint_fields=tuple(spec.split(",")))
            mates = [mask_edges(n, k, m) for m in verdict.mate_masks]
            payload = {
                "all_isomorphic": verdict.all_isomorphic,
                "mates": mates,
                "candidates": verdict.candidates,
                "pruned": verdict.pruned,
                "polynomials_computed": verdict.polynomials_computed,
            }
            argv = ["ds", path, "--fingerprint", spec]
            expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            assert _run(capsys, argv) == (0, expected, "")
            payload["mates"] = "[" + " ".join(json.dumps(m) for m in mates) + "]"
            table = "".join(f"{key}: {payload[key]}\n" for key in sorted(payload))
            assert _run(capsys, argv + ["--format", "table"]) == (0, table, "")
            mateless += not mates
    assert mateless > 0


def test_invariant_scan_output_pinned(tmp_path, capsys):
    state = tmp_path / "scan.json"
    argv = ["invariant-scan", "--n", "5", "--k", "2", "--checkpoint", str(state)]
    checkpoint_digest = "9fe1f8a0e0be12a0b87664cfd2408374b032894daf4c7faecb5a1dcb8239ca5e"
    for out_digest in (
        "ac24d87e9a9d563a93bfa3542960afa72118265d9a667ab7481e0047ca190842",  # cold
        "6a93a5fc9a629920769711530c457c128010d5f5d1f21104fda5558bc3b22a3d",  # resumed
    ):
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == ""
        assert _sha256(out) == out_digest
        assert _sha256(state.read_bytes()) == checkpoint_digest


def test_invariant_scan_violation_payload(capsys, monkeypatch):
    # no real scan up to n = 5 reports a violation, so a synthetic report
    # pins how one is written, in JSON and as a table
    report = analysis.ScanReport(
        n=4,
        k=3,
        total=16,
        class_count=2,
        groups=((0, 1), (3, 7)),
        violations=(
            analysis.Violation(0, 1, "edge_count", 0, 1),
            analysis.Violation(3, 7, "simplex_count", 0, 1),
        ),
        polynomials_computed=2,
    )
    monkeypatch.setattr(cli, "cospectral_invariant_scan", lambda *a, **kw: report)
    argv = ["invariant-scan", "--n", "4", "--k", "3"]
    payload = {
        "classes": 2,
        "groups": [[0, 1], [3, 7]],
        "polynomials_computed": 2,
        "total": 16,
        "violations": [
            {"field": "edge_count", "mask_a": 0, "mask_b": 1, "value_a": 0, "value_b": 1},
            {"field": "simplex_count", "mask_a": 3, "mask_b": 7, "value_a": 0, "value_b": 1},
        ],
    }
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    code, out, err = _run(capsys, argv + ["--format", "table"])
    assert (code, err) == (0, "")
    assert out == (
        "classes: 2\n"
        "groups: [[0, 1] [3, 7]]\n"
        "polynomials_computed: 2\n"
        "total: 16\n"
        'violations: [{"field": "edge_count", "mask_a": 0, "mask_b": 1, "value_a": 0,'
        ' "value_b": 1} {"field": "simplex_count", "mask_a": 3, "mask_b": 7,'
        ' "value_a": 0, "value_b": 1}]\n'
    )


@pytest.mark.parametrize("computed", [0, 2, 4])
def test_interrupted_scan_keeps_its_classes(tmp_path, capsys, monkeypatch, computed):
    # the char_polys batch after `computed` batches fails; under a clock
    # that stands still every class is a batch of its own, written at once,
    # so the checkpoint must hold exactly `computed` classes, and the
    # resumed run computes the rest and ends with the bytes of a run that
    # was never interrupted
    cold, state = tmp_path / "cold.json", tmp_path / "state.json"
    scan = ["invariant-scan", "--n", "4", "--k", "3", "--checkpoint"]
    code, cold_out, _ = _run(capsys, scan + [str(cold)])
    assert code == 0 and json.loads(cold_out)["polynomials_computed"] == 5
    monkeypatch.setattr(analysis, "time", SimpleNamespace(monotonic=lambda: 0.0))
    char_polys, batches = analysis.char_polys, []

    def failing(items, config):
        if len(batches) == computed:
            raise MathError("interrupted")
        batches.append(items)
        return char_polys(items, config)

    monkeypatch.setattr(analysis, "char_polys", failing)
    code, out, err = _run(capsys, scan + [str(state)])
    assert (code, out, err) == (4, "", "MathError: interrupted\n")
    assert [len(items) for items in batches] == [1] * computed
    if computed:
        assert len(json.loads(state.read_text())["polys"]) == computed
    else:
        assert not state.exists()
    monkeypatch.setattr(analysis, "char_polys", char_polys)
    code, out, err = _run(capsys, scan + [str(state)])
    assert code == 0 and err == ""
    assert json.loads(out)["polynomials_computed"] == 5 - computed
    assert state.read_bytes() == cold.read_bytes()


def test_simplex_bound(capsys):
    code, out, _ = _run(
        capsys, ["simplex-bound", "--n", "6", "--k", "3", "--r", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["minimum"] == 5
    assert payload["matches_expected"] is True


@pytest.mark.parametrize(
    "n, k, r",
    [(6, 3, 0), (0, 0, 0), (6, 3, -1), (4, 2, 10), (2, 3, 1)],
)
def test_simplex_bound_rejects_impossible_sizes(capsys, n, k, r):
    # r must count edges of the complete hypergraph: 1 <= k <= n and
    # 1 <= r <= C(n, k)
    code, out, err = _run(
        capsys, ["simplex-bound", "--n", str(n), "--k", str(k), "--r", str(r)]
    )
    assert (code, out) == (2, "")
    assert err.startswith("BadSize")


@pytest.mark.parametrize("n, k", [(-1, 2), (4, -1)])
def test_invariant_scan_rejects_impossible_sizes(capsys, n, k):
    code, out, err = _run(capsys, ["invariant-scan", "--n", str(n), "--k", str(k)])
    assert (code, out) == (2, "")
    assert err.startswith("BadSize")


def test_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, ["charpoly", "/nonexistent/x.hg"])
    assert code == 2
    assert err != ""


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_bytes(b"\xff\xfe3 3\n")
    code, out, err = _run(capsys, ["charpoly", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("InputError") and str(path) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["charpoly", "{graph}", "--out", "{tmp}"],
        ["charpoly", "{graph}", "--out", "{tmp}/missing/out.json"],
        ["ds", "{graph}", "--checkpoint", "{tmp}/missing/state.json"],
        ["invariant-scan", "--n", "4", "--k", "3", "--checkpoint", "{tmp}/missing/s.json"],
        ["example-pair", "--n", "4", "--dir", "{graph}"],
    ],
    ids=[
        "out_is_a_directory",
        "out_in_missing_directory",
        "ds_checkpoint_in_missing_directory",
        "scan_checkpoint_in_missing_directory",
        "example_pair_dir_is_a_file",
    ],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    # the last argument names the path that cannot be written; the error
    # names it on one stderr line, and nothing reaches stdout
    graph = _write_graph(tmp_path, "one.hg", Hypergraph.from_edges(4, 3, [(1, 2, 3)]))
    argv = [arg.format(graph=graph, tmp=tmp_path) for arg in argv]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert argv[-1] in err and err.count("\n") == 1


def test_simplices_and_ds_build_no_table_on_80_vertices(tmp_path, capsys, monkeypatch):
    # one edge on 80 vertices: simplices answers from the edge list, and ds
    # refuses its C(80, 3) = 82,160 edge slots before any bitmask or
    # simplex table is built
    def refuse(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(hypergraph, "simplex_masks", refuse)
    monkeypatch.setattr(hypergraph, "_subset_index", refuse)
    graph = _write_graph(tmp_path, "wide.hg", Hypergraph.from_edges(80, 3, [(1, 2, 3)]))
    code, out, err = _run(capsys, ["simplices", graph])
    assert (code, json.loads(out), err) == (0, {"count": 0, "simplices": []}, "")
    code, out, err = _run(capsys, ["ds", graph])
    assert (code, out) == (3, "")
    assert err == "CapExceeded: 82160 candidate edges exceed the enumeration cap\n"


def test_repeated_main_calls_match_fresh_parsers(tmp_path, capsys):
    # main builds its parser once per process; reusing it must give the
    # bytes and exit codes of a parser built for each call, also after an
    # argparse error (exit 2 by SystemExit) and an input error (exit 2)
    path = _single_edge_file(tmp_path)
    calls = [
        ["charpoly", path],
        ["echarpoly", "--raw", path],
        ["charpoly", "--no-such-flag", path],
        ["simplices", "--format", "table", path],
        ["charpoly", str(tmp_path / "missing.hg")],
        ["charpoly", path],
    ]

    def outcomes(fresh):
        got = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    fresh = outcomes(fresh=True)
    cli._parser.cache_clear()
    reused = outcomes(fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2, 0]
    assert fresh[0] == fresh[-1]


def test_module_entry_point_exits_2_on_missing_file(tmp_path):
    src = str(Path(hyperspec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hyperspec.cli", "charpoly", str(tmp_path / "no.hg")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "InputError" in proc.stderr


def _checkpoint(drop=(), **fields):
    payload = {"version": 1, "n": 4, "k": 3, "polys": {}, "watermark": 3, **fields}
    return json.dumps({key: v for key, v in payload.items() if key not in drop})


MALFORMED_CHECKPOINTS = {
    "truncated": _checkpoint()[:-12],
    "not_an_object": "[1, 2, 3]",
    "no_polys": _checkpoint(drop=("polys",)),
    "no_watermark": _checkpoint(drop=("watermark",)),
    "bad_watermark": _checkpoint(watermark="3"),
    "bad_key": _checkpoint(polys={"4,3": ["1"]}),
    "bad_coefficient": _checkpoint(polys={"4,3,1": ["x"]}),
    "zero_denominator": _checkpoint(polys={"4,3,1": ["1/0"]}),
    "coefficients_not_a_list": _checkpoint(polys={"4,3,1": "10"}),
    "key_for_other_size": _checkpoint(polys={"5,2,3": ["1"]}),
    "mask_out_of_range": _checkpoint(polys={"4,3,99999": ["1"]}),
    "mask_not_least_in_orbit": _checkpoint(polys={"4,3,8": ["1"]}),
}


@pytest.mark.parametrize("command", ["ds", "invariant-scan"])
@pytest.mark.parametrize("kind", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_exits_2(tmp_path, capsys, command, kind):
    state = tmp_path / "state.json"
    state.write_text(MALFORMED_CHECKPOINTS[kind])
    if command == "ds":
        h = Hypergraph.from_edges(4, 3, [(1, 2, 3)])
        argv = ["ds", "--checkpoint", str(state), _write_graph(tmp_path, "one.hg", h)]
    else:
        argv = ["invariant-scan", "--n", "4", "--k", "3", "--checkpoint", str(state)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("InputError")
    assert state.read_text() == MALFORMED_CHECKPOINTS[kind]  # left as it was


def test_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_text("3 3\n1 2\n")
    code, _, err = _run(capsys, ["charpoly", str(path)])
    assert code == 2
    assert "line 2" in err


def test_integers_beyond_ascii_digits_exit_2(tmp_path, capsys):
    path = tmp_path / "digit.hg"
    path.write_text("4 3\n1 2 ٣\n", encoding="utf-8")
    code, out, err = _run(capsys, ["simplices", str(path)])
    assert (code, out) == (2, "")
    assert err == "ParseError: line 2: expected integers, got '1 2 ٣'\n"


def test_integer_options_beyond_ascii_digits_exit_2(tmp_path, capsys):
    # every integer option reads ASCII digits only, and argparse refuses
    # the rest with its own usage error, naming the type int
    path = _single_edge_file(tmp_path)
    calls = [
        ["example-pair", "--n", "{}", "--dir", str(tmp_path)],
        ["simplex-bound", "--n", "{}", "--k", "3", "--r", "1"],
        ["simplex-bound", "--n", "5", "--k", "{}", "--r", "1"],
        ["simplex-bound", "--n", "5", "--k", "3", "--r", "{}"],
        ["invariant-scan", "--n", "{}", "--k", "3"],
        ["invariant-scan", "--n", "4", "--k", "{}"],
        ["charpoly", "--degree-cap", "{}", path],
        ["charpoly", "--dim-cap", "{}", path],
    ]
    for argv in calls:
        for bad in ("1_0", "٣", " 3"):
            with pytest.raises(SystemExit) as exc:
                main([a.format(bad) for a in argv])
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out) == (2, ""), argv
            assert f"invalid int value: {bad!r}" in captured.err, argv
    assert _run(capsys, ["simplex-bound", "--n", "+5", "--k", "3", "--r", "1"])[0] == 0
    code, out, _ = _run(capsys, ["charpoly", "--degree-cap", "12", path])
    assert code == 0 and json.loads(out)["degree"] == 12


def test_vertex_list_beyond_ascii_digits_exits_2(tmp_path, capsys):
    h, _, _ = hyperspec.example_pair(3)
    path = _write_graph(tmp_path, "h.hg", h)
    code, out, err = _run(capsys, ["verify-switch", path, "--v1", "1,2,3,4_0"])
    assert (code, out) == (2, "")
    assert err == "InputError: expected comma-separated integers, got '1,2,3,4_0'\n"
    code, out, _ = _run(capsys, ["verify-switch", path, "--v1", " 1, 2,3 ,4,"])
    assert code == 0 and json.loads(out)["verdict"] is True


def test_degree_cap_exits_3(tmp_path, capsys):
    code, _, err = _run(
        capsys, ["charpoly", "--degree-cap", "10", _single_edge_file(tmp_path)]
    )
    assert code == 3
    assert "cap" in err.lower() or "degree" in err.lower()


def test_e_char_degree_cap_exits_3(tmp_path, capsys):
    path = _single_edge_file(tmp_path)
    code, out, err = _run(capsys, ["echarpoly", "--degree-cap", "23", path])
    assert code == 3 and out == ""
    assert "resultant degree bound 24" in err
    code, _, _ = _run(capsys, ["echarpoly", "--degree-cap", "24", path])
    assert code == 0


@pytest.mark.parametrize("command", ["charpoly", "echarpoly", "cospectral"])
def test_adjacency_too_large_for_numpy_exits_3(tmp_path, capsys, command):
    # a well-formed file whose 10**24-entry adjacency tensor numpy would
    # refuse to allocate; its degree 10**8 * 2**(10**8 - 1) is refused
    # first, from (n, k), without forming the power.  Its E-char is
    # certified 0 (vertices 4 and 5 share no edge), so echarpoly takes the
    # 10**16-entry 2-graph, which has no certificate, and its degree 10**8
    path = tmp_path / "huge.hg"
    path.write_text("100000000 2\n1 2\n" if command == "echarpoly" else "100000000 3\n1 2 3\n")
    argv = [command, str(path)] + ([str(path)] if command == "cospectral" else [])
    code, out, err = _run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("DegreeCapExceeded") and "Traceback" not in err
    degree = "100000000" if command == "echarpoly" else "100000000*2**99999999"
    assert f"characteristic degree {degree} exceeds cap 128" in err


def test_spectra_refused_from_n_and_k_before_the_tensor(tmp_path, capsys, monkeypatch):
    # the 10**9-entry adjacency tensor of 1000 vertices is never built
    def refuse(h):
        raise AssertionError("adjacency tensor built")

    monkeypatch.setattr(hypergraph, "scaled_adjacency", refuse)
    path = tmp_path / "big.hg"
    path.write_text("1000 3\n1 2 3\n")
    p = str(path)
    for argv in (["charpoly", p], ["cospectral", p, p], ["cospectral", "--e-char", p, p]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("DegreeCapExceeded") and "Traceback" not in err, argv
    # vertices 4 and 5 share no edge, so the E-char is certified 0
    assert _run(capsys, ["echarpoly", p]) == (0, _ZERO, "")


def test_edgeless_echarpoly_answered_from_n_and_k(tmp_path, capsys, monkeypatch):
    # 200 vertices, no edges: the E-char is 0 for k = 3 and the degree cap
    # refuses k = 2, both without the 200**k adjacency tensor
    def refuse(h):
        raise AssertionError("adjacency tensor built")

    monkeypatch.setattr(hypergraph, "scaled_adjacency", refuse)
    three, two = tmp_path / "three.hg", tmp_path / "two.hg"
    three.write_text("200 3\n")
    two.write_text("200 2\n")
    for argv in (["echarpoly", str(three)], ["echarpoly", "--raw", str(three)]):
        assert _run(capsys, argv) == (0, '{\n  "coefficients": [],\n  "degree": -1\n}\n', "")
    code, out, err = _run(capsys, ["echarpoly", str(two)])
    assert (code, out) == (3, "")
    assert err == "DegreeCapExceeded: characteristic degree 200 exceeds cap 128\n"


_SCALARS = (
    st.none() | st.booleans() | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats() | st.text()
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_PAYLOADS)
def test_json_matches_stdlib_indent(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    [(True, 2), (1, 2), (1, True), [1, 2], (1, 2)],
    {"a": ({"b": [1, (2, 3)]}, [(4,)]), "\u00e9\n\"": (2**63, -(2**64), float("inf"))},
    ((), [], {}, (1.0, 1), ("x", 1), (None, 0)),
])
def test_json_matches_stdlib_on_mixed_tuples(value):
    for _ in range(2):  # the second pass reads memoised tuples
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_math_error_exits_4(tmp_path, capsys):
    # odd first cell is a structural failure inside the switching rules
    path = _write_graph(
        tmp_path, "h.hg", Hypergraph.from_edges(7, 3, [(5, 6, 7)])
    )
    code, _, err = _run(capsys, ["verify-switch", path, "--v1", "1,2,3"])
    assert code == 4
    assert err != ""


def test_condition_violation_exits_4(tmp_path, capsys):
    path = _write_graph(
        tmp_path, "deep.hg", Hypergraph.from_edges(6, 3, [(1, 2, 5)])
    )
    code, _, err = _run(capsys, ["verify-switch", path, "--v1", "1,2,3,4"])
    assert code == 4
    assert "(1, 2, 5)" in err


def test_thread_count_keeps_bytes_identical(tmp_path, capsys):
    # --threads selected nothing and is gone: argparse refuses it
    path = _single_edge_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["charpoly", "--threads", "2", path])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --threads" in captured.err


def test_prime_seed_env_is_honored(tmp_path, capsys, monkeypatch):
    path = _single_edge_file(tmp_path)
    _, base, _ = _run(capsys, ["charpoly", path])
    monkeypatch.setenv("HYPERSPEC_PRIME_SEED", "3")
    code, moved, _ = _run(capsys, ["charpoly", path])
    assert code == 0
    assert moved == base


def test_prime_seed_past_the_prime_list_exits_3(tmp_path, capsys, monkeypatch):
    from hyperspec.modular import MAX_PRIMES

    monkeypatch.setenv("HYPERSPEC_PRIME_SEED", str(MAX_PRIMES))
    code, out, err = _run(capsys, ["charpoly", _single_edge_file(tmp_path)])
    assert (code, out) == (3, "")
    assert err.startswith("CapExceeded: ") and err.count("\n") == 1


def test_certified_e_char_beyond_the_degree_cap(tmp_path, capsys):
    # vertices 4 and 5 share no edge, so the E-char is 0, answered though
    # its resultant degree bound, 160, exceeds the default cap 128
    g = Hypergraph.from_edges(5, 3, [(1, 2, 3)])
    h = Hypergraph.from_edges(5, 3, [(1, 2, 4), (3, 4, 5)])
    for argv in (["echarpoly"], ["echarpoly", "--raw"]):
        code, out, err = _run(capsys, argv + [_write_graph(tmp_path, "g.hg", g)])
        assert (code, out, err) == (0, '{\n  "coefficients": [],\n  "degree": -1\n}\n', "")
    assert analysis.are_e_cospectral(g, h)


def test_certified_e_char_beyond_the_characteristic_degree_cap(tmp_path, capsys, monkeypatch):
    # "5 4" (characteristic degree 405) has every pair uncovered, and in
    # "6 3" (degree 192) vertices 4 and 5 share no edge: echarpoly answers
    # 0 from the edge list, without the n**k tensor, while charpoly and
    # cospectral still refuse by the degree cap
    def refuse(h):
        raise AssertionError("adjacency tensor built")

    monkeypatch.setattr(hypergraph, "scaled_adjacency", refuse)
    for text, degree in (("5 4\n1 2 3 4\n", "405"), ("6 3\n1 2 3\n", "192"),
                         ("100000000 3\n1 2 3\n", "100000000*2**99999999")):
        path = tmp_path / "g.hg"
        path.write_text(text)
        p = str(path)
        for argv in (["echarpoly", p], ["echarpoly", "--raw", p]):
            assert _run(capsys, argv) == (0, _ZERO, ""), (text, argv)
        for argv in (["charpoly", p], ["cospectral", p, p], ["cospectral", "--e-char", p, p]):
            assert _run(capsys, argv) == (
                3, "", f"DegreeCapExceeded: characteristic degree {degree} exceeds cap 128\n"
            ), (text, argv)


def test_triple_witness_e_char_beyond_the_characteristic_degree_cap(
    tmp_path, capsys, monkeypatch
):
    # every pair of this "6 3" file shares an edge, but 123 is not an edge,
    # 4 forms one with each of 12, 13 and 23, and 5 and 6 with none: the
    # triple witness certifies the E-char 0 from the edge list, where the
    # degree cap (192) used to refuse it with exit 3; charpoly still refuses
    def refuse(h):
        raise AssertionError("adjacency tensor built")

    monkeypatch.setattr(hypergraph, "scaled_adjacency", refuse)
    path = tmp_path / "g.hg"
    path.write_text("6 3\n1 2 4\n1 3 4\n2 3 4\n4 5 6\n1 5 6\n2 5 6\n3 5 6\n")
    for argv in (["echarpoly", str(path)], ["echarpoly", "--raw", str(path)]):
        assert _run(capsys, argv) == (0, _ZERO, ""), argv
    assert _run(capsys, ["charpoly", str(path)]) == (
        3, "", "DegreeCapExceeded: characteristic degree 192 exceeds cap 128\n"
    )


def test_prime_seed_env_beyond_ascii_digits_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HYPERSPEC_PRIME_SEED", "1_0")
    code, out, err = _run(capsys, ["charpoly", _single_edge_file(tmp_path)])
    assert (code, out) == (2, "")
    assert err == "InputError: HYPERSPEC_PRIME_SEED must be an integer, got '1_0'\n"


def test_malformed_prime_seed_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HYPERSPEC_PRIME_SEED", "abc")
    code, _, err = _run(capsys, ["charpoly", _single_edge_file(tmp_path)])
    assert code == 2
    assert "HYPERSPEC_PRIME_SEED" in err


def test_prime_seed_env_is_read_only_by_the_commands_that_use_primes(
    tmp_path, capsys, monkeypatch
):
    # simplices, example-pair, verify-switch and simplex-bound recombine
    # nothing modulo primes, so a malformed seed leaves their bytes and
    # exit codes alone; the five commands that do refuse it before they
    # read any file, so a missing one is not reported
    path = _single_edge_file(tmp_path)
    pair = tmp_path / "pair"
    free = [
        ["simplices", path],
        ["example-pair", "--n", "3", "--dir", str(pair)],
        ["verify-switch", str(pair / "H.hg"), "--v1", "1,2,3,4"],
        ["simplex-bound", "--n", "5", "--k", "3", "--r", "1"],
    ]
    expected = [_run(capsys, argv) for argv in free]
    assert [code for code, *_ in expected] == [0] * 4
    monkeypatch.setenv("HYPERSPEC_PRIME_SEED", "x")
    assert [_run(capsys, argv) for argv in free] == expected
    refusal = (2, "", "InputError: HYPERSPEC_PRIME_SEED must be an integer, got 'x'\n")
    missing = str(tmp_path / "missing.hg")
    for argv in (["charpoly", missing], ["echarpoly", missing], ["cospectral", missing, missing],
                 ["ds", missing], ["invariant-scan", "--n", "4", "--k", "3"]):
        assert _run(capsys, argv) == refusal, argv
