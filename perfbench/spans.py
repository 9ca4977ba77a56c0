"""Per-layer tracing by wrapping the names hyperspec's modules look up.

Modules import their callees by name (``from .determinants import
det_exact_int``), so a callee is wrapped by replacing every binding of
the function object in every loaded ``hyperspec`` module: each caller
then finds the wrapper when it looks the name up.  Methods are wrapped
on their class.  Nothing inside ``src/`` changes.

Each wrapped call records a span (label, start, end, parent, caller
module).  Boundaries hit more than about 10**4 times per op keep only a
call count and summed time.  A span's self time is its duration minus
the time of the spans and counted calls directly inside it.  The
tracer runs in one thread: the benchmark never raises ``--threads``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

_MARK = "__perfbench_wrapped__"


@dataclass(frozen=True)
class Boundary:
    label: str  # "<layer>.<name>"
    module: str
    name: str  # attribute, or "Class.method"
    counter: bool = False


BOUNDARIES = (
    Boundary("cli.main", "hyperspec.cli", "main"),
    Boundary("analysis.ds_verify", "hyperspec.analysis", "ds_verify"),
    Boundary("analysis.scan", "hyperspec.analysis", "cospectral_invariant_scan"),
    Boundary("analysis.get_char", "hyperspec.analysis", "PolyCache.get_char"),
    Boundary("analysis.save_checkpoint", "hyperspec.analysis", "save_checkpoint"),
    Boundary("analysis.load_checkpoint", "hyperspec.analysis", "load_checkpoint"),
    Boundary("switching.example_pair", "hyperspec.switching", "example_pair"),
    Boundary("switching.validate", "hyperspec.switching", "validate"),
    Boundary("switching.switch", "hyperspec.switching", "switch"),
    Boundary("switching.verify_similarity", "hyperspec.switching", "verify_similarity"),
    Boundary("spectra.char_poly", "hyperspec.spectra", "char_poly"),
    Boundary("spectra.e_char_poly", "hyperspec.spectra", "e_char_poly"),
    Boundary("spectra.det_tensor", "hyperspec.spectra", "det_tensor"),
    Boundary("spectra.eval_point", "hyperspec.spectra", "_eval_point"),
    Boundary("macaulay.structure", "hyperspec.macaulay", "macaulay_structure"),
    Boundary("macaulay.resultant_value", "hyperspec.macaulay", "resultant_value"),
    Boundary("determinants.det_exact_int", "hyperspec.determinants", "det_exact_int"),
    Boundary("determinants.det_exact", "hyperspec.determinants", "det_exact"),
    Boundary("determinants.bareiss", "hyperspec.determinants", "bareiss_det"),
    Boundary("determinants.modular", "hyperspec.determinants", "_det_int_modular"),
    Boundary("modular.det_mod", "hyperspec.modular", "_det_mod_i64"),
    Boundary("modular.crt", "hyperspec.modular", "crt_combine"),
    Boundary("modular.primes", "hyperspec.modular", "primes_for_bound"),
    Boundary("polynomial.interpolate", "hyperspec.polynomial", "interpolate"),
    Boundary("polynomial.normalized", "hyperspec.polynomial", "UniPoly.normalized"),
    Boundary("tensor.mat_sim", "hyperspec.tensor", "mat_sim"),
    Boundary("hypergraph.adjacency_tensor", "hyperspec.hypergraph", "adjacency_tensor"),
    Boundary("hypergraph.canonical_form", "hyperspec.hypergraph", "canonical_form"),
    Boundary("hypergraph.is_isomorphic", "hyperspec.hypergraph", "is_isomorphic"),
    Boundary("hypergraph.count_simplices", "hyperspec.hypergraph", "count_simplices", True),
    Boundary("hypergraph.from_bitmask", "hyperspec.hypergraph", "from_bitmask", True),
    Boundary("parallel.pmap", "hyperspec.parallel", "pmap"),
)

# (name, unit); every value is per op of the traced pass unless the unit
# says it is a ratio or a mean
PER_LAYER_METRICS = (
    ("modular.det_mod_calls", "1/op"),
    ("modular.det_mod_s", "s/op"),
    ("modular.elim_ops", "1/op"),
    ("modular.elim_ops_per_s", "1/s"),
    ("modular.crt_calls", "1/op"),
    ("modular.crt_s", "s/op"),
    ("determinants.calls", "1/op"),
    ("determinants.s", "s/op"),
    ("determinants.self_s", "s/op"),
    ("determinants.bareiss_calls", "1/op"),
    ("determinants.bareiss_s", "s/op"),
    ("determinants.modular_calls", "1/op"),
    ("determinants.dim_mean", "rows"),
    ("determinants.primes_per_det", "primes"),
    ("determinants.modulus_use_ratio", "ratio"),
    ("spectra.char_poly_calls", "1/op"),
    ("spectra.char_poly_s", "s/op"),
    ("spectra.e_char_poly_calls", "1/op"),
    ("spectra.e_char_poly_s", "s/op"),
    ("spectra.det_tensor_calls", "1/op"),
    ("spectra.det_tensor_s", "s/op"),
    ("spectra.det_tensor_refusals", "1/op"),
    ("spectra.self_s", "s/op"),
    ("spectra.ladder_rungs", "1/op"),
    ("spectra.divisor_dets", "1/op"),
    ("spectra.degenerate_points", "1/op"),
    ("spectra.point_overshoot", "ratio"),
    ("macaulay.structure_calls", "1/op"),
    ("macaulay.structure_s", "s/op"),
    ("macaulay.resultant_value_calls", "1/op"),
    ("macaulay.resultant_value_s", "s/op"),
    ("polynomial.interpolate_calls", "1/op"),
    ("polynomial.interpolate_points", "1/op"),
    ("polynomial.interpolate_s", "s/op"),
    ("polynomial.normalized_s", "s/op"),
    ("tensor.mat_sim_calls", "1/op"),
    ("tensor.mat_sim_s", "s/op"),
    ("hypergraph.adjacency_tensor_calls", "1/op"),
    ("hypergraph.adjacency_tensor_s", "s/op"),
    ("hypergraph.canonical_form_calls", "1/op"),
    ("hypergraph.canonical_form_s", "s/op"),
    ("hypergraph.count_simplices_calls", "1/op"),
    ("hypergraph.count_simplices_s", "s/op"),
    ("hypergraph.from_bitmask_calls", "1/op"),
    ("hypergraph.from_bitmask_s", "s/op"),
    ("hypergraph.is_isomorphic_calls", "1/op"),
    ("hypergraph.is_isomorphic_s", "s/op"),
    ("analysis.get_char_calls", "1/op"),
    ("analysis.cache_hit_ratio", "ratio"),
    ("analysis.self_s", "s/op"),
    ("analysis.checkpoint_saves", "1/op"),
    ("analysis.checkpoint_save_s", "s/op"),
    ("analysis.checkpoint_load_s", "s/op"),
    ("switching.calls", "1/op"),
    ("switching.s", "s/op"),
    ("parallel.pmap_items", "1/op"),
    ("parallel.pmap_s", "s/op"),
    ("cli.calls", "1/op"),
    ("cli.self_s", "s/op"),
    ("trace.overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
    # the median op time of the untraced pass.  On search it falls among
    # verify-switch ops of a few tens of milliseconds, which speed swings
    # of a shared 2-vCPU VM move by up to a quarter between runs, too much
    # for an end-to-end bound.
    ("op_p50_s", "s"),
)


class _Frame:
    __slots__ = ("label", "caller", "start", "child", "parent", "index", "info")

    def __init__(self, label, caller, start, parent, index):
        self.label = label
        self.caller = caller
        self.start = start
        self.child = 0.0
        self.parent = parent
        self.index = index
        self.info: dict[str, Any] = {}


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hyperspec" or name.startswith("hyperspec."))]


def _owner(b: Boundary):
    """(object holding the attribute, attribute name) for a boundary."""
    module = sys.modules.get(b.module)
    if module is None:
        return None, None
    if "." in b.name:
        cls_name, attr = b.name.split(".", 1)
        return getattr(module, cls_name, None), attr
    return module, b.name


class Tracer:
    """Installs wrappers, records spans and counters, and restores the names."""

    def __init__(self) -> None:
        # span: (label, start, end, parent index or -1, caller module, self s)
        self.spans: list[tuple[str, float, float, int, str, float]] = []
        self.counts: dict[str, int] = {}
        self.times: dict[str, float] = {}
        self.tally: dict[str, float] = {}
        self._stack: list[_Frame] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        assert_clean()
        for b in BOUNDARIES:
            holder, attr = _owner(b)
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                if b.label not in self.missing:
                    self.missing.append(b.label)
                continue
            if holder is not sys.modules.get(b.module):
                # a method: one binding, on its class
                self._bind(holder, attr, original, self._wrap(b, original, b.module))
                continue
            for module in _modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, name, original,
                                   self._wrap(b, original, module.__name__))

    def _bind(self, holder, name, original, wrapper) -> None:
        self._restore.append((holder, name, original))
        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()
        assert_clean()

    # -- recording ---------------------------------------------------------------------

    def _wrap(self, b: Boundary, fn: Callable, caller: str) -> Callable:
        label = b.label
        stack = self._stack
        counts, times = self.counts, self.times
        if b.counter:
            def counted(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    counts[label] = counts.get(label, 0) + 1
                    times[label] = times.get(label, 0.0) + dt
                    if stack:
                        stack[-1].child += dt
            setattr(counted, _MARK, True)
            return counted

        hook = _HOOKS.get(label)
        tracer = self

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(label, caller, perf_counter(), parent, len(tracer.spans))
            tracer.spans.append(None)  # reserve the index so children point here
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame.start
                if parent is not None:
                    parent.child += dur
                tracer.spans[frame.index] = (
                    label, frame.start, end,
                    parent.index if parent is not None else -1,
                    caller, dur - frame.child,
                )
                counts[label] = counts.get(label, 0) + 1
                if hook is not None:
                    hook(tracer, frame, args, result, error)
        setattr(spanned, _MARK, True)
        return spanned

    def add(self, key: str, value: float) -> None:
        self.tally[key] = self.tally.get(key, 0.0) + value

    # -- results ---------------------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for label, start, end, parent, caller, _ in self.spans:
                fh.write(json.dumps([label, start, end, parent, caller]) + "\n")
            fh.write(json.dumps({"counters": self.counts, "counter_s": self.times}) + "\n")

    def metrics(self, ops: int) -> tuple[dict[str, float], dict[str, float]]:
        """(per-layer metrics, seconds per op of each layer's outermost spans)."""
        spans = self.spans
        inclusive: dict[str, float] = {}  # per label, outermost spans of the label
        layer_s: dict[str, float] = {}  # per layer, outermost spans of the layer
        layer_self: dict[str, float] = {}
        label_self: dict[str, float] = {}
        for label, start, end, parent, caller, self_s in spans:
            layer = label.split(".", 1)[0]
            dur = end - start
            ancestor_labels, ancestor_layers = set(), set()
            p = parent
            while p >= 0:
                ancestor_labels.add(spans[p][0])
                ancestor_layers.add(spans[p][0].split(".", 1)[0])
                p = spans[p][3]
            if label not in ancestor_labels:
                inclusive[label] = inclusive.get(label, 0.0) + dur
            if layer not in ancestor_layers:
                layer_s[layer] = layer_s.get(layer, 0.0) + dur
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
            label_self[label] = label_self.get(label, 0.0) + self_s
        # in these workloads counted calls come from other layers' spans
        for label, t in self.times.items():
            layer = label.split(".", 1)[0]
            inclusive[label] = t
            layer_s[layer] = layer_s.get(layer, 0.0) + t
            layer_self[layer] = layer_self.get(layer, 0.0) + t

        n = self.counts.get
        s = inclusive.get
        t = self.tally.get
        per = 1.0 / max(ops, 1)

        def ratio(num, den):
            return num / den if den else 0.0

        det_calls = n("determinants.det_exact_int", 0) + n("determinants.det_exact", 0)
        modular_calls = n("determinants.modular", 0)
        interp_points = t("interpolate_points", 0.0)
        get_char = n("analysis.get_char", 0)
        out = {
            "modular.det_mod_calls": n("modular.det_mod", 0) * per,
            "modular.det_mod_s": s("modular.det_mod", 0.0) * per,
            "modular.elim_ops": t("elim_ops", 0.0) * per,
            "modular.elim_ops_per_s": ratio(t("elim_ops", 0.0), s("modular.det_mod", 0.0)),
            "modular.crt_calls": n("modular.crt", 0) * per,
            "modular.crt_s": s("modular.crt", 0.0) * per,
            "determinants.calls": det_calls * per,
            "determinants.s": layer_s.get("determinants", 0.0) * per,
            "determinants.self_s": layer_self.get("determinants", 0.0) * per,
            "determinants.bareiss_calls": n("determinants.bareiss", 0) * per,
            "determinants.bareiss_s": s("determinants.bareiss", 0.0) * per,
            "determinants.modular_calls": modular_calls * per,
            "determinants.dim_mean": ratio(t("det_dims", 0.0), det_calls),
            "determinants.primes_per_det": ratio(n("modular.det_mod", 0), modular_calls),
            "determinants.modulus_use_ratio": ratio(t("det_bits", 0.0), t("modulus_bits", 0.0)),
            "spectra.char_poly_calls": n("spectra.char_poly", 0) * per,
            "spectra.char_poly_s": s("spectra.char_poly", 0.0) * per,
            "spectra.e_char_poly_calls": n("spectra.e_char_poly", 0) * per,
            "spectra.e_char_poly_s": s("spectra.e_char_poly", 0.0) * per,
            "spectra.det_tensor_calls": n("spectra.det_tensor", 0) * per,
            "spectra.det_tensor_s": s("spectra.det_tensor", 0.0) * per,
            "spectra.det_tensor_refusals": t("det_tensor_refusals", 0.0) * per,
            "spectra.self_s": layer_self.get("spectra", 0.0) * per,
            "spectra.ladder_rungs": t("ladder_rungs", 0.0) * per,
            "spectra.divisor_dets": t("divisor_dets", 0.0) * per,
            "spectra.degenerate_points": t("degenerate_points", 0.0) * per,
            "spectra.point_overshoot": ratio(interp_points, t("output_coeffs", 0.0)),
            "macaulay.structure_calls": n("macaulay.structure", 0) * per,
            "macaulay.structure_s": s("macaulay.structure", 0.0) * per,
            "macaulay.resultant_value_calls": n("macaulay.resultant_value", 0) * per,
            "macaulay.resultant_value_s": s("macaulay.resultant_value", 0.0) * per,
            "polynomial.interpolate_calls": n("polynomial.interpolate", 0) * per,
            "polynomial.interpolate_points": interp_points * per,
            "polynomial.interpolate_s": s("polynomial.interpolate", 0.0) * per,
            "polynomial.normalized_s": s("polynomial.normalized", 0.0) * per,
            "tensor.mat_sim_calls": n("tensor.mat_sim", 0) * per,
            "tensor.mat_sim_s": s("tensor.mat_sim", 0.0) * per,
            "analysis.get_char_calls": get_char * per,
            "analysis.cache_hit_ratio": ratio(t("cache_hits", 0.0), get_char),
            "analysis.self_s": layer_self.get("analysis", 0.0) * per,
            "analysis.checkpoint_saves": n("analysis.save_checkpoint", 0) * per,
            "analysis.checkpoint_save_s": s("analysis.save_checkpoint", 0.0) * per,
            "analysis.checkpoint_load_s": s("analysis.load_checkpoint", 0.0) * per,
            "switching.calls": sum(
                v for k, v in self.counts.items() if k.startswith("switching.")
            ) * per,
            "switching.s": layer_s.get("switching", 0.0) * per,
            "parallel.pmap_items": t("pmap_items", 0.0) * per,
            # self time: the pool's own cost, not the work it maps
            "parallel.pmap_s": label_self.get("parallel.pmap", 0.0) * per,
            "cli.calls": n("cli.main", 0) * per,
            "cli.self_s": layer_self.get("cli", 0.0) * per,
        }
        for name in ("adjacency_tensor", "canonical_form", "count_simplices",
                     "from_bitmask", "is_isomorphic"):
            out[f"hypergraph.{name}_calls"] = n(f"hypergraph.{name}", 0) * per
            out[f"hypergraph.{name}_s"] = s(f"hypergraph.{name}", 0.0) * per
        return out, {k: v * per for k, v in layer_s.items()}


# --- per-boundary hooks: counts that need arguments or results -------------------


def _det_mod(tr: Tracer, frame, args, result, error) -> None:
    n = args[0].shape[0]
    tr.add("elim_ops", n ** 3 / 3)


def _det_entry(tr: Tracer, frame, args, result, error) -> None:
    tr.add("det_dims", len(args[0]))
    if frame.parent is not None and frame.parent.label == "spectra.eval_point":
        frame.parent.info["dets"] = frame.parent.info.get("dets", 0) + 1


def _det_modular(tr: Tracer, frame, args, result, error) -> None:
    if error is None and "modulus_bits" in frame.info:
        tr.add("det_bits", (abs(result) + 1).bit_length())
        tr.add("modulus_bits", frame.info["modulus_bits"])


def _primes(tr: Tracer, frame, args, result, error) -> None:
    if error is None and frame.parent is not None:
        product = 1
        for p in result:
            product *= p
        frame.parent.info["modulus_bits"] = product.bit_length()


def _eval_point(tr: Tracer, frame, args, result, error) -> None:
    if frame.info.get("dets"):
        tr.add("divisor_dets", 1)
    if error is None and result is None:
        tr.add("degenerate_points", 1)


def _structure(tr: Tracer, frame, args, result, error) -> None:
    if frame.caller == "hyperspec.spectra":
        tr.add("ladder_rungs", 1)


def _polynomial_out(tr: Tracer, frame, args, result, error) -> None:
    if error is None and result is not None and not result.is_zero():
        tr.add("output_coeffs", result.degree + 1)


def _det_tensor(tr: Tracer, frame, args, result, error) -> None:
    if error is not None:
        tr.add("det_tensor_refusals", 1)


def _interpolate(tr: Tracer, frame, args, result, error) -> None:
    tr.add("interpolate_points", len(args[0]))


def _get_char(tr: Tracer, frame, args, result, error) -> None:
    # a miss computes a polynomial inside the call; a hit returns at once
    if error is None and not frame.info.get("computed"):
        tr.add("cache_hits", 1)


def _char_poly(tr: Tracer, frame, args, result, error) -> None:
    _polynomial_out(tr, frame, args, result, error)
    if frame.parent is not None and frame.parent.label == "analysis.get_char":
        frame.parent.info["computed"] = True


def _pmap(tr: Tracer, frame, args, result, error) -> None:
    tr.add("pmap_items", len(args[1]))


_HOOKS = {
    "modular.det_mod": _det_mod,
    "determinants.det_exact_int": _det_entry,
    "determinants.det_exact": _det_entry,
    "determinants.modular": _det_modular,
    "modular.primes": _primes,
    "spectra.eval_point": _eval_point,
    "macaulay.structure": _structure,
    "spectra.char_poly": _char_poly,
    "spectra.e_char_poly": _polynomial_out,
    "spectra.det_tensor": _det_tensor,
    "polynomial.interpolate": _interpolate,
    "analysis.get_char": _get_char,
    "parallel.pmap": _pmap,
}


def assert_clean() -> None:
    """Raise if any hyperspec module or class still holds a wrapper."""
    for module in _modules():
        for name, value in vars(module).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"{module.__name__}.{name} is still wrapped")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        raise RuntimeError(
                            f"{module.__name__}.{name}.{attr} is still wrapped"
                        )
