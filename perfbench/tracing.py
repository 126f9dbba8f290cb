"""Per-layer tracing of addix, installed from outside the program.

``Tracer.install`` wraps the public functions and methods listed in TARGETS.
A module-level function is replaced in every addix module that binds it by
name (``maximal_decomposition`` lives in decompose but is also imported by
analysis, charsum, cli and verify) and in ``verify.ALL_SUITES``; a method is
replaced on its class.  Calls are recorded only inside a request, so input
generation and answer checks leave no trace.

Coarse calls are kept as spans (id, name, start, end, parent id, request
id) in memory and written out by ``write_spans``.  Hot calls (element-level
Horner scans, subspace reductions, character lookups) are too many to keep
one by one; they only add to per-name totals and to their parent's child
time, so self times stay exact.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN, AGG, COUNT = "span", "agg", "count"

# Layers whose spans set the context that Poly.eval time is charged to.
CONTEXT_LAYERS = ("decompose", "analysis", "charsum", "verify")

SUITE_FUNCTIONS = {
    "kernel-methods": "suite_kernel_methods",
    "decomposition-identity": "suite_decomposition_identity",
    "value-sets": "suite_value_sets",
    "pp-certificates": "suite_pp_certificates",
    "inverse-roundtrip": "suite_inverse_roundtrip",
    "cycle-theorems": "suite_cycle_theorems",
    "complement-commutation": "suite_complement_commutation",
    "character-bounds": "suite_character_bounds",
    "involution-translator": "suite_involution_translator",
    "fixed-regressions": "suite_fixed_regressions",
}


def _poly_terms(args):
    return len(args[0].coeffs)


def _band_pairs(args):
    d = args[0].degree
    return d * (d - 1) // 2 if d > 1 else 0


# (metric prefix, module, attribute path, kind, extra counter or None)
TARGETS = [
    ("poly.eval", "addix.poly", "Poly.eval", AGG, _poly_terms),
    ("poly.mul", "addix.poly", "Poly.__mul__", AGG, None),
    ("poly.divmod", "addix.poly", "Poly.__divmod__", AGG, None),
    ("poly.compose", "addix.poly", "Poly.compose", AGG, None),
    ("poly.shift_arg", "addix.poly", "Poly.shift_arg", AGG, None),
    ("poly.gcd", "addix.poly", "poly_gcd", AGG, None),
    ("poly.shift_expand", "addix.poly", "shift_expand", SPAN, _band_pairs),
    ("poly.lagrange", "addix.poly", "lagrange_interpolate", SPAN, None),
    ("linearized.subspace", "addix.linearized", "Subspace.__init__", AGG, None),
    ("linearized.reduce", "addix.linearized", "Subspace.reduce", AGG, None),
    ("linearized.eval", "addix.linearized", "LinearizedPoly.eval", AGG, None),
    ("linearized.complement", "addix.linearized", "complement", AGG, None),
    ("linearized.coset_reps", "addix.linearized", "coset_reps", AGG, None),
    ("linearized.vanishing_poly", "addix.linearized", "vanishing_poly", AGG, None),
    ("linearized.expand_in_base", "addix.linearized", "expand_in_base", AGG, None),
    ("decompose.maximal_decomposition", "addix.decompose", "maximal_decomposition", SPAN, None),
    ("decompose.additive_kernel", "addix.decompose", "additive_kernel", SPAN, None),
    ("analysis.value_set_size", "addix.analysis", "value_set_size", SPAN, None),
    ("analysis.value_set_bounds", "addix.analysis", "value_set_bounds", SPAN, None),
    ("analysis.is_permutation", "addix.analysis", "is_permutation", SPAN, None),
    ("analysis.inverse_pp", "addix.analysis", "inverse_pp", SPAN, None),
    ("analysis.cycle_structure", "addix.analysis", "cycle_structure", SPAN, None),
    ("analysis.translation_pp", "addix.analysis", "translation_pp", SPAN, None),
    ("analysis.translator_pp", "addix.analysis", "translator_pp", SPAN, None),
    ("analysis.is_involution", "addix.analysis", "is_involution", SPAN, None),
    ("charsum.bound_report", "addix.charsum", "bound_report", SPAN, None),
    ("charsum.char_sum", "addix.charsum", "char_sum", SPAN, None),
    ("charsum.char_sum_affine", "addix.charsum", "char_sum_affine", AGG, None),
    ("charsum.chi", "addix.charsum", "MultChar.__call__", COUNT, None),
] + [(f"verify.{suite}", "addix.verify", fn, SPAN, None)
     for suite, fn in SUITE_FUNCTIONS.items()]


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, request)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.extra = defaultdict(int)
        self.eval_by_context = defaultdict(float)
        # frames: [span id, name, start, child time, context layer]
        self._stack: list[list] = []
        self._request = None
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- requests

    def begin(self, request_id: int):
        self._request = request_id
        self._stack.append([self._new_id(), "request", perf_counter(), 0.0, None])

    def end(self):
        span_id, name, start, _, _ = self._stack.pop()
        self.spans.append((span_id, name, start, perf_counter(), None, self._request))
        self._request = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- wrappers

    def _wrap(self, prefix: str, kind: str, extra, orig):
        stack = self._stack
        layer = prefix.split(".", 1)[0]
        charged_context = layer if layer in CONTEXT_LAYERS else None
        calls, extras = self.calls, self.extra

        if kind == COUNT:
            def counted(*args, **kwargs):
                if stack:
                    calls[prefix] += 1
                return orig(*args, **kwargs)
            return counted

        total, self_time = self.total, self.self_time
        eval_by_context = self.eval_by_context
        spans = self.spans
        is_eval = prefix == "poly.eval"

        def traced(*args, **kwargs):
            if not stack:
                return orig(*args, **kwargs)
            parent = stack[-1]
            context = charged_context or parent[4]
            span_id = self._new_id() if kind == SPAN else None
            frame = [span_id, prefix, perf_counter(), 0.0, context]
            stack.append(frame)
            try:
                return orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                parent[3] += duration
                total[prefix] += duration
                self_time[prefix] += duration - frame[3]
                calls[prefix] += 1
                if extra is not None:
                    extras[prefix] += extra(args)
                if is_eval and context is not None:
                    eval_by_context[context] += duration
                if span_id is not None:
                    spans.append((span_id, prefix, frame[2], end, parent[0], self._request))

        traced.__wrapped__ = orig
        return traced

    def install(self):
        """Wrap every target in place; ``uninstall`` puts the originals back."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "addix" or name.startswith("addix.")]
        suites = sys.modules["addix.verify"].ALL_SUITES
        for prefix, module, path, kind, extra in TARGETS:
            owner = sys.modules[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(prefix, kind, extra, orig), orig)
                continue
            orig = getattr(owner, path)
            wrapper = self._wrap(prefix, kind, extra, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, name, wrapper, orig)
            for name, value in list(suites.items()):
                if value is orig:
                    suites[name] = wrapper
                    self._restore.append((suites, name, orig, True))

    def _set(self, owner, name, wrapper, orig):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, orig, False))

    def uninstall(self):
        for owner, name, orig, is_dict in reversed(self._restore):
            if is_dict:
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._restore.clear()

    # -- results

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-layer totals keyed by metric name."""
        out: dict[str, float] = {}
        for prefix, _, _, kind, extra in TARGETS:
            out[f"{prefix}_calls"] = self.calls[prefix]
            if kind != COUNT:
                out[f"{prefix}_s"] = self.total[prefix]
                out[f"{prefix}_self_s"] = self.self_time[prefix]
        out["poly.eval_terms"] = self.extra["poly.eval"]
        out["poly.shift_expand_pairs"] = self.extra["poly.shift_expand"]
        for layer in CONTEXT_LAYERS:
            out[f"{layer}.eval_s"] = self.eval_by_context[layer]
        out["decompose.calls_per_request"] = (
            self.calls["decompose.maximal_decomposition"] / requests)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "request"), span))) + "\n")
