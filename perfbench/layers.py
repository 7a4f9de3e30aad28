"""Per-layer tracing from outside the package.

:class:`Tracer` wraps chosen public functions of the ``coholap`` modules
and records one span per call: layer, start, end and the span that caused
it.  A layer's self time is its spans' duration minus the part their child
spans cover.  ``pipeline`` and ``cli`` bind names such as ``evaluate`` and
``todd_coxeter`` at import, so every module attribute that holds a wrapped
function is replaced, not only the defining one; :meth:`Tracer.install`
fails if any binding of an original is left behind.

``certificates`` and ``textform`` are not traced: ``verify-cert`` runs in
milliseconds and no planned change touches either module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

MODULES = ("cli", "complexes", "cosets", "exact", "groupring", "pipeline",
           "spectral")

# (layer, module, attribute); two attributes may share a layer.
TARGETS = (
    ("cosets.todd_coxeter", "cosets", "todd_coxeter"),
    ("cosets.representation", "cosets", "Representation.__init__"),
    ("cosets.quotient_chain", "cosets", "quotient_chain"),
    ("complexes.build_laplacian", "complexes", "build_laplacian"),
    ("complexes.validate_chain_identity", "complexes",
     "validate_chain_identity"),
    ("spectral.evaluate", "spectral", "evaluate"),
    ("spectral.spectral_gap", "spectral", "spectral_gap"),
    ("spectral.lanczos_lowest", "spectral", "lanczos_lowest"),
    ("spectral.projection", "spectral", "kernel_projection"),
    ("spectral.projection", "spectral", "heat_projection"),
    ("exact.to_float", "exact", "to_float"),
    ("exact.is_symmetric", "exact", "is_symmetric"),
    ("exact.is_zero", "exact", "is_zero"),
    ("exact.matmul", "exact", "matmul"),
    ("pipeline.betti_report", "pipeline", "betti_report"),
    ("pipeline.higher_kazhdan_projection", "pipeline",
     "higher_kazhdan_projection"),
    ("pipeline.l2_betti_upper_bounds", "pipeline", "l2_betti_upper_bounds"),
    ("groupring.matrix_matmul", "groupring", "GroupRingMatrix.__matmul__"),
    ("cli", "cli", "main"),
)


def _count_todd_coxeter(counts, args, kwargs, table):
    counts["cosets.todd_coxeter.cosets"] += table.coset_count


def _count_representation(counts, args, kwargs, _result):
    counts["cosets.representation.dim_sum"] += (
        args[1] if len(args) > 1 else kwargs["dimension"])


def _count_quotient_chain(counts, args, kwargs, chain):
    counts["cosets.separation.words"] += chain.separation.words_checked


def _count_evaluate(counts, args, kwargs, op):
    counts["spectral.evaluate.dim_sum"] += op.rows
    counts["spectral.evaluate.nnz_sum"] += int(np.count_nonzero(op.shadow))
    counts["spectral.evaluate.square"] += op.rows == op.cols


def _count_spectral_gap(counts, args, kwargs, report):
    counts["spectral.spectral_gap.unresolved"] += not report.resolved


def _count_matmul(counts, args, kwargs, _result):
    a, b = args[0], args[1]
    counts["exact.matmul.mults"] += len(a) * len(b) * (len(b[0]) if b else 0)


def _count_upper_bounds(counts, args, kwargs, report):
    counts["pipeline.l2_betti_upper_bounds.terms"] += len(report.values)


COUNTERS = {
    "cosets.todd_coxeter": _count_todd_coxeter,
    "cosets.representation": _count_representation,
    "cosets.quotient_chain": _count_quotient_chain,
    "spectral.evaluate": _count_evaluate,
    "spectral.spectral_gap": _count_spectral_gap,
    "exact.matmul": _count_matmul,
    "pipeline.l2_betti_upper_bounds": _count_upper_bounds,
}

# Per-layer metrics reported by a traced run: (name, unit).
SELF_TIMES = ("cosets.todd_coxeter", "cosets.representation",
              "cosets.quotient_chain", "complexes.build_laplacian",
              "complexes.validate_chain_identity", "spectral.evaluate",
              "exact.to_float", "exact.is_symmetric", "exact.is_zero",
              "spectral.spectral_gap", "spectral.projection", "exact.matmul",
              "pipeline.betti_report", "pipeline.higher_kazhdan_projection",
              "pipeline.l2_betti_upper_bounds", "groupring.matrix_matmul",
              "cli")
CALLS = ("cosets.todd_coxeter", "complexes.build_laplacian",
         "complexes.validate_chain_identity", "spectral.evaluate",
         "spectral.spectral_gap", "spectral.lanczos_lowest",
         "spectral.projection", "exact.matmul", "pipeline.betti_report",
         "groupring.matrix_matmul")
COUNTS = ("cosets.todd_coxeter.cosets", "cosets.representation.dim_sum",
          "cosets.separation.words", "spectral.evaluate.dim_sum",
          "spectral.evaluate.nnz_sum", "spectral.spectral_gap.unresolved",
          "exact.matmul.mults", "pipeline.l2_betti_upper_bounds.terms",
          "cli.report_bytes")
METRICS = (
    [(f"{layer}.self_s", "s") for layer in SELF_TIMES]
    + [(f"{layer}.calls", "count") for layer in CALLS]
    + [(name, "count") for name in COUNTS]
    + [("spectral.spectral_gap.per_operator", "ratio")]
    + [(f"{module}.errors", "count") for module in MODULES]
)


def _resolve(owner, path: str):
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Tracer:
    """Spans and counts for the wrapped calls of one process."""

    def __init__(self):
        self.spans: list[list] = []      # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()

    def _wrap(self, layer: str, module: str, fn):
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [layer, time.perf_counter(), None, parent]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                self.calls[layer] += 1
            if counter is not None:
                # Counting is not the layer's work: a span with no layer
                # keeps its cost out of the caller's self time.
                start = time.perf_counter()
                counter(self.counts, args, kwargs, result)
                self.spans.append([None, start, time.perf_counter(), parent])
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it in every ``coholap`` module."""
        for name in MODULES:
            importlib.import_module(f"coholap.{name}")
        modules = [module for name, module in list(sys.modules.items())
                   if name == "coholap" or name.startswith("coholap.")]
        originals = []
        for layer, module, path in TARGETS:
            owner, name = _resolve(sys.modules[f"coholap.{module}"], path)
            original = getattr(owner, name)
            wrapper = self._wrap(layer, module, original)
            setattr(owner, name, wrapper)
            originals.append(original)
            if "." not in path:
                for other in modules:
                    if getattr(other, name, None) is original:
                        setattr(other, name, wrapper)
        for other in modules:
            for name, value in vars(other).items():
                if any(value is original for original in originals):
                    raise RuntimeError(
                        f"{other.__name__}.{name} still binds an untraced "
                        "function")

    def metrics(self) -> dict[str, float]:
        """Self time, calls, errors and counts of everything recorded."""
        self_s: Counter = Counter()
        for layer, start, end, _parent in self.spans:
            if layer is not None:
                self_s[layer] += end - start
        for _layer, start, end, parent in self.spans:
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out = {f"{layer}.self_s": float(self_s[layer]) for layer in SELF_TIMES}
        out.update({f"{layer}.calls": self.calls[layer] for layer in CALLS})
        out.update({name: self.counts[name] for name in COUNTS})
        square = self.counts["spectral.evaluate.square"]
        out["spectral.spectral_gap.per_operator"] = (
            self.calls["spectral.spectral_gap"] / square if square else 0.0)
        out.update({f"{module}.errors": self.errors[module]
                    for module in MODULES})
        return out
