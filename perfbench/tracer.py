"""Span tracing of hhdx's public entry points, installed from outside.

``Tracer.install()`` replaces each entry point listed in ``LAYERS`` with a
wrapper that records a span (name, start, end, parent span, report id).  A
wrapped name is replaced wherever it is bound: on its class, or in every
``hhdx`` module namespace that imported it (``hhdx.cli.operator_window_koszul``
as well as ``hhdx.hochschild.operator_window_koszul``).  The elimination
kernel ``linalg._rref`` gets a counter hook but no span, so elimination work
(shapes, nonzeros, ranks) is counted where it happens.

Spans are kept in memory and written out by ``save``.  Self time (a span's
duration minus the time its child spans cover) and call counts are folded
per layer as spans close, so ``layer_metrics`` needs no second pass.
Tracing is single-threaded: the benchmark runs with ``HHDX_THREADS`` unset.
"""

from __future__ import annotations

import importlib
import time
import weakref
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("gfp", "poly", "dpdo", "linalg", "hochschild", "gs", "tower", "cli")

# layer -> entry points as "module:qualname"
LAYERS = {
    "linalg.elim": ["linalg:FpMatrix.rref", "linalg:FpMatrix.rank",
                    "linalg:FpMatrix.kernel_basis", "linalg:FpMatrix.image_basis",
                    "linalg:Subspace.__init__", "linalg:Subspace.sum",
                    "linalg:Subspace.intersect", "linalg:Subspace.quotient_reps"],
    "linalg.reduce": ["linalg:Subspace.reduce", "linalg:Subspace.reduce_rows",
                      "linalg:Subspace.contains", "linalg:Subspace.contains_space",
                      "linalg:Subspace.express"],
    "linalg.matmul": ["linalg:FpMatrix.__matmul__"],
    "linalg.total": ["linalg:DoubleComplex.total_differential",
                     "linalg:DoubleComplex.totalize"],
    "linalg.cohomology": ["linalg:CochainComplex.cohomology", "linalg:cohomology_at"],
    "linalg.spectral": ["linalg:DoubleComplex.spectral_sequence",
                        "linalg:DoubleComplex.infinity_page",
                        "linalg:DoubleComplex.convergence_check"],
    "dpdo.operator_matrix": ["dpdo:TruncatedOperatorModule.operator_matrix",
                             "dpdo:TruncatedOperatorModule.commutator_matrix"],
    "dpdo.mul": ["dpdo:DPDOperator.__mul__"],
    "dpdo.realize": ["dpdo:matrix_realize", "dpdo:morita_compress"],
    "gfp.binom": ["gfp:lucas_binomial", "gfp:binomial_mod"],
    "poly.mul": ["poly:MultiPoly.__mul__"],
    "tower.elliptic": ["tower:elliptic_frobenius_report",
                       "tower:elliptic_frobenius_module_check"],
    "hochschild.koszul": ["hochschild:operator_window_koszul",
                          "hochschild:koszul_commutator_complex"],
    "hochschild.bar": ["hochschild:bar_differential_matrix", "hochschild:bar_complex",
                       "hochschild:hochschild_cohomology"],
    "hochschild.cup": ["hochschild:cup_product"],
    "gs.complex": ["gs:GSComplex.__init__", "gs:gs_for_subalgebra_scenario"],
    "gs.cup": ["gs:GSComplex.cup"],
    "gs.nerve": ["gs:SpaceDiagram.nerve_complex", "gs:SpaceDiagram.cech_complex"],
    "tower.limit": ["tower:Tower.limit_report", "tower:proper_tower_report"],
    "tower.sequence": ["tower:filtered_hh_sequence", "tower:smith_tower_check"],
    "cli.report": ["cli:build_report", "cli:render_json"],
    # root span of every report; its self time is argument parsing, scenario
    # glue and every function outside the entry points above
    "cli.main": ["cli:main"],
}

# layers whose call count is reported (outermost calls within the layer)
COUNTED = ("linalg.reduce", "linalg.matmul", "linalg.cohomology", "linalg.spectral",
           "dpdo.operator_matrix", "dpdo.mul", "gfp.binom", "poly.mul",
           "hochschild.bar", "tower.limit")


def _resolve(spec):
    module_name, qualname = spec.split(":")
    module = importlib.import_module(f"hhdx.{module_name}")
    owner, _, attr = qualname.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, attr


class Tracer:
    def __init__(self):
        self.names = []
        self.name_layer = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_report = array("i")
        self.report_id = -1
        self._stack = []  # frames [span index, layer, time covered by children]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.elim = {"calls": 0, "entries": 0, "nnz": 0, "rank": 0, "min_dim": 0,
                     "max_entries": 0}
        self.operator_cols = 0
        self.spectral_builds = 0
        self.spectral_pages = 0
        self._complexes = weakref.WeakSet()
        self.spectral_complexes = 0
        self._installed = []

    # -- spans -------------------------------------------------------------------

    def _wrap(self, name, layer, func, after=None):
        name_id = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_report.append(self.report_id)
            self.span_end.append(0.0)
            frame = [index, layer, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                duration = end - start
                self.self_s[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if parent is None or parent[1] != layer:
                    self.calls[layer] += 1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__qualname__ = getattr(func, "__qualname__", name)
        traced.__doc__ = func.__doc__
        return traced

    def _count_rref(self, func):
        elim = self.elim

        def counted(a, p):
            rows, pivots = func(a, p)
            arr = np.asarray(a)
            if arr.ndim == 2:
                nrows, ncols = arr.shape
                entries = nrows * ncols
                elim["calls"] += 1
                elim["entries"] += entries
                elim["nnz"] += int(np.count_nonzero(np.mod(arr, p)))
                elim["rank"] += len(pivots)
                elim["min_dim"] += min(nrows, ncols)
                elim["max_entries"] = max(elim["max_entries"], entries)
            return rows, pivots

        counted.__wrapped__ = func
        return counted

    def _after_operator_matrix(self, args, result):
        if not self._stack or self._stack[-1][1] != "dpdo.operator_matrix":
            self.operator_cols += result.cols

    def _after_spectral_sequence(self, args, result):
        complex_ = args[0]
        self.spectral_builds += 1
        self.spectral_pages += len(result)
        if complex_ not in self._complexes:
            self._complexes.add(complex_)
            self.spectral_complexes += 1

    # -- installation --------------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace original wherever an hhdx module or class binds it."""
        for module_name in MODULES:
            module = importlib.import_module(f"hhdx.{module_name}")
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._installed.append((module, attr, original))
                elif isinstance(value, type) and value.__module__.startswith("hhdx."):
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            setattr(value, cattr, replacement)
                            self._installed.append((value, cattr, original))

    def install(self):
        after = {
            "dpdo:TruncatedOperatorModule.operator_matrix": self._after_operator_matrix,
            "dpdo:TruncatedOperatorModule.commutator_matrix": self._after_operator_matrix,
            "linalg:DoubleComplex.spectral_sequence": self._after_spectral_sequence,
        }
        for layer, specs in LAYERS.items():
            for spec in specs:
                holder, attr = _resolve(spec)
                original = vars(holder)[attr]
                self._rebind(original, self._wrap(spec.replace(":", "."), layer,
                                                  original, after.get(spec)))
        linalg = importlib.import_module("hhdx.linalg")
        self._rebind(linalg._rref, self._count_rref(linalg._rref))

    def uninstall(self):
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    # -- results ------------------------------------------------------------------

    def root_seconds(self):
        """Total duration of the spans that have no parent."""
        starts = np.frombuffer(self.span_start, dtype=np.float64)
        ends = np.frombuffer(self.span_end, dtype=np.float64)
        roots = np.frombuffer(self.span_parent, dtype=np.int32) < 0
        return float((ends[roots] - starts[roots]).sum())

    def layer_metrics(self):
        """Per-layer totals of the traced reports, keyed by metric name."""
        out = {f"{layer}.s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        for layer in COUNTED:
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        elim = self.elim
        out.update({
            "linalg.elim.calls": elim["calls"],
            "linalg.elim.entries": elim["entries"],
            "linalg.elim.bytes_computed": 8 * elim["entries"],
            "linalg.elim.max_entries": elim["max_entries"],
            "linalg.elim.density": elim["nnz"] / elim["entries"] if elim["entries"] else 0.0,
            "linalg.elim.rank_ratio": elim["rank"] / elim["min_dim"] if elim["min_dim"] else 0.0,
            "dpdo.operator_matrix.cols": self.operator_cols,
            "linalg.spectral.pages": self.spectral_pages,
            "linalg.spectral.calls_per_complex": (
                self.spectral_builds / self.spectral_complexes
                if self.spectral_complexes else 0.0),
        })
        return out

    def save(self, path):
        """Write the spans as arrays (one row per span) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_layer=np.array(self.name_layer),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            report=np.frombuffer(self.span_report, dtype=np.int32),
        )
