"""Outside-in tracer: timing wrappers around the names the library looks up.

``analyze`` and ``cmd_snf`` find their helpers as module globals (or class
attributes) at call time, so replacing those attributes routes every call
through a wrapper without touching the library's source.  Each span lists
the lookup sites it wraps.  A site that no longer exists leaves its span
absent: its time then falls into the caller's self time and the run goes on.

Spans nest through a stack.  A span's self time is its duration minus the
durations of the spans it called; the time of an op not covered by any span
is ``unattributed``.  Counts (SNF sizes, bit lengths, report methods) are
taken from arguments and return values after the span's clock stops, and
the time they take is removed from the trace clock, so they cost no span
anything.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from collections import defaultdict

# span name -> (module, attribute path) lookup sites.  Order is report order.
SPANS = {
    "graphs.group_build": [("k0lab.graphs", "CayleySpec.cyclic"),
                           ("k0lab.graphs", "CayleySpec.dihedral")],
    "graphs.cayley_build": [("k0lab.k0", "build_cayley")],
    "graphs.matrix": [("k0lab.graphs", "DirectedMultigraph.i_minus_at")],
    "graphs.connectivity": [("k0lab.k0", "is_strongly_connected"),
                            ("k0lab.classify", "is_strongly_connected")],
    "graphs.pis": [("k0lab.k0", "is_purely_infinite_simple"),
                   ("k0lab.classify", "is_purely_infinite_simple")],
    "circulant.det": [("k0lab.circulant", "cayley_det")],
    "zmatrix.snf_left": [("k0lab.k0", "_snf_with_left_transform")],
    "zmatrix.snf_diag": [("k0lab.k0", "snf_diagonal")],
    "zmatrix.mat_pow": [("k0lab.k0", "mat_pow")],
    "zmatrix.det": [("k0lab.k0", "det"), ("k0lab.cli", "det")],
    "zmatrix.snf_full": [("k0lab.cli", "snf")],
    "zmatrix.cokernel": [("k0lab.cli", "cokernel"), ("k0lab.k0", "cokernel")],
    "k0.analyze": [("k0lab.k0", "analyze"), ("k0lab.cli", "analyze")],
    "k0.companion": [("k0lab.k0", "companion_matrix")],
    "k0.validate": [("k0lab.k0", "_validate_report")],
    "k0.to_json": [("k0lab.k0", "K0Report.to_json")],
    "classify.classify": [("k0lab.classify", "classify_report")],
    "cli.main": [("k0lab.cli", "main")],
    "cli.parse": [("k0lab.cli", "read_matrix")],
}

# Counts computed from a span's arguments and result.
SNF_SPANS = ("zmatrix.snf_left", "zmatrix.snf_diag", "zmatrix.snf_full", "zmatrix.cokernel")
BITS_SPANS = SNF_SPANS + ("zmatrix.mat_pow",)
METHODS = {"both": "both", "companion_reduction": "companion", "full_snf": "full"}


def max_bits(obj) -> int:
    """Largest bit length of any entry inside obj: ints, sequences, matrices
    (``entries``), groups (``torsion``) and dataclasses holding them."""
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, (list, tuple)):
        if obj and isinstance(obj[0], int):
            return max(abs(min(obj)), abs(max(obj))).bit_length()
        return max((max_bits(x) for x in obj), default=0)
    for attr in ("entries", "torsion"):
        if hasattr(obj, attr):
            return max_bits(getattr(obj, attr))
    if dataclasses.is_dataclass(obj):
        return max((max_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.active = False
        self.counting = False  # take counts for the current op
        self.excluded = 0.0  # seconds of count-taking removed from the trace clock
        self.stack: list[list[float]] = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.op_s = 0.0
        self.unattributed_s = 0.0
        self.ops = 0
        self.counted_ops = 0
        self.counts = defaultdict(int)
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        return time.perf_counter() - self.excluded

    # -- installing wrappers -------------------------------------------------

    def install(self):
        self.absent = []
        for span, sites in SPANS.items():
            wrapped = [self._wrap_site(span, module, path) for module, path in sites]
            if not any(wrapped):
                self.absent.append(span)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_site(self, span: str, module_name: str, path: str) -> bool:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return False
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(span, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(span, raw.__func__))
        elif callable(raw):
            new = self._wrap(span, raw)
        else:
            return False
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)
        return True

    def _wrap(self, span: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer.stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - start
                tracer.stack.pop()
                tracer.self_s[span] += elapsed - frame[0]
                tracer.calls[span] += 1
                tracer.stack[-1][0] += elapsed
            if tracer.counting:
                t0 = time.perf_counter()
                tracer._count(span, args, result)
                tracer.excluded += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-op bracketing ---------------------------------------------------

    def run_op(self, fn, arg, counting: bool):
        """Run one op as the root span; returns its result."""
        self.active, self.counting = True, counting
        root = [0.0]
        self.stack = [root]
        start = self.clock()
        try:
            return fn(arg)
        finally:
            elapsed = self.clock() - start
            self.active = False
            self.op_s += elapsed
            self.unattributed_s += elapsed - root[0]
            self.ops += 1
            self.counted_ops += counting

    def _count(self, span: str, args, result):
        c = self.counts
        if span in SNF_SPANS and args:
            m = args[0]
            rows, cols = getattr(m, "rows", 0), getattr(m, "cols", 0)
            c["snf_calls"] += 1
            c["snf_cells"] += rows * cols
            c["snf_max_dim"] = max(c["snf_max_dim"], rows, cols)
        if span in BITS_SPANS:
            c["peak_bits"] = max(c["peak_bits"], max_bits(result))
        if span == "k0.analyze":
            method = METHODS.get(getattr(result, "method", None))
            if method is not None:
                c[f"method_{method}"] += 1
            if getattr(result, "k0", None) is not None:
                c["pis"] += 1

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: per-op span times over all traced ops, counts over the counted ops."""
        ops = max(self.ops, 1)
        counted = max(self.counted_ops, 1)
        out = {}
        for span in SPANS:
            out[f"{span}.self_ms_per_op"] = (1e3 * self.self_s[span] / ops, "ms")
            out[f"{span}.calls_per_op"] = (self.calls[span] / ops, "calls/op")
        c = self.counts
        out["zmatrix.snf_calls_per_op"] = (c["snf_calls"] / counted, "calls/op")
        out["zmatrix.snf_cells_per_op"] = (c["snf_cells"] / counted, "cells/op")
        out["zmatrix.snf_max_dim"] = (c["snf_max_dim"], "rows")
        out["zmatrix.peak_bits"] = (c["peak_bits"], "bits")
        for method in METHODS.values():
            out[f"k0.method_{method}_frac"] = (c[f"method_{method}"] / counted, "ratio")
        out["k0.pis_frac"] = (c["pis"] / counted, "ratio")
        out["unattributed_ms_per_op"] = (1e3 * self.unattributed_s / ops, "ms")
        out["trace.op_ms_per_op"] = (1e3 * self.op_s / ops, "ms")
        out["trace.absent_spans"] = (len(self.absent), "count")
        return out
