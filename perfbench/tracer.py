"""Per-layer tracing from outside the program.

:func:`install` replaces the public functions of every ``sectorwb`` layer
module with timing wrappers, in the defining module and in every module that
re-imported the name (``classify.pf_dimensions``, ``catalog.validate_ring``,
...), so calls between and within layers are caught.  ``FusionRing``
construction and the arithmetic dunders of ``QuadExt`` are wrapped on the
class.  Private helpers stay unwrapped: ``_reduce_word`` alone runs about half
a million times in rho^3 and a wrapper there would measure itself.

Spans are not stored one by one; each wrapper adds to its name's call count
and self time (duration minus the time of the spans nested in it).  Durations
are kept for the names in :data:`DURATION_NAMES`, whose medians are reported.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

LAYERS = ("scalar", "fusion", "catalog", "angles", "wzw", "cuntz", "classify", "cli")
DURATION_NAMES = frozenset({"fusion.validate_ring", "fusion.decompose"})
SIZED_NAMES = frozenset({"fusion.validate_ring", "fusion.pf_dimensions"})  # by label count
QUAD_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__",
                "__lt__", "__le__", "__gt__", "__ge__")


def _normalize_counts(tracer, args, result):
    tracer.add("cuntz.normalize.terms_in", len(args[0]))
    tracer.add("cuntz.normalize.terms_out", len(result))


def _rho_counts(tracer, args, result):
    tracer.add("cuntz.rho_apply.terms_out", len(result))


COUNTERS = {"cuntz.normalize": _normalize_counts, "cuntz.rho_apply": _rho_counts}


class Tracer:
    """Call counts, self times, selected durations and named counters."""

    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.durations = {}
        self.by_labels = {}
        self.counts = {}
        self._stack = []
        self._patches = []

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn):
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        durations = self.durations.setdefault(name, []) if name in DURATION_NAMES else None
        by_labels = self.by_labels.setdefault(name, {}) if name in SIZED_NAMES else None
        counter = COUNTERS.get(name)
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter_ns() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += span
                calls[name] += 1
                self_ns[name] += span - children
                if durations is not None:
                    durations.append(span)
                if by_labels is not None:
                    by_labels.setdefault(str(len(args[0].labels)), []).append(span)
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the layer functions in every loaded ``sectorwb`` module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sectorwb" or n.startswith("sectorwb."))]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        fusion = sys.modules.get("sectorwb.fusion")
        if fusion is not None:
            cls = fusion.FusionRing
            self._patch(cls, "__init__", self.wrap("fusion.FusionRing", cls.__init__))
        scalar = sys.modules.get("sectorwb.scalar")
        if scalar is not None:
            cls = scalar.QuadExt
            for attr in QUAD_DUNDERS:
                self._patch(cls, attr, self.wrap("scalar.QuadExt", vars(cls)[attr]))
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- export / merge (the traced swb children write their totals) --------

    def dump(self) -> dict:
        return {"calls": self.calls, "self_ns": self.self_ns, "durations": self.durations,
                "by_labels": self.by_labels, "counts": self.counts}

    def merge(self, doc: dict):
        for name, n in doc["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + n
        for name, ns in doc["self_ns"].items():
            self.self_ns[name] = self.self_ns.get(name, 0) + ns
        for name, spans in doc["durations"].items():
            self.durations.setdefault(name, []).extend(spans)
        for name, sizes in doc["by_labels"].items():
            for size, spans in sizes.items():
                self.by_labels.setdefault(name, {}).setdefault(size, []).extend(spans)
        for name, value in doc["counts"].items():
            self.add(name, value)
