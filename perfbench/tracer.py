"""Spans around the layers of ``outgrowth``, installed from outside the package.

Every named function is replaced by a wrapper on every module binding that
holds it (``reduce_path``, ``rescale_family``, ``lipschitz_constant`` and
``classify_turns`` are imported by name into other modules), methods are
replaced on their class, and the click command callbacks of ``outgrowth.cli``
are wrapped so that their self time is argument handling, record building
and JSON emission.  A span is (layer, start, end, parent) plus up to two work
counts read from the call's arguments and return value.  Spans stay in
flat in-memory arrays until the run ends; ``summarize`` turns a set of
them into per-layer calls, self time and work counts, where self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

CLI_COMMANDS = ("analyze", "growth", "displacement", "verify", "bound", "sweep")


def _len_result(args, kwargs, result):
    return len(result)


def _steps_out(args, kwargs, result):
    return len(result.steps)


# layer name -> (module, attribute path, ((stat, extractor), ...))
LAYERS = {
    "free_product.Automorphism.apply": (
        "free_product", "Automorphism.apply",
        (("syllables", lambda a, k, r: len(r.syllables)),)),
    "free_product.relative_conjugacy_length": ("free_product", "relative_conjugacy_length", ()),
    "graph_of_groups.MarkedMetricGraph.loop_of_element": (
        "graph_of_groups", "MarkedMetricGraph.loop_of_element", (("darts", _steps_out),)),
    "graph_of_groups.cyclically_reduce": ("graph_of_groups", "cyclically_reduce", ()),
    "graph_of_groups.reduce_path": (
        "graph_of_groups", "reduce_path",
        (("darts_in", lambda a, k, r: len(a[0].steps)), ("darts_out", _steps_out))),
    "graph_map.TopologicalRepresentative.map_path": (
        "graph_map", "TopologicalRepresentative.map_path", (("darts", _steps_out),)),
    "legality.verify_rtt": (
        "legality", "verify_rtt",
        (("paths_checked", lambda a, k, r: sum(v.paths_checked or 0 for v in r)),)),
    "legality.verify_train_track": ("legality", "verify_train_track", ()),
    "graph_map.verify_representative": ("graph_map", "verify_representative", ()),
    "graph_map.stratify": ("graph_map", "stratify", ()),
    "graph_map.pf_eigen": (
        "graph_map", "pf_eigen", (("block_edges", lambda a, k, r: len(r[1])),)),
    "legality.classify_turns": ("legality", "classify_turns", (("turns", _len_result),)),
    "legality.derivative_turn": ("legality", "derivative_turn", ()),
    "graph_map.rescale_family": ("graph_map", "rescale_family", ()),
    "dynamics.lipschitz_constant": ("dynamics", "lipschitz_constant", ()),
    "graph_map.r_length": ("graph_map", "r_length", ()),
    "dynamics.coefficient_matrix": ("dynamics", "coefficient_matrix", ()),
    "dynamics.bound_check": ("dynamics", "bound_check", ()),
    "legality.find_r_legal_hyperbolic": ("legality", "find_r_legal_hyperbolic", ()),
    # construction runs the basis search; element_of_loop is the inversion itself
    "graph_of_groups.MarkingInverter": (
        "graph_of_groups", "MarkingInverter.__init__|MarkingInverter.element_of_loop", ()),
    "dynamics.growth_sequence": (
        "dynamics", "growth_sequence", (("iterations", lambda a, k, r: r.iterations),)),
    "dynamics.displacement_bracket": ("dynamics", "displacement_bracket", ()),
    "document.parse_document": (
        "document", "parse_document", (("bytes", lambda a, k, r: len(a[0].encode())),)),
}
LAYERS.update({f"cli.{c}": ("cli", f"main.commands.{c}.callback", ()) for c in CLI_COMMANDS})


def _layer_metrics():
    """(layer index, metric name, unit, which total) for every reported metric."""
    for i, (layer, (_, _, stats)) in enumerate(LAYERS.items()):
        if not layer.startswith("cli."):  # a command runs once per operation
            yield i, f"{layer}.calls", "count", "calls"
        yield i, f"{layer}.self_s", "s", "self_s"
        for k, (stat, _) in enumerate(stats):
            yield i, f"{layer}.{stat}", "bytes" if stat == "bytes" else "count", k


def metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every layer metric the traced run reports."""
    return [(name, unit) for _, name, unit, _ in _layer_metrics()]


class Tracer:
    """Span recorder; ``install`` puts the wrappers in, ``uninstall`` takes them out."""

    def __init__(self):
        self.names = list(LAYERS)
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = (array("q"), array("q"))
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    def _wrap(self, layer_id: int, fn, stats):
        layer, parent, start, end, stack = self.layer, self.parent, self.start, self.end, self._stack
        w0, w1 = self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            w0.append(0)
            w1.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            for (_, extract), w in zip(stats, self.work):
                w[idx] = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            return
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "outgrowth" or name.startswith("outgrowth."))]
        for layer_id, (module, paths, stats) in enumerate(LAYERS.values()):
            for path in paths.split("|"):
                owner = sys.modules[f"outgrowth.{module}"]
                *parents, attr = path.split(".")
                for p in parents:
                    owner = owner[p] if isinstance(owner, dict) else getattr(owner, p)
                fn = getattr(owner, attr)
                wrapper = self._wrap(layer_id, fn, stats)
                if parents:  # a method, or a command callback
                    self._set(owner, attr, wrapper)
                    continue
                # a module-level function: replace every binding of it
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, name, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        hi = len(self) if hi is None else hi
        return {
            "layer": np.array(self.layer[lo:hi], dtype=np.int32),
            "parent": np.array(self.parent[lo:hi], dtype=np.int32) - lo,
            "start": np.array(self.start[lo:hi], dtype=np.float64),
            "end": np.array(self.end[lo:hi], dtype=np.float64),
            "work0": np.array(self.work[0][lo:hi], dtype=np.int64),
            "work1": np.array(self.work[1][lo:hi], dtype=np.int64),
        }

    def summary(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer figures of spans lo..hi-1, which must hold whole operations."""
        return summarize(self.arrays(lo, hi))

    def save(self, path, **extra) -> None:
        """Write every recorded span (``numpy.savez``); called once, at the end of a run."""
        np.savez(path, names=np.array(self.names), **self.arrays(), **extra)


def summarize(spans) -> dict[str, float]:
    """Per-layer calls, self seconds and work counts of a set of spans.

    Parent indices are positions within the set, negative for a span whose
    caller was not traced.
    """
    n_layers = len(LAYERS)
    layer, parent = spans["layer"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    totals = {
        "calls": np.bincount(layer, minlength=n_layers),
        "self_s": np.bincount(layer, weights=dur - child, minlength=n_layers),
        0: np.bincount(layer, weights=spans["work0"], minlength=n_layers),
        1: np.bincount(layer, weights=spans["work1"], minlength=n_layers),
    }
    return {name: (float if unit == "s" else int)(totals[slot][i])
            for i, name, unit, slot in _layer_metrics()}


def add_summaries(summaries: list[dict[str, float]]) -> dict[str, float]:
    total: dict[str, float] = {}
    for s in summaries:
        for k, v in s.items():
            total[k] = total.get(k, 0) + v
    return total
