"""Outside-in tracing of ifpmine's layers.

Wrappers around the package's public functions are installed in every
``ifpmine`` module namespace that holds the original function, which is where
the calling module looks it up (``ifpmine.miners.residual_tree``, say). So the
trace needs no change to the package, and a recursive function such as
``ifp_mlms``, which calls itself through its module's globals, gets one span
per call. Nothing is patched outside the ``Tracer.installed()`` block.

A span is ``(name, start, end, parent, value)``: ``parent`` is the index of the
enclosing span in the same list (-1 for none) and ``value`` is a count taken
from the return value (nodes of a returned tree, itemsets of a result), or
``None``.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Iterator


def _node_count(tree: Any) -> int:
    return tree.node_count


# (span name, defining module, function, count taken from the return value)
TARGETS: tuple[tuple[str, str, str, Callable[[Any], int] | None], ...] = (
    ("data.read_fimi", "ifpmine.data", "read_fimi", None),
    ("data.support", "ifpmine.data", "support", None),
    ("data.render", "ifpmine.data", "render_itemset_lines", None),
    ("tree.build", "ifpmine.tree", "build_tree", _node_count),
    ("tree.project", "ifpmine.tree", "projected_tree", _node_count),
    ("tree.residual", "ifpmine.tree", "residual_tree", _node_count),
    ("tree.tree_support", "ifpmine.tree", "tree_support", None),
    ("tree.decompress", "ifpmine.tree", "decompress", None),
    ("miners.ifp_min", "ifpmine.miners", "ifp_min", None),
    ("miners.apriori_min", "ifpmine.miners", "apriori_min", None),
    ("mlms.ifp_mlms", "ifpmine.mlms", "ifp_mlms", len),
)

LAYER_SPANS = frozenset(name for name, *_ in TARGETS)

# name -> (unit, better). The order is the order of BENCHMARK.json's per_layer.
PER_LAYER: dict[str, tuple[str, str]] = {
    "data.read_fimi_s": ("s", "lower"),
    "data.support_calls": ("count", "lower"),
    "data.support_s": ("s", "lower"),
    "data.support_calls_per_itemset": ("ratio", "lower"),
    "data.render_s": ("s", "lower"),
    "tree.build_s": ("s", "lower"),
    "tree.build_nodes": ("count", "lower"),
    "tree.project_calls": ("count", "lower"),
    "tree.project_s": ("s", "lower"),
    "tree.project_nodes": ("count", "lower"),
    "tree.residual_calls": ("count", "lower"),
    "tree.residual_s": ("s", "lower"),
    "tree.residual_nodes": ("count", "lower"),
    "tree.tree_support_calls": ("count", "lower"),
    "tree.tree_support_s": ("s", "lower"),
    "tree.decompress_calls": ("count", "lower"),
    "tree.decompress_s": ("s", "lower"),
    "miners.ifp_min_s": ("s", "lower"),
    "miners.ifp_min_self_s": ("s", "lower"),
    "miners.apriori_min_s": ("s", "lower"),
    "miners.apriori_min_self_s": ("s", "lower"),
    "miners.peak_nodes": ("count", "lower"),
    "mlms.ifp_mlms_calls": ("count", "lower"),
    "mlms.ifp_mlms_s": ("s", "lower"),
    "mlms.ifp_mlms_self_s": ("s", "lower"),
    "mlms.useful_call_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Collects the spans of one pass in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        """Reserve the next span's slot; returns its index and its parent's."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself, such as one query."""
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent, None)
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, count: Callable[[Any], int] | None) -> Callable:
        spans, stack, clock, open_span = self.spans, self._stack, time.perf_counter, self._open

        @wraps(fn)
        def traced(*args, **kwargs):
            index, parent = open_span()
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                # A tuple of atoms, which the garbage collector stops tracking.
                spans[index] = (name, start, end, parent, None if count is None or out is None else count(out))

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Replace each target function by its traced wrapper in every loaded
        ``ifpmine`` module that refers to it; restore them all on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ifpmine" or n.startswith("ifpmine.")]
        patched: list[tuple[Any, str, Callable]] = []
        try:
            for name, module, attr, count in TARGETS:
                original = getattr(sys.modules[module], attr, None)
                if original is None:
                    continue  # the package no longer has this function
                wrapper = self._wrap(name, original, count)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, Any]]:
    """Per span name: ``calls``, ``total_s`` (outermost spans only, so a
    recursive function is not counted twice), ``self_s`` (each span minus the
    time its child spans cover), ``value`` (sum of counts), ``nonempty``
    (spans whose count was above zero) and ``by_root``, ``total_s`` split by
    the name of the outermost span, which is the query it ran for."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict[str, Any]] = {}
    # Spans are listed in start order, so the open spans form a stack.
    stack: list[int] = []
    open_names: dict[str, int] = {}
    for i, (name, start, end, parent, value) in enumerate(spans):
        while stack and stack[-1] != parent:
            open_names[spans[stack.pop()][0]] -= 1
        agg = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0, "nonempty": 0, "by_root": {}}
        )
        agg["calls"] += 1
        agg["self_s"] += end - start - child_s[i]
        if value is not None:
            agg["value"] += value
            agg["nonempty"] += value > 0
        if not open_names.get(name):
            agg["total_s"] += end - start
            root = spans[stack[0]][0] if stack else name
            agg["by_root"][root] = agg["by_root"].get(root, 0.0) + end - start
        stack.append(i)
        open_names[name] = open_names.get(name, 0) + 1
    return out


def per_layer_metrics(spans: list[tuple], peak_nodes: int, support_itemsets: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, without ``trace.overhead_s``.

    ``support_itemsets`` is the number of itemsets returned by the queries that
    attach supports through ``data.support`` (apriori and MLMS), the base of
    ``data.support_calls_per_itemset``.
    """
    t = layer_totals(spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0, "nonempty": 0, "by_root": {}}

    def get(name: str) -> dict[str, float]:
        return t.get(name, zero)

    reads = get("data.read_fimi")
    support = get("data.support")
    mlms = get("mlms.ifp_mlms")
    return {
        "data.read_fimi_s": reads["total_s"] / max(reads["calls"], 1),
        "data.support_calls": support["calls"],
        "data.support_s": support["total_s"],
        "data.support_calls_per_itemset": support["calls"] / max(support_itemsets, 1),
        "data.render_s": get("data.render")["total_s"],
        "tree.build_s": get("tree.build")["total_s"],
        "tree.build_nodes": get("tree.build")["value"],
        "tree.project_calls": get("tree.project")["calls"],
        "tree.project_s": get("tree.project")["total_s"],
        "tree.project_nodes": get("tree.project")["value"],
        "tree.residual_calls": get("tree.residual")["calls"],
        "tree.residual_s": get("tree.residual")["total_s"],
        "tree.residual_nodes": get("tree.residual")["value"],
        "tree.tree_support_calls": get("tree.tree_support")["calls"],
        "tree.tree_support_s": get("tree.tree_support")["total_s"],
        "tree.decompress_calls": get("tree.decompress")["calls"],
        "tree.decompress_s": get("tree.decompress")["total_s"],
        "miners.ifp_min_s": get("miners.ifp_min")["total_s"],
        "miners.ifp_min_self_s": get("miners.ifp_min")["self_s"],
        "miners.apriori_min_s": get("miners.apriori_min")["total_s"],
        "miners.apriori_min_self_s": get("miners.apriori_min")["self_s"],
        "miners.peak_nodes": peak_nodes,
        "mlms.ifp_mlms_calls": mlms["calls"],
        "mlms.ifp_mlms_s": mlms["total_s"],
        "mlms.ifp_mlms_self_s": mlms["self_s"],
        "mlms.useful_call_ratio": mlms["nonempty"] / max(mlms["calls"], 1),
    }


def query_breakdown(spans: list[tuple]) -> dict[str, tuple[float, dict[str, float]]]:
    """For each span the benchmark opened at the top (one per query): its
    duration and the time each layer spent under it."""
    totals = layer_totals(spans)
    return {
        name: (
            totals[name]["total_s"],
            {layer: agg["by_root"][name] for layer, agg in totals.items() if layer != name and name in agg["by_root"]},
        )
        for name, _, _, parent, _ in spans
        if parent < 0 and name not in LAYER_SPANS
    }

