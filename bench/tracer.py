"""Spans around the calls into each groundsub module, recorded from outside.

The tracer replaces module-level names with timing wrappers, so it sees
exactly the calls a module makes through the names it looks up:
`groundsub.product.transitive_reduction` and
`groundsub.wildcards.transitive_reduction` are wrapped separately, and so
are `groundsub.cli.run` and `groundsub.builder.run` (the name the rules
module looks up).  The package itself is not changed.

Every span records its name, start, end and parent, and stays in memory,
in flat arrays, until the run ends.  A call whose span name is already open
on the stack, such as the recursion of `rules.is_subtype`, is counted but
opens no span, so spans of one name never nest and a name's busy time is
the sum of its span lengths.  Counts that depend on arguments or results
(edge candidates, kept edges, export bytes) are taken at the same wrappers.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

from groundsub import builder, cli, product, rules, wildcards
from groundsub.digraph import LabeledDigraph

# (module, attribute, span name): the name each caller looks up.
WRAPPED = (
    (cli, "main", "cli.main"),
    (cli, "parse_declarations", "typelang.parse"),
    (cli, "parse_ground_type", "typelang.parse"),
    (cli, "run", "builder.run"),
    (cli, "subtype_by_graph", "builder.subtype_by_graph"),
    (cli, "is_subtype", "rules.is_subtype"),
    (cli, "differential_check", "rules.differential_check"),
    (cli, "render", "export.render"),
    (builder, "run", "builder.run"),
    (builder, "subtype_by_graph", "builder.subtype_by_graph"),
    (builder, "partial_product", "product.partial_product"),
    (builder, "wildcards_graph", "wildcards.wildcards_graph"),
    (builder, "reachable", "digraph.reachable"),
    (rules, "is_subtype", "rules.is_subtype"),
    (rules, "enumerate_types", "rules.enumerate_types"),
    (product, "transitive_reduction", "digraph.reduce_in_product"),
    (wildcards, "transitive_reduction", "digraph.reduce_in_wildcards"),
    # Graph construction validates, and topologically sorts, every graph.
    (LabeledDigraph, "__post_init__", "digraph.validate"),
)


def _product_counts(counts, args, result) -> None:
    """Edge candidates of the product from its factors, and edges kept."""
    pg, g2 = args[0], args[1]
    pp, pn, np, nn = pg.classify_edges()
    width = len(g2.vertices)
    counts["product.candidates"] += (
        (len(pp) + len(pn) + len(np)) * width
        + len(pg.product_vertices) * len(g2.edges)
        + len(nn)
    )
    counts["product.edges_out"] += len(result.edges)


def _wildcards_counts(counts, args, result) -> None:
    """Two bounded copies of every edge, two links per inner vertex."""
    g = args[0]
    counts["wildcards.candidates"] += 2 * len(g.graph.edges) + 2 * (len(g.vertices) - 2)
    counts["wildcards.edges_out"] += len(result.edges)


def _run_counts(counts, args, result) -> None:
    counts["builder.steps"] += result.depth
    counts["builder.vertices_final"] += len(result.last.graph.vertices)
    counts["builder.edges_final"] += len(result.last.graph.edges)


def _render_counts(counts, args, result) -> None:
    counts["export.bytes"] += len(result.encode("utf-8"))


COUNTERS = {
    "product.partial_product": _product_counts,
    "wildcards.wildcards_graph": _wildcards_counts,
    "builder.run": _run_counts,
    "export.render": _render_counts,
}


class Tracer:
    """Installs the wrappers, records spans, and summarises them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        sid = self.name_ids[name]
        depth = [0]
        stack = self._stack
        calls, counts, on_result = self.calls, self.counts, COUNTERS.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            index = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                depth[0] -= 1
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        shared: dict[tuple[int, str], object] = {}
        for owner, attr, name in WRAPPED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            # One wrapper per original function and span name, so the
            # recursion guard holds across the different names bound to it.
            key = (id(original), name)
            if key not in shared:
                shared[key] = self._wrap(original, name)
            setattr(owner, attr, shared[key])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Busy time and self time per span name, in seconds."""
        n = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[i]
        busy = {name: 0.0 for name in self.names}
        own = {name: 0.0 for name in self.names}
        for i, sid in enumerate(self.span_name):
            name = self.names[sid]
            busy[name] += durations[i]
            own[name] += durations[i] - child[i]
        return busy, own

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json."""
        b, s = self.times()
        c, k = self.calls, self.counts

        def ratio(kept: str, attempted: str) -> float:
            return k[kept] / k[attempted] if k[attempted] else 0.0

        return {
            "digraph.reduce_s": b["digraph.reduce_in_product"] + b["digraph.reduce_in_wildcards"],
            "digraph.reduce_in_product_s": b["digraph.reduce_in_product"],
            "digraph.reduce_in_wildcards_s": b["digraph.reduce_in_wildcards"],
            "product.candidates": k["product.candidates"],
            "product.edges_out": k["product.edges_out"],
            "product.kept_ratio": ratio("product.edges_out", "product.candidates"),
            "wildcards.candidates": k["wildcards.candidates"],
            "wildcards.kept_ratio": ratio("wildcards.edges_out", "wildcards.candidates"),
            "product.self_s": s["product.partial_product"],
            "wildcards.self_s": s["wildcards.wildcards_graph"],
            "builder.run_s": b["builder.run"],
            "builder.steps": k["builder.steps"],
            "builder.vertices_final": k["builder.vertices_final"],
            "builder.edges_final": k["builder.edges_final"],
            "digraph.validate_s": b["digraph.validate"],
            "digraph.graphs_built": c["digraph.validate"],
            "digraph.reachable_s": b["digraph.reachable"],
            "digraph.reachable_calls": c["digraph.reachable"],
            "builder.subtype_by_graph_self_s": s["builder.subtype_by_graph"],
            "builder.graph_verdicts": c["builder.subtype_by_graph"],
            "rules.is_subtype_s": b["rules.is_subtype"],
            "rules.is_subtype_calls": c["rules.is_subtype"],
            "rules.enumerate_types_s": b["rules.enumerate_types"],
            "typelang.parse_s": b["typelang.parse"],
            "typelang.parse_calls": c["typelang.parse"],
            "export.render_s": b["export.render"],
            "export.bytes": k["export.bytes"],
            "cli.self_s": s["cli.main"],
            "trace.spans": len(self.span_start),
            "trace.self_sum_s": sum(s.values()),
        }
