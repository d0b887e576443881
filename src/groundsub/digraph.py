"""Labeled DAGs and the order algorithms everything else composes.

Vertices are canonical label strings and every edge carries a provenance
tag.  A graph is built from its vertex set and a successor map, which gives
each source the `(target, tag)` pairs of its out-edges; `from_edges` is the
edge-list front end to that one constructor.  Validation sorts each list by
target in place and keeps the caller's list, and every vertex without
out-edges shares the empty tuple `()`; the `Edge` set is derived only when
asked for.  The successor map keeps the order the graph was built in, and
after validation its keys are exactly the vertex set, so `sorted_vertices`
sorts its keys: the product and `wildcards` build theirs in nearly label
order, which the sort merges as runs.  The sink set validation works out is
kept for `sinks`.  All graphs model partial orders: construction rejects
cycles, self-loops and parallel edges, and the algorithms below preserve
those invariants.  Immutability is a rule, not enforced: no code changes a
built graph's vertices or successor lists, so readers may share one, and
validation, the queries, `product`, `wildcards` and `export` read the lists
in place.  Validation takes one Python step per edge, in Kahn's algorithm,
whose topological order it keeps.  In-degrees are counted in C, for the
targets only, so a target outside the vertex set is a key outside it; the
sources are the vertices that are no key, and the first defect is named
only when a graph fails.  Reachability is worked out from the successor
lists on each call: `descendants_of` searches upward from one vertex, and
`up_sets` lists every vertex's strict descendants bottom-up along the kept
order.  The graph keeps neither result.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import chain, compress
from operator import itemgetter
from typing import NamedTuple

from .errors import GraphError


class EdgeTag(Enum):
    """Provenance of an edge.

    COVARIANT and CONTRAVARIANT mark edges contributed by the matching
    variance rule, INV_LINK marks the one-step links from an invariant
    argument to its two bounded forms, INHERIT marks declared-inheritance
    and boundary edges, and PRODUCT marks structural edges with no
    subtyping provenance (ad hoc graphs, fixtures).
    """

    COVARIANT = "covariant"
    CONTRAVARIANT = "contravariant"
    INV_LINK = "inv_link"
    INHERIT = "inherit"
    PRODUCT = "product"


class Edge(NamedTuple):
    src: str
    dst: str
    tag: EdgeTag


_target = itemgetter(0)


class LabeledDigraph:
    """Finite DAG over label strings with at most one tagged edge per pair.

    `LabeledDigraph(vertices, successors)` takes the map from each source
    to a list of `(target, tag)` pairs, in any order, and takes the lists
    over, sorted in place; a key outside the vertex set must have no edges.
    `from_edges` builds that map from edge tuples.  `edges` and
    `sorted_edges` are derived from the successor lists on first use.
    Graphs are equal when they have the same vertices and the same tagged
    edges.
    """

    def __init__(
        self, vertices: Iterable[str], successors: dict[str, list[tuple[str, EdgeTag]]]
    ) -> None:
        self.vertices, self._out = frozenset(vertices), successors
        self.__post_init__()

    # The validator keeps this name because bench/tracer.py wraps it.
    def __post_init__(self) -> None:
        # One Python step per edge, in Kahn's pass; the rest runs in C or
        # once per source.  Each list is sorted in place and kept, and a
        # vertex without out-edges gets the shared `()`.  The in-degree map
        # holds targets only, so a target outside the vertex set is a key
        # outside it; `tails`, the sources with edges, must lie in it too.
        # Sorted targets put parallel edges next to each other, and a
        # self-loop's vertex is never ordered.  Only a graph that fails is
        # walked again, by `_failure`, to name its first defect.  The
        # vertices without out-edges are kept as the sinks.
        vertices, out = self.vertices, self._out
        for targets in out.values():
            targets.sort(key=_target)
        tails = set(compress(out, out.values()))
        indegree = dict(Counter(map(_target, chain.from_iterable(out.values()))))
        if not (vertices.issuperset(indegree) and vertices.issuperset(tails)):
            raise GraphError(_failure(vertices, out, indegree))
        sinks = self._sinks = vertices - tails
        out.update(dict.fromkeys(sinks, ()))
        if len(out) > len(vertices):  # drop keys outside the vertex set, all without edges
            out = self._out = {v: out[v] for v in vertices}
        # Kahn's algorithm: the vertices it cannot order lie on or above a
        # cycle.  The order is kept, every vertex before its successors.
        order = self._order = list(vertices.difference(indegree))
        self._sources = tuple(sorted(order))
        for v in order:
            last = None
            for w, _ in out[v]:
                if w == last:
                    raise GraphError(_failure(vertices, out, indegree))
                last = w
                d = indegree[w] - 1
                indegree[w] = d
                if not d:
                    order.append(w)
        if len(order) != len(vertices):
            raise GraphError(_failure(vertices, out, indegree))

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple] = (),
        vertices: Iterable[str] = (),
        tag: EdgeTag = EdgeTag.PRODUCT,
    ) -> LabeledDigraph:
        """Build a graph from `(src, dst)` or `(src, dst, tag)` tuples, whose
        endpoints join `vertices`; a repeated edge is one edge."""
        tagged = {(src, dst, rest[0] if rest else tag) for src, dst, *rest in edges}
        names, out = set(vertices), {}
        for src, dst, edge_tag in tagged:
            out.setdefault(src, []).append((dst, edge_tag))
            names.update((src, dst))
        return cls(names, out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabeledDigraph) and self._out == other._out

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"LabeledDigraph({len(self.vertices)} vertices, {self.edge_count} edges)"

    def __contains__(self, label: str) -> bool:
        return label in self.vertices

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._out.values()))

    @cached_property
    def sorted_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self._out))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.sorted_edges)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        """The edges in (src, dst) order, the order validation reports defects in."""
        out = self._out
        return tuple(Edge(src, dst, tag) for src in self.sorted_vertices for dst, tag in out[src])

    def successors(self, label: str) -> tuple[str, ...]:
        self._require_vertex(label)
        return tuple(dst for dst, _ in self._out[label])

    @property
    def sources(self) -> tuple[str, ...]:
        return self._sources

    @property
    def sinks(self) -> tuple[str, ...]:
        return tuple(sorted(self._sinks))

    def _require_vertex(self, label: str) -> None:
        if label not in self.vertices:
            raise GraphError(f"unknown vertex {label!r}")

    def descendants_of(self, label: str) -> set[str]:
        """The strict descendants of `label`: a fresh set, found by a search
        upward over the successor lists; nothing found is kept."""
        self._require_vertex(label)
        out, found, stack = self._out, set(), [label]
        while stack:
            for w, _ in out[stack.pop()]:
                if w not in found:
                    found.add(w)
                    stack.append(w)
        return found

    def up_sets(self) -> dict[str, tuple[str, ...]]:
        """Every vertex's strict descendants, each as a tuple in no fixed
        order, in a fresh dict the graph keeps nothing of.

        They are listed bottom-up, in the reverse of the kept topological
        order: a vertex with one successor `w` gets `w` and `w`'s tuple,
        and any other the union of its successors and their tuples.  The
        tuples together hold one entry per strict pair of the order.
        """
        out, up = self._out, {}
        for v in reversed(self._order):
            targets = out[v]
            if len(targets) == 1:
                w = targets[0][0]
                up[v] = (w, *up[w])
            else:
                found = set()
                for w, _ in targets:
                    found.add(w)
                    found.update(up[w])
                up[v] = tuple(found)
        return up


def _failure(vertices: frozenset[str], out: dict, indegree: dict[str, int]) -> str:
    """The message of a graph that failed validation: its first bad edge in
    (src, dst) order, else the cycle on or above which lie the vertices that
    Kahn's pass left with an in-degree."""
    for src in sorted(out):
        last = None
        for dst, _ in out[src]:
            if dst == src:
                return f"self-loop on {src!r}"
            if dst == last:
                return f"parallel edges between {src!r} and {dst!r}"
            if src not in vertices or dst not in vertices:
                return f"edge {src!r} -> {dst!r} leaves the vertex set"
            last = dst
    stuck = sorted(v for v, d in indegree.items() if d > 0)
    return f"graph contains a cycle through {stuck}"


@dataclass(frozen=True)
class BipointedGraph:
    """A DAG with a unique global sink (`top`) and unique global source (`bottom`)."""

    graph: LabeledDigraph
    top: str
    bottom: str

    def __post_init__(self) -> None:
        if self.graph.sinks != (self.top,):
            raise GraphError(
                f"top {self.top!r} is not the unique sink (sinks: {list(self.graph.sinks)})"
            )
        if self.graph.sources != (self.bottom,):
            raise GraphError(
                f"bottom {self.bottom!r} is not the unique source (sources: {list(self.graph.sources)})"
            )

    @property
    def vertices(self) -> frozenset[str]:
        return self.graph.vertices


def pair_label(left: str, right: str) -> str:
    """Injective default label for a product vertex."""
    return f"({left!r}, {right!r})"


def transitive_reduction(g: LabeledDigraph) -> LabeledDigraph:
    """Unique minimal edge set with the same reachability (unique on DAGs).

    Surviving edges keep their tags.  Each vertex's descendants are searched
    for once per call.
    """
    descendants = cache(g.descendants_of)
    kept = [
        e for e in g.sorted_edges
        if not any(e.dst in descendants(w) for w in g.successors(e.src) if w != e.dst)
    ]
    return LabeledDigraph.from_edges(kept, g.vertices)


def reachable(g: LabeledDigraph, src: str, dst: str) -> bool:
    """True when `src` equals `dst` or a directed path connects them."""
    g._require_vertex(dst)
    return src == dst or dst in g.descendants_of(src)
