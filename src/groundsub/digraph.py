"""Labeled DAGs and the order algorithms everything else composes.

Vertices are canonical label strings and every edge carries a provenance
tag.  A graph is built from its vertex set and a successor map, which
gives each source the `(target, tag)` pairs of its out-edges; `from_edges`
is the edge-list front end to that one constructor.  Each vertex keeps its
pairs sorted by target, and the `Edge` set is derived only when asked for.
All graphs model partial orders: construction rejects cycles, self-loops
and parallel edges, and the algorithms below preserve those invariants.
Immutability is a rule, not enforced: no code changes a built graph's
vertices or successor lists, so readers may share one, and validation, the
queries, `product`, `wildcards` and `export` read the lists in place.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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
    over; a key outside the vertex set must have no edges.  `from_edges`
    builds that map from edge tuples.  `edges` and `sorted_edges` are
    derived from the successor lists on first use.  Graphs are equal when
    they have the same vertices and the same tagged edges.
    """

    def __init__(
        self, vertices: Iterable[str], successors: dict[str, list[tuple[str, EdgeTag]]]
    ) -> None:
        self.vertices, self._out = frozenset(vertices), successors
        self.__post_init__()

    # The validator keeps this name because bench/tracer.py wraps it.
    def __post_init__(self) -> None:
        # Sorting each source's targets puts parallel edges next to each
        # other.  Each defect belongs to one source, so the first in (src,
        # dst) order is the first failing target of the smallest failing
        # source.
        vertices, out = self.vertices, self._out
        indegree = dict.fromkeys(vertices, 0)
        failed = []
        for src, targets in out.items():
            targets.sort(key=_target)
            if src not in vertices and targets:
                failed.append((src, _defect(src, targets[0][0], None)))
                continue
            last = None
            for dst, _ in targets:
                if dst == src or dst == last or dst not in vertices:
                    failed.append((src, _defect(src, dst, last)))
                    break
                last = dst
                indegree[dst] += 1
            out[src] = tuple(targets)
        if failed:
            raise GraphError(min(failed)[1])
        out.update(dict.fromkeys(vertices - out.keys(), ()))
        if len(out) > len(vertices):  # drop keys outside the vertex set, all without edges
            out = self._out = {v: out[v] for v in vertices}
        # Kahn's algorithm; the topological order doubles as the cycle check.
        sources = [v for v, d in indegree.items() if d == 0]
        self._sources = tuple(sorted(sources))
        order = sources
        for v in order:
            for w, _ in out[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    order.append(w)
        if len(order) != len(vertices):
            stuck = sorted(v for v, d in indegree.items() if d > 0)
            raise GraphError(f"graph contains a cycle through {stuck}")
        self._topo_order = tuple(order)

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
        return tuple(sorted(self.vertices))

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
        return tuple(sorted(v for v, targets in self._out.items() if not targets))

    def _require_vertex(self, label: str) -> None:
        if label not in self.vertices:
            raise GraphError(f"unknown vertex {label!r}")

    @cached_property
    def _descendants(self) -> dict[str, frozenset[str]]:
        # Strict descendants, computed bottom-up in reverse topological order.
        desc: dict[str, frozenset[str]] = {}
        for v in reversed(self._topo_order):
            below: set[str] = set()
            for w, _ in self._out[v]:
                below.add(w)
                below.update(desc[w])
            desc[v] = frozenset(below)
        return desc

    def descendants_of(self, label: str) -> frozenset[str]:
        self._require_vertex(label)
        return self._descendants[label]


def _defect(src: str, dst: str, last: str | None) -> str:
    """The defect of `src -> dst`, the first bad edge out of `src`, after `last`."""
    if dst == src:
        return f"self-loop on {src!r}"
    if dst == last:
        return f"parallel edges between {src!r} and {dst!r}"
    return f"edge {src!r} -> {dst!r} leaves the vertex set"


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

    Surviving edges keep their tags.
    """
    kept = [
        e for e in g.sorted_edges
        if not any(e.dst in g.descendants_of(w) for w in g.successors(e.src) if w != e.dst)
    ]
    return LabeledDigraph.from_edges(kept, g.vertices)


def reachable(g: LabeledDigraph, src: str, dst: str) -> bool:
    """True when `src` equals `dst` or a directed path connects them."""
    g._require_vertex(dst)
    return src == dst or dst in g.descendants_of(src)
