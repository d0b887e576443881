"""Immutable labeled DAGs and the order algorithms everything else composes.

Vertices are canonical label strings and every edge carries a provenance
tag.  All graphs here model partial orders: construction rejects cycles,
self-loops and parallel edges, and the algorithms below preserve those
invariants.  Values are immutable once built, so they are safe to share
between any number of readers.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    tag: EdgeTag

    @property
    def pair(self) -> tuple[str, str]:
        return (self.src, self.dst)


def _edge_sort_key(edge: Edge) -> tuple[str, str]:
    return (edge.src, edge.dst)


@dataclass(frozen=True, repr=False)
class LabeledDigraph:
    """Finite DAG over label strings with at most one tagged edge per pair."""

    vertices: frozenset[str]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "edges", frozenset(self.edges))
        # One pass over the sorted edges validates them and builds the
        # successor index, so successor tuples come out in label order.
        pairs: set[tuple[str, str]] = set()
        succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        indegree = dict.fromkeys(self.vertices, 0)
        for edge in self.sorted_edges:
            if edge.src == edge.dst:
                raise GraphError(f"self-loop on {edge.src!r}")
            if edge.src not in self.vertices or edge.dst not in self.vertices:
                raise GraphError(
                    f"edge {edge.src!r} -> {edge.dst!r} leaves the vertex set"
                )
            if edge.pair in pairs:
                raise GraphError(
                    f"parallel edges between {edge.src!r} and {edge.dst!r}"
                )
            pairs.add(edge.pair)
            succ[edge.src].append(edge.dst)
            indegree[edge.dst] += 1
        object.__setattr__(self, "_succ", {v: tuple(ns) for v, ns in succ.items()})
        # Kahn's algorithm; the topological order doubles as the cycle check.
        sources = [v for v, d in indegree.items() if d == 0]
        object.__setattr__(self, "_sources", tuple(sorted(sources)))
        order = sources
        for v in order:
            for w in succ[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    order.append(w)
        if len(order) != len(self.vertices):
            stuck = sorted(v for v, d in indegree.items() if d > 0)
            raise GraphError(f"graph contains a cycle through {stuck}")
        object.__setattr__(self, "_topo_order", tuple(order))

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge | tuple] = (),
        vertices: Iterable[str] = (),
        tag: EdgeTag = EdgeTag.PRODUCT,
    ) -> LabeledDigraph:
        """Build a graph from `(src, dst)` or `(src, dst, tag)` tuples."""
        built: list[Edge] = []
        for item in edges:
            if isinstance(item, Edge):
                built.append(item)
            else:
                src, dst, *rest = item
                built.append(Edge(src, dst, rest[0] if rest else tag))
        names = set(vertices)
        names.update(e.src for e in built)
        names.update(e.dst for e in built)
        return cls(frozenset(names), frozenset(built))

    def __repr__(self) -> str:
        return f"LabeledDigraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def __contains__(self, label: str) -> bool:
        return label in self.vertices

    @cached_property
    def sorted_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges, key=_edge_sort_key))

    # No command reads the pair, tag and predecessor lookups below, so the
    # graph stores no index for them: each is worked out when called.
    @property
    def edge_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(e.pair for e in self.edges)

    def has_edge(self, src: str, dst: str) -> bool:
        return dst in self._succ.get(src, ())

    def tag_of(self, src: str, dst: str) -> EdgeTag:
        for tag in EdgeTag:
            if Edge(src, dst, tag) in self.edges:
                return tag
        raise GraphError(f"no edge {src!r} -> {dst!r}")

    def successors(self, label: str) -> tuple[str, ...]:
        self._require_vertex(label)
        return self._succ[label]

    def predecessors(self, label: str) -> tuple[str, ...]:
        self._require_vertex(label)
        return tuple(e.src for e in self.sorted_edges if e.dst == label)

    @property
    def sources(self) -> tuple[str, ...]:
        return self._sources

    @property
    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.sorted_vertices if not self._succ[v])

    def _require_vertex(self, label: str) -> None:
        if label not in self.vertices:
            raise GraphError(f"unknown vertex {label!r}")

    @cached_property
    def _descendants(self) -> dict[str, frozenset[str]]:
        # Strict descendants, computed bottom-up in reverse topological order.
        desc: dict[str, frozenset[str]] = {}
        for v in reversed(self._topo_order):
            below: set[str] = set()
            for w in self._succ[v]:
                below.add(w)
                below.update(desc[w])
            desc[v] = frozenset(below)
        return desc

    def descendants_of(self, label: str) -> frozenset[str]:
        self._require_vertex(label)
        return self._descendants[label]

    def equals_ignoring_tags(self, other: LabeledDigraph) -> bool:
        return self.vertices == other.vertices and self.edge_pairs == other.edge_pairs


@dataclass(frozen=True)
class BipointedGraph:
    """A DAG with a unique global sink (`top`) and unique global source (`bottom`)."""

    graph: LabeledDigraph
    top: str
    bottom: str

    def __post_init__(self) -> None:
        if self.top not in self.graph.vertices or self.bottom not in self.graph.vertices:
            raise GraphError("top and bottom must be vertices of the graph")
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
    kept = []
    for edge in g.sorted_edges:
        implied = any(
            edge.dst in g.descendants_of(w)
            for w in g.successors(edge.src)
            if w != edge.dst
        )
        if not implied:
            kept.append(edge)
    return LabeledDigraph(g.vertices, frozenset(kept))


def reachable(g: LabeledDigraph, src: str, dst: str) -> bool:
    """True when `src` equals `dst` or a directed path connects them."""
    g._require_vertex(src)
    g._require_vertex(dst)
    return src == dst or dst in g.descendants_of(src)
