"""Immutable labeled DAGs and the order algorithms everything else composes.

Vertices are canonical label strings and every edge carries a provenance
tag.  All graphs here model partial orders: construction rejects cycles,
self-loops and parallel edges, and the algorithms below preserve those
invariants.  Values are immutable once built, so they are safe to share
between any number of readers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
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
        # One pass over the sorted edges validates them and builds every
        # index, so successor and predecessor tuples come out in label order.
        tag_by_pair: dict[tuple[str, str], EdgeTag] = {}
        succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        pred: dict[str, list[str]] = {v: [] for v in self.vertices}
        for edge in self.sorted_edges:
            if edge.src == edge.dst:
                raise GraphError(f"self-loop on {edge.src!r}")
            if edge.src not in self.vertices or edge.dst not in self.vertices:
                raise GraphError(
                    f"edge {edge.src!r} -> {edge.dst!r} leaves the vertex set"
                )
            if edge.pair in tag_by_pair:
                raise GraphError(
                    f"parallel edges between {edge.src!r} and {edge.dst!r}"
                )
            tag_by_pair[edge.pair] = edge.tag
            succ[edge.src].append(edge.dst)
            pred[edge.dst].append(edge.src)
        object.__setattr__(self, "_tag_by_pair", tag_by_pair)
        object.__setattr__(self, "_succ", {v: tuple(ns) for v, ns in succ.items()})
        object.__setattr__(self, "_pred", {v: tuple(ns) for v, ns in pred.items()})
        # Kahn's algorithm; the topological order doubles as the cycle check.
        indegree = {v: len(ns) for v, ns in pred.items()}
        order = [v for v, d in indegree.items() if d == 0]
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

    @cached_property
    def edge_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(self._tag_by_pair)

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._tag_by_pair

    def tag_of(self, src: str, dst: str) -> EdgeTag:
        try:
            return self._tag_by_pair[(src, dst)]
        except KeyError:
            raise GraphError(f"no edge {src!r} -> {dst!r}") from None

    def successors(self, label: str) -> tuple[str, ...]:
        self._require_vertex(label)
        return self._succ[label]

    def predecessors(self, label: str) -> tuple[str, ...]:
        self._require_vertex(label)
        return self._pred[label]

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(v for v in self.sorted_vertices if not self._pred[v])

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

    def relabeled(self, rename: Callable[[str], str]) -> LabeledDigraph:
        """Apply an injective renaming to every vertex."""
        mapping: dict[str, str] = {}
        owners: dict[str, str] = {}
        for v in self.sorted_vertices:
            new = rename(v)
            if new in owners:
                raise GraphError(
                    f"relabeling collision: {owners[new]!r} and {v!r} both map to {new!r}"
                )
            owners[new] = v
            mapping[v] = new
        edges = frozenset(Edge(mapping[e.src], mapping[e.dst], e.tag) for e in self.edges)
        return LabeledDigraph(frozenset(mapping.values()), edges)

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


def _coalesce(candidates: Iterable[tuple[str, str, EdgeTag]]) -> list[Edge]:
    """Drop duplicate pairs, keeping the first tag seen in iteration order."""
    chosen: dict[tuple[str, str], EdgeTag] = {}
    for src, dst, tag in candidates:
        chosen.setdefault((src, dst), tag)
    return [Edge(src, dst, tag) for (src, dst), tag in chosen.items()]


def cartesian_product(
    g1: LabeledDigraph,
    g2: LabeledDigraph,
    combine: Callable[[str, str], str] = pair_label,
) -> LabeledDigraph:
    """Standard Cartesian product of two DAGs.

    The result has one vertex per pair and an edge whenever one coordinate
    takes an edge step while the other stands still; each edge keeps the tag
    of the factor edge that generated it.
    """
    labels: dict[tuple[str, str], str] = {}
    owners: dict[str, tuple[str, str]] = {}
    for u in g1.sorted_vertices:
        for v in g2.sorted_vertices:
            name = combine(u, v)
            if name in owners:
                raise GraphError(
                    f"label collision: {name!r} produced by both {owners[name]} and {(u, v)}"
                )
            owners[name] = (u, v)
            labels[(u, v)] = name
    candidates: list[tuple[str, str, EdgeTag]] = []
    for edge in g1.sorted_edges:
        for v in g2.sorted_vertices:
            candidates.append((labels[(edge.src, v)], labels[(edge.dst, v)], edge.tag))
    for u in g1.sorted_vertices:
        for edge in g2.sorted_edges:
            candidates.append((labels[(u, edge.src)], labels[(u, edge.dst)], edge.tag))
    return LabeledDigraph(frozenset(labels.values()), frozenset(_coalesce(candidates)))


def disjoint_union(g1: LabeledDigraph, g2: LabeledDigraph) -> LabeledDigraph:
    """Union of two graphs over disjoint label sets."""
    overlap = g1.vertices & g2.vertices
    if overlap:
        raise GraphError(f"vertex labels shared by both graphs: {sorted(overlap)}")
    return LabeledDigraph(g1.vertices | g2.vertices, g1.edges | g2.edges)


def reflexive_transitive_closure(g: LabeledDigraph) -> LabeledDigraph:
    """Edge for every directed path.

    Reflexive pairs are represented implicitly (a vertex always reaches
    itself; self-loops are never stored).  Edges already present keep their
    tags; edges added for longer paths carry no variance provenance and are
    tagged INHERIT.
    """
    edges = []
    for u in g.sorted_vertices:
        for v in sorted(g.descendants_of(u)):
            edges.append(Edge(u, v, g._tag_by_pair.get((u, v), EdgeTag.INHERIT)))
    return LabeledDigraph(g.vertices, frozenset(edges))


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


def merge_vertices(g: LabeledDigraph, cluster: Iterable[str], kept: str) -> LabeledDigraph:
    """Collapse `cluster` onto its member `kept`.

    Incident edges are redirected, self-loops dropped, and parallel edges
    coalesced with the first tag winning under the lexicographic ordering of
    the original edges.  Merging must not create a cycle.
    """
    members = frozenset(cluster)
    if not members <= g.vertices:
        raise GraphError(f"cluster contains unknown vertices: {sorted(members - g.vertices)}")
    if kept not in members:
        raise GraphError(f"kept vertex {kept!r} is not in the cluster")

    def target(v: str) -> str:
        return kept if v in members else v

    candidates = []
    for edge in g.sorted_edges:
        src, dst = target(edge.src), target(edge.dst)
        if src != dst:
            candidates.append((src, dst, edge.tag))
    vertices = frozenset(target(v) for v in g.vertices)
    return LabeledDigraph(vertices, frozenset(_coalesce(candidates)))


def induced_subgraph(g: LabeledDigraph, keep: Iterable[str]) -> LabeledDigraph:
    """Restriction to `keep` and the edges with both endpoints inside it."""
    names = frozenset(keep)
    if not names <= g.vertices:
        raise GraphError(f"unknown vertices: {sorted(names - g.vertices)}")
    edges = frozenset(e for e in g.edges if e.src in names and e.dst in names)
    return LabeledDigraph(names, edges)


def reachable(g: LabeledDigraph, src: str, dst: str) -> bool:
    """True when `src` equals `dst` or a directed path connects them."""
    g._require_vertex(src)
    g._require_vertex(dst)
    return src == dst or dst in g.descendants_of(src)


def order_isomorphic(
    g1: LabeledDigraph, g2: LabeledDigraph, mapping: Mapping[str, str]
) -> bool:
    """True when `mapping` is a reachability-preserving bijection onto `g2`."""
    if not g1.vertices <= set(mapping):
        return False
    image = {mapping[v] for v in g1.vertices}
    if len(image) != len(g1.vertices) or image != g2.vertices:
        return False
    for u in g1.vertices:
        for v in g1.vertices:
            if u == v:
                continue
            if reachable(g1, u, v) != reachable(g2, mapping[u], mapping[v]):
                return False
    return True


def reversed_graph(g: LabeledDigraph) -> LabeledDigraph:
    """Same vertices with every edge flipped."""
    return LabeledDigraph(
        g.vertices, frozenset(Edge(e.dst, e.src, e.tag) for e in g.edges)
    )
