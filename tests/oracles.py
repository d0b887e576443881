"""Reference graph algebra the tests check the package against.

None of these functions runs in a command.  They restate what the package
computes directly, the long way: the general Cartesian product and vertex
merging give `partial_product_via_merge`, closure and restriction give the
laws the approximations must satisfy, and the two image functions restate
the corner rule of `wildcards_graph` one vertex at a time.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from groundsub.digraph import (
    Edge,
    EdgeTag,
    LabeledDigraph,
    pair_label,
    reachable,
    transitive_reduction,
)
from groundsub.errors import GraphError
from groundsub.labels import (
    BOTTOM_CLASS,
    TOP_CLASS,
    WILDCARD,
    instantiation_label,
    lower_bounded_label,
    upper_bounded_label,
)
from groundsub.product import PartitionedGraph, _product_labels


def _coalesce(candidates: Iterable[tuple[str, str, EdgeTag]]) -> list[Edge]:
    """Drop duplicate pairs, keeping the first tag seen in iteration order."""
    chosen: dict[tuple[str, str], EdgeTag] = {}
    for src, dst, tag in candidates:
        chosen.setdefault((src, dst), tag)
    return [Edge(src, dst, tag) for (src, dst), tag in chosen.items()]


def relabeled(g: LabeledDigraph, rename: Callable[[str], str]) -> LabeledDigraph:
    """Apply an injective renaming to every vertex."""
    mapping: dict[str, str] = {}
    owners: dict[str, str] = {}
    for v in g.sorted_vertices:
        new = rename(v)
        if new in owners:
            raise GraphError(
                f"relabeling collision: {owners[new]!r} and {v!r} both map to {new!r}"
            )
        owners[new] = v
        mapping[v] = new
    edges = frozenset(Edge(mapping[e.src], mapping[e.dst], e.tag) for e in g.edges)
    return LabeledDigraph(frozenset(mapping.values()), edges)


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
    tags = {e.pair: e.tag for e in g.edges}
    edges = []
    for u in g.sorted_vertices:
        for v in sorted(g.descendants_of(u)):
            edges.append(Edge(u, v, tags.get((u, v), EdgeTag.INHERIT)))
    return LabeledDigraph(g.vertices, frozenset(edges))


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


def partial_product_via_merge(
    pg: PartitionedGraph,
    g2: LabeledDigraph,
    combine: Callable[[str, str], str] = pair_label,
) -> LabeledDigraph:
    """Same contract as `partial_product`, computed the long way.

    Builds the full Cartesian product of the first factor with `g2`, merges
    the cluster of copies of every plain vertex back into a single vertex,
    reduces, and relabels.
    """
    if not g2.vertices:
        raise GraphError("second factor must be nonempty")
    full = cartesian_product(pg.base, g2, pair_label)
    second = g2.sorted_vertices
    merged = full
    for w in sorted(pg.nonproduct_vertices):
        cluster = [pair_label(w, v) for v in second]
        merged = merge_vertices(merged, cluster, cluster[0])

    final = _product_labels(pg, g2, combine)
    names = {pair_label(u, v): lab for (u, v), lab in final.items()}
    for w in pg.nonproduct_vertices:
        names[pair_label(w, second[0])] = w
    return transitive_reduction(relabeled(merged, lambda v: names[v]))


def covariant_image(class_name: str, label: str) -> str:
    """Instantiation of `class_name` at the upper-bounded copy of a vertex.

    The corner arguments coalesce: the top's upper-bounded copy is the
    default wildcard and the bottom's is the bottom itself.
    """
    if label == TOP_CLASS:
        return instantiation_label(class_name, WILDCARD)
    if label == BOTTOM_CLASS:
        return instantiation_label(class_name, BOTTOM_CLASS)
    return instantiation_label(class_name, upper_bounded_label(label))


def contravariant_image(class_name: str, label: str) -> str:
    """Instantiation of `class_name` at the lower-bounded copy of a vertex."""
    if label == BOTTOM_CLASS:
        return instantiation_label(class_name, WILDCARD)
    if label == TOP_CLASS:
        return instantiation_label(class_name, TOP_CLASS)
    return instantiation_label(class_name, lower_bounded_label(label))
