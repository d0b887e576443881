"""Reference graph algebra the tests check the package against.

None of these functions runs in a command.  The edge lookups read a graph
in ways no command needs.  The rest restate what the package computes
directly, the long way: the general Cartesian product and vertex merging
give `partial_product_via_merge`, whose labels `checked_product_labels`
checks for collisions one pair at a time, closure and restriction give the
laws the approximations must satisfy, and the two image functions restate
the corner rule of `wildcards_graph` one vertex at a time.  `reference_is_subtype` is
the rules decider with its equality tests first, as it was written before
they were replaced by cheaper name tests, on whole types rather than
shape tuples, with its own walk up the superclass chain.
`reference_hasse` is the Hasse diagram of that decider's order, which
needs no graph code of the package beyond the transitive reduction.
`subtype_by_trace` is the graph decider as it was before it searched covers
on demand: reachability in a materialised approximation.  `reference_json`
is the JSON export as `json.dumps` writes it.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Mapping

from groundsub.builder import IterationTrace, sufficient_depth
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
from groundsub.product import PartitionedGraph
from groundsub.rules import enumerate_types
from groundsub.typelang import (
    NULL_TYPE,
    OBJECT_TYPE,
    ClassTable,
    Con,
    Cov,
    GroundType,
    Inv,
    TypeArg,
    Wild,
    canonical_label,
)


def edge_pairs(g: LabeledDigraph) -> frozenset[tuple[str, str]]:
    return frozenset(e[:2] for e in g.edges)


def has_edge(g: LabeledDigraph, src: str, dst: str) -> bool:
    return src in g and dst in g.successors(src)


def tag_of(g: LabeledDigraph, src: str, dst: str) -> EdgeTag:
    for tag in EdgeTag:
        if Edge(src, dst, tag) in g.edges:
            return tag
    raise GraphError(f"no edge {src!r} -> {dst!r}")


def predecessors(g: LabeledDigraph, label: str) -> tuple[str, ...]:
    """Sources of the edges into `label`, in label order."""
    if label not in g:
        raise GraphError(f"unknown vertex {label!r}")
    return tuple(e.src for e in g.sorted_edges if e.dst == label)


def equals_ignoring_tags(g1: LabeledDigraph, g2: LabeledDigraph) -> bool:
    return g1.vertices == g2.vertices and edge_pairs(g1) == edge_pairs(g2)


def reference_json(g: LabeledDigraph) -> str:
    """The JSON export through `json.dumps(indent=2)`."""
    payload = {
        "vertices": list(g.sorted_vertices),
        "edges": [
            {"from": e.src, "to": e.dst, "tag": e.tag.value} for e in g.sorted_edges
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


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
    return LabeledDigraph.from_edges(edges, mapping.values())


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
    return LabeledDigraph.from_edges(_coalesce(candidates), labels.values())


def disjoint_union(g1: LabeledDigraph, g2: LabeledDigraph) -> LabeledDigraph:
    """Union of two graphs over disjoint label sets."""
    overlap = g1.vertices & g2.vertices
    if overlap:
        raise GraphError(f"vertex labels shared by both graphs: {sorted(overlap)}")
    return LabeledDigraph.from_edges(g1.edges | g2.edges, g1.vertices | g2.vertices)


def reflexive_transitive_closure(g: LabeledDigraph) -> LabeledDigraph:
    """Edge for every directed path.

    Reflexive pairs are represented implicitly (a vertex always reaches
    itself; self-loops are never stored).  Edges already present keep their
    tags; edges added for longer paths carry no variance provenance and are
    tagged INHERIT.
    """
    tags = {e[:2]: e.tag for e in g.edges}
    edges = []
    for u in g.sorted_vertices:
        for v in sorted(g.descendants_of(u)):
            edges.append(Edge(u, v, tags.get((u, v), EdgeTag.INHERIT)))
    return LabeledDigraph.from_edges(edges, g.vertices)


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
    return LabeledDigraph.from_edges(_coalesce(candidates), vertices)


def induced_subgraph(g: LabeledDigraph, keep: Iterable[str]) -> LabeledDigraph:
    """Restriction to `keep` and the edges with both endpoints inside it."""
    names = frozenset(keep)
    if not names <= g.vertices:
        raise GraphError(f"unknown vertices: {sorted(names - g.vertices)}")
    edges = frozenset(e for e in g.edges if e.src in names and e.dst in names)
    return LabeledDigraph.from_edges(edges, names)


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
    return LabeledDigraph.from_edges((Edge(e.dst, e.src, e.tag) for e in g.edges), g.vertices)


def checked_product_labels(
    pg: PartitionedGraph,
    g2: LabeledDigraph,
    combine: Callable[[str, str], str],
) -> dict[str, dict[str, str]]:
    """The label of (u, v) for each product vertex u and each v of `g2`,
    checked one pair at a time in sorted (u, v) order: the first label
    that repeats, or names a plain vertex, is an error."""
    plain = pg.nonproduct_vertices
    rows: dict[str, dict[str, str]] = {}
    owners: dict[str, tuple[str, str]] = {}
    for u in sorted(pg.product_vertices):
        row = rows[u] = {}
        for v in g2.sorted_vertices:
            name = combine(u, v)
            if name in owners:
                raise GraphError(
                    f"label collision: {name!r} produced by both {owners[name]} and {(u, v)}"
                )
            if name in plain:
                raise GraphError(
                    f"label collision: {name!r} already names a non-product vertex"
                )
            owners[name] = (u, v)
            row[v] = name
    return rows


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

    final = checked_product_labels(pg, g2, combine)
    names = {pair_label(u, v): lab for u, row in final.items() for v, lab in row.items()}
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


def reference_inherits(table: ClassTable, sub: str, sup: str) -> bool:
    """Reflexive reachability in the declared superclass chains, walking
    parent pointers one class at a time."""
    if sub == sup or sub == BOTTOM_CLASS:
        return True
    if sup == BOTTOM_CLASS:
        return False
    current = sub
    while current != TOP_CLASS:
        current = table.superclass_of(current)
        if current == sup:
            return True
    return False


def reference_contains_argument(inner: TypeArg, outer: TypeArg, table: ClassTable) -> bool:
    """Argument containment, deciding bounds with `reference_is_subtype`."""
    if inner == outer:
        return True
    match outer:
        case Wild():
            return True
        case Cov(bound):
            match inner:
                case Cov(other) | Inv(other):
                    return reference_is_subtype(other, bound, table)
            return False
        case Con(bound):
            match inner:
                case Con(other) | Inv(other):
                    return reference_is_subtype(bound, other, table)
            return False
        case Inv(_):
            return False
    raise TypeError(f"not a type argument: {outer!r}")


def reference_is_subtype(t1: GroundType, t2: GroundType, table: ClassTable) -> bool:
    """Ground subtyping with whole-type equality tests for the reflexive,
    bottom and top cases."""
    if t1 == t2:
        return True
    if t1 == NULL_TYPE:
        return True
    if t2 == OBJECT_TYPE:
        return True
    if not reference_inherits(table, t1.name, t2.name):
        return False
    if not table.is_generic(t2.name):
        return True
    if not table.is_generic(t1.name):
        return False
    assert t1.arg is not None and t2.arg is not None
    return reference_contains_argument(t1.arg, t2.arg, table)


def reference_hasse(table: ClassTable, k: int) -> LabeledDigraph:
    """The covers of `reference_is_subtype` on the types of rank at most k:
    the transitive reduction of the order over `enumerate_types(table, k)`."""
    types = enumerate_types(table, k)
    names = [canonical_label(t) for t in types]
    edges = [
        (l1, l2)
        for t1, l1 in zip(types, names)
        for t2, l2 in zip(types, names)
        if t1 != t2 and reference_is_subtype(t1, t2, table)
    ]
    return transitive_reduction(LabeledDigraph.from_edges(edges, vertices=names))


def subtype_by_trace(trace: IterationTrace, t1: GroundType, t2: GroundType) -> bool:
    """Reachability in the materialised S_k, k = `sufficient_depth(t1, t2)`."""
    k = sufficient_depth(t1, t2)
    if k > trace.depth and not trace.reached_fixed_point:
        raise ValueError(f"types need {k} iterations but the trace holds {trace.depth}")
    s = trace.graphs[min(k, trace.depth) - 1]
    return reachable(s.graph, canonical_label(t1), canonical_label(t2))
