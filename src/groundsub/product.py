"""Vertex-partitioned Cartesian graph product.

Only a chosen subset of the first factor's vertices is multiplied with the
second factor; the remaining vertices ride along unchanged and are
reattached to the product along the original boundary edges.  Writing `P`
for the product vertices and `n` for the rest, the partition of the first
factor's vertex set induces a partition of its edges into four classes, and
each class contributes edges of its own shape:

* an edge between two product vertices multiplies into one copy per vertex
  of the second factor (the standard product rule for the first coordinate);
* each product vertex also carries a copy of the second factor's edges
  (the standard product rule for the second coordinate);
* an edge from a product vertex to a plain vertex fans out of the copies of
  its source at the sinks of the second factor, and an edge entering the
  product part fans in to the copies of its target at the sources;
* edges between plain vertices are copied verbatim.

Factors in Hasse form give the Hasse form of the result by construction: a
Cartesian product of Hasse diagrams is the Hasse diagram of the product
order, and every other copy reaches the boundary through its own copy of
the second factor.  `partial_product_via_merge` computes the same order the
long way: it collapses the copies of every plain vertex of the full
Cartesian product and reduces.  The test suite checks that the two agree.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .digraph import (
    Edge,
    EdgeTag,
    LabeledDigraph,
    cartesian_product,
    merge_vertices,
    pair_label,
    transitive_reduction,
)
from .errors import GraphError


class EdgePartition(NamedTuple):
    """Edges of the first factor classified by endpoint membership."""

    pp: tuple[Edge, ...]
    pn: tuple[Edge, ...]
    np: tuple[Edge, ...]
    nn: tuple[Edge, ...]


@dataclass(frozen=True)
class PartitionedGraph:
    """A DAG together with the subset of its vertices that gets multiplied."""

    base: LabeledDigraph
    product_vertices: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "product_vertices", frozenset(self.product_vertices))
        extra = self.product_vertices - self.base.vertices
        if extra:
            raise GraphError(f"product vertices not in the graph: {sorted(extra)}")

    @property
    def nonproduct_vertices(self) -> frozenset[str]:
        return self.base.vertices - self.product_vertices

    def classify_edges(self) -> EdgePartition:
        pp, pn, np, nn = [], [], [], []
        inside = self.product_vertices
        for edge in self.base.sorted_edges:
            src_in, dst_in = edge.src in inside, edge.dst in inside
            if src_in and dst_in:
                pp.append(edge)
            elif src_in:
                pn.append(edge)
            elif dst_in:
                np.append(edge)
            else:
                nn.append(edge)
        return EdgePartition(tuple(pp), tuple(pn), tuple(np), tuple(nn))


def _product_labels(
    pg: PartitionedGraph,
    g2: LabeledDigraph,
    combine: Callable[[str, str], str],
) -> dict[tuple[str, str], str]:
    plain = pg.nonproduct_vertices
    labels: dict[tuple[str, str], str] = {}
    owners: dict[str, tuple[str, str]] = {}
    for u in sorted(pg.product_vertices):
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
            labels[(u, v)] = name
    return labels


def _cover_edges(
    pg: PartitionedGraph,
    g2: LabeledDigraph,
    labels: dict[tuple[str, str], str],
) -> list[Edge]:
    """Edges of the product: its covers when both factors are in Hasse form.

    Product edges keep the tag of their generating factor edge; boundary
    fan-out edges are plumbing and are tagged INHERIT; edges between plain
    vertices keep their tags verbatim (so an empty product subset returns
    the first factor unchanged).
    """
    pp, pn, np, nn = pg.classify_edges()
    sinks, sources = g2.sinks, g2.sources
    edges: list[Edge] = []
    for edge in pp:
        for v in g2.sorted_vertices:
            edges.append(Edge(labels[(edge.src, v)], labels[(edge.dst, v)], edge.tag))
    for u in sorted(pg.product_vertices):
        for edge in g2.sorted_edges:
            edges.append(Edge(labels[(u, edge.src)], labels[(u, edge.dst)], edge.tag))
    for edge in pn:
        for v in sinks:
            edges.append(Edge(labels[(edge.src, v)], edge.dst, EdgeTag.INHERIT))
    for edge in np:
        for v in sources:
            edges.append(Edge(edge.src, labels[(edge.dst, v)], EdgeTag.INHERIT))
    edges.extend(nn)
    return edges


def partial_product(
    pg: PartitionedGraph,
    g2: LabeledDigraph,
    combine: Callable[[str, str], str] = pair_label,
) -> LabeledDigraph:
    """Product of the chosen vertices with `g2`, plain vertices reattached.

    Factors in Hasse form give the Hasse diagram of the result; other
    factors give the same order but may keep implied edges.
    """
    if not g2.vertices:
        raise GraphError("second factor must be nonempty")
    labels = _product_labels(pg, g2, combine)
    vertices = frozenset(labels.values()) | pg.nonproduct_vertices
    return LabeledDigraph(vertices, frozenset(_cover_edges(pg, g2, labels)))


def partial_product_via_merge(
    pg: PartitionedGraph,
    g2: LabeledDigraph,
    combine: Callable[[str, str], str] = pair_label,
) -> LabeledDigraph:
    """Same contract as `partial_product`, computed the long way.

    Builds the full Cartesian product of the first factor with `g2`, merges
    the cluster of copies of every plain vertex back into a single vertex,
    reduces, and relabels.  Kept as an internal cross-check for the direct
    implementation.
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
    renamed = merged.relabeled(lambda v: names[v])
    return transitive_reduction(renamed)
