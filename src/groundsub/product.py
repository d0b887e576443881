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
the second factor.

The successor map is written one row per product vertex, in sorted order,
each row in the order of the second factor's successor map, so a product
of factors built in nearly label order comes out in nearly label order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .digraph import Edge, EdgeTag, LabeledDigraph, pair_label
from .digraph import transitive_reduction  # noqa: F401 - unused here; kept for bench/tracer.py only
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
) -> dict[str, dict[str, str]]:
    """One row per product vertex u, in label order: the label of (u, v)
    for every v of `g2`, in the order `g2`'s successor map was built in."""
    return {u: {v: combine(u, v) for v in g2._out} for u in sorted(pg.product_vertices)}


def _collisions(rows: dict[str, dict[str, str]], plain: frozenset[str]) -> Iterator[str]:
    """A message for each label that collides, in sorted (u, v) order."""
    owners: dict[str, tuple[str, str]] = {}
    for u in sorted(rows):
        for v, name in sorted(rows[u].items()):
            if name in owners:
                yield f"label collision: {name!r} produced by both {owners[name]} and {(u, v)}"
            elif name in plain:
                yield f"label collision: {name!r} already names a non-product vertex"
            owners.setdefault(name, (u, v))


def _cover_edges(
    pg: PartitionedGraph,
    g2: LabeledDigraph,
    rows: dict[str, dict[str, str]],
) -> dict[str, list[tuple[str, EdgeTag]]]:
    """Successor lists of the product: its covers when both factors are in
    Hasse form.

    Product edges keep the tag of their generating factor edge; boundary
    fan-out edges are plumbing and are tagged INHERIT; edges between plain
    vertices keep their tags verbatim (so an empty product subset returns
    the first factor unchanged).
    """
    pp, pn, np, nn = pg.classify_edges()
    second, sinks, sources, inherit = g2._out, g2.sinks, g2.sources, EdgeTag.INHERIT
    out: dict[str, list[tuple[str, EdgeTag]]] = {}
    for row in rows.values():
        for v, targets in second.items():
            out[row[v]] = [(row[w], tag) for w, tag in targets]
    for src, dst, tag in pp:
        lower, upper = rows[src], rows[dst]
        for v in second:
            out[lower[v]].append((upper[v], tag))
    for src, dst, _ in pn:
        row = rows[src]
        for v in sinks:
            out[row[v]].append((dst, inherit))
    for src, dst, _ in np:
        row = rows[dst]
        out.setdefault(src, []).extend([(row[v], inherit) for v in sources])
    for src, dst, tag in nn:
        out.setdefault(src, []).append((dst, tag))
    return out


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
    rows, plain = _product_labels(pg, g2, combine), pg.base.vertices - pg.product_vertices
    vertices = plain.union(chain.from_iterable(map(dict.values, rows.values())))
    if len(vertices) != len(plain) + len(rows) * len(g2.vertices):
        raise GraphError(next(_collisions(rows, plain)))
    return LabeledDigraph(vertices, _cover_edges(pg, g2, rows))
