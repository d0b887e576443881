"""Iterated construction of the ground subtyping relation.

Each step multiplies the subclassing graph, partitioned at its generic
classes, with the containment graph of the wildcard arguments over the
previous approximation.  The sequence of results grows monotonically toward
the (infinite, for any program with a generic class) full relation, so the
number of iterations is always an explicit input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import BipointedGraph, LabeledDigraph, reachable
from .errors import QueryError, SizeLimitError
from .labels import (
    BOTTOM_CLASS,
    TOP_CLASS,
    WILDCARD,
    instantiation_label,
    lower_bounded_label,
    upper_bounded_label,
)
from .product import PartitionedGraph, partial_product
from .typelang import ClassTable, GroundType, canonical_label, rank
from .wildcards import wildcards_graph, wildcards_size

# Most vertices one approximation may have.  `run` predicts every size from
# the vertex recurrence and refuses before it builds anything.
MAX_VERTICES = 200_000


@dataclass(frozen=True)
class IterationTrace:
    """The successive approximations produced by `run`.

    `reached_fixed_point` is set when a step reproduced the previous graph
    exactly, which happens only for programs without generic classes.
    """

    table: ClassTable
    graphs: tuple[BipointedGraph, ...]
    reached_fixed_point: bool

    @property
    def depth(self) -> int:
        return len(self.graphs)

    @property
    def stats(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (len(s.graph.vertices), len(s.graph.edges)) for s in self.graphs
        )

    @property
    def last(self) -> BipointedGraph:
        return self.graphs[-1]


def initial_wildcards() -> LabeledDigraph:
    """The starting containment graph: the default argument alone, no edges."""
    return LabeledDigraph.from_edges(vertices=(WILDCARD,))


def _product_with_arguments(table: ClassTable, arguments: LabeledDigraph) -> BipointedGraph:
    partitioned = PartitionedGraph(table.graph.graph, table.generic)
    result = partial_product(partitioned, arguments, combine=instantiation_label)
    return BipointedGraph(result, top=TOP_CLASS, bottom=BOTTOM_CLASS)


def initial_approximation(table: ClassTable) -> BipointedGraph:
    """First approximation: the subclassing graph with generic classes
    instantiated at the default wildcard."""
    return _product_with_arguments(table, initial_wildcards())


def step(table: ClassTable, current: BipointedGraph) -> BipointedGraph:
    """One iteration: product with the argument graph over `current`."""
    return _product_with_arguments(table, wildcards_graph(current))


def _check_predicted_sizes(table: ClassTable, iterations: int) -> None:
    """Raise `SizeLimitError` when an approximation would exceed `MAX_VERTICES`.

    The sizes follow n_1 = |classes| and n_{k+1} = |plain| + |generic| * 3(n_k - 1).
    """
    plain = len(table.classes) - len(table.generic)
    n = len(table.classes)
    for k in range(1, iterations + 1):
        if n > MAX_VERTICES:
            raise SizeLimitError(
                f"approximation {k} would have {n} vertices, over the limit of {MAX_VERTICES}"
            )
        following = plain + len(table.generic) * wildcards_size(n)
        if following == n:
            return
        n = following


def run(table: ClassTable, iterations: int) -> IterationTrace:
    """Build the first `iterations` approximations.

    Stops early when a step reproduces the previous graph exactly (the
    label and edge sets are compared verbatim), recording the fixed point.
    Raises `SizeLimitError`, before building anything, when an approximation
    would have more than `MAX_VERTICES` vertices.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    _check_predicted_sizes(table, iterations)
    graphs = [initial_approximation(table)]
    fixed = False
    while len(graphs) < iterations:
        nxt = step(table, graphs[-1])
        if nxt == graphs[-1]:
            fixed = True
            break
        graphs.append(nxt)
    return IterationTrace(table, tuple(graphs), fixed)


def sufficient_depth(t1: GroundType, t2: GroundType) -> int:
    """Smallest iteration count whose graph contains both types."""
    return max(rank(t1), rank(t2), 1)


def subtype_by_graph(trace: IterationTrace, t1: GroundType, t2: GroundType) -> bool:
    """Decide subtyping by reachability in the smallest sufficient graph."""
    k = sufficient_depth(t1, t2)
    if k > trace.depth and not trace.reached_fixed_point:
        raise QueryError(
            f"types need {k} iterations but the trace holds {trace.depth}; rerun deeper"
        )
    s = trace.graphs[min(k, trace.depth) - 1]
    return reachable(s.graph, canonical_label(t1), canonical_label(t2))


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
