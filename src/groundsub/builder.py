"""Iterated construction of the ground subtyping relation.

Each step multiplies the subclassing graph, partitioned at its generic
classes, with the containment graph of the wildcard arguments over the
previous approximation.  The sequence of results grows monotonically toward
the (infinite, for any program with a generic class) full relation, so the
number of iterations is always an explicit input.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .digraph import BipointedGraph, LabeledDigraph, reachable
from .errors import QueryError, SizeLimitError
from .labels import BOTTOM_CLASS, TOP_CLASS, WILDCARD, instantiation_label
from .product import PartitionedGraph, partial_product
from .typelang import ClassTable, GroundType, canonical_label, rank
from .wildcards import wildcards_graph, wildcards_size

# Most vertices one approximation may have.  `run` predicts every size from
# the vertex recurrence and refuses before it builds anything.
MAX_VERTICES = 200_000


@dataclass(frozen=True)
class IterationTrace:
    """The successive approximations produced by `run`.

    `reached_fixed_point` is set when a step would reproduce the previous
    graph exactly, which happens only for programs without generic classes.
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


def predicted_sizes(table: ClassTable) -> Iterator[int]:
    """Vertex counts of the approximations, from the recurrence
    n_1 = |classes| and n_{k+1} = |plain| + |generic| * 3(n_k - 1).

    Endless for a table with generic classes, whose sizes strictly grow;
    a single count for one without, whose first graph is the fixed point.
    """
    plain = len(table.classes) - len(table.generic)
    n = len(table.classes)
    yield n
    while table.generic:
        n = plain + len(table.generic) * wildcards_size(n)
        yield n


def run(table: ClassTable, iterations: int) -> IterationTrace:
    """Build the first `iterations` approximations.

    A table without generic classes stops at its first graph, which every
    further step would reproduce, and records the fixed point.  Raises
    `SizeLimitError`, before building anything, when an approximation would
    have more than `MAX_VERTICES` vertices.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    for k, n in zip(range(1, iterations + 1), predicted_sizes(table)):
        if n > MAX_VERTICES:
            raise SizeLimitError(
                f"approximation {k} would have {n} vertices, over the limit of {MAX_VERTICES}"
            )
    graphs = [initial_approximation(table)]
    while len(graphs) < iterations and table.generic:
        graphs.append(step(table, graphs[-1]))
    fixed = not table.generic and iterations > 1
    return IterationTrace(table, tuple(graphs), reached_fixed_point=fixed)


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
