"""Iterated construction of the ground subtyping relation, and queries on it.

Each step multiplies the subclassing graph, partitioned at its generic
classes, with the containment graph of the wildcard arguments over the
previous approximation.  The sequence of results grows monotonically toward
the (infinite, for any program with a generic class) full relation, so the
number of iterations is always an explicit input.

`InfiniteGraph` answers questions about the same approximations one vertex
at a time, from the rules the construction applies, without building any of
them; `subtype_by_graph` decides subtyping with it.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass

from .digraph import BipointedGraph, LabeledDigraph
from .digraph import reachable  # noqa: F401 - unused here; kept for bench/tracer.py only
from .errors import GraphError, SizeLimitError
from .labels import BOTTOM_CLASS, TOP_CLASS, WILDCARD, instantiation_label
from .product import PartitionedGraph, partial_product
from .typelang import (
    WILD,
    ClassTable,
    Con,
    Cov,
    GroundType,
    Inv,
    Wild,
    canonical_label,
    rank,
)
from .wildcards import wildcards_graph, wildcards_size

# Most vertices one approximation may have, and most vertices one query may
# visit.  `run` and `InfiniteGraph` predict every size from the vertex
# recurrence and refuse before they build or enumerate anything.
MAX_VERTICES = 200_000


@dataclass(frozen=True)
class IterationTrace:
    """The successive approximations produced by `run`.

    `reached_fixed_point` is set when a step would reproduce the previous
    graph exactly, which happens only for programs without generic classes.
    """

    graphs: tuple[BipointedGraph, ...]
    reached_fixed_point: bool

    @property
    def depth(self) -> int:
        return len(self.graphs)

    @property
    def stats(self) -> tuple[tuple[int, int], ...]:
        return tuple((len(s.graph.vertices), s.graph.edge_count) for s in self.graphs)

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
    have more than `MAX_VERTICES` vertices.  After each step it checks the
    paper's size laws, |S_k| = n_k and |W(S_k)| = 3(n_k - 1) with n_k from
    `predicted_sizes`, and raises `GraphError` naming the law that fails.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    sizes = []
    for k, n in zip(range(1, iterations + 1), predicted_sizes(table)):
        _refuse_oversized(k, n)
        sizes.append(n)
    graphs = [initial_approximation(table)]
    _check_size_law("|S_k| = n_k", 1, len(graphs[0].vertices), sizes[0])
    for k in range(1, len(sizes)):
        arguments = wildcards_graph(graphs[-1])
        _check_size_law(
            "|W(S_k)| = 3(n_k - 1)", k, len(arguments.vertices), wildcards_size(sizes[k - 1])
        )
        graphs.append(_product_with_arguments(table, arguments))
        _check_size_law("|S_k| = n_k", k + 1, len(graphs[-1].vertices), sizes[k])
    fixed = not table.generic and iterations > 1
    return IterationTrace(tuple(graphs), reached_fixed_point=fixed)


def _check_size_law(law: str, k: int, actual: int, predicted: int) -> None:
    if actual != predicted:
        raise GraphError(
            f"size law {law} fails at k = {k}: {actual} vertices, predicted {predicted}"
        )


def _refuse_oversized(k: int, n: int) -> None:
    if n > MAX_VERTICES:
        raise SizeLimitError(
            f"approximation {k} would have {n} vertices, over the limit of {MAX_VERTICES}"
        )


def sufficient_depth(t1: GroundType, t2: GroundType) -> int:
    """Smallest iteration count whose graph contains both types."""
    return max(rank(t1), rank(t2), 1)


class InfiniteGraph:
    """The ground subtyping graph of a table, one vertex at a time.

    Every approximation S_k is a finite restriction of this infinite graph.
    `covers_up` and `covers_down` give the Hasse covers of a vertex in S_k,
    derived from the rules `partial_product` and `wildcards_graph` build
    S_k with; nothing is materialised.  Covers depend on k (`N -> C<?>` is
    a cover in S_1 but not in S_2), so k is always explicit.  Results are
    memoised per (type, k) for the lifetime of the instance.

    Inside, a type is an int: one id per (class, argument kind, bound id),
    so hashing and comparing never recurse into the type.  The argument
    kind is `None` for a plain class, else the class of the argument, and
    an argument of W(S_j) is a (kind, bound id) pair, with bound -1 for `?`.
    The ids pay here because the search hashes every vertex it visits: on
    shape tuples, the refused 200,000-vertex searches ran slower.
    """

    def __init__(self, table: ClassTable):
        self.table = table
        self._parents: dict[str, list[str]] = defaultdict(list)
        self._children: dict[str, list[str]] = defaultdict(list)
        for sub, sup in sorted(table.extends_edges):
            self._parents[sub].append(sup)
            self._children[sup].append(sub)
        self._ids: dict[tuple, int] = {}
        self._shapes: list[tuple] = []
        self._top = self._id(TOP_CLASS)
        self._bottom = self._id(BOTTOM_CLASS)
        self._up: dict[tuple[int, int], tuple[int, ...]] = {}
        self._down: dict[tuple[int, int], tuple[int, ...]] = {}
        self._vertices: dict[int, tuple[int, ...]] = {}

    def covers_up(self, t: GroundType, k: int) -> tuple[GroundType, ...]:
        """The successors of `t` in S_k."""
        return tuple(map(self._ground, self._covers_up(self._vertex(t, k), k)))

    def covers_down(self, t: GroundType, k: int) -> tuple[GroundType, ...]:
        """The predecessors of `t` in S_k."""
        return tuple(map(self._ground, self._covers_down(self._vertex(t, k), k)))

    def vertices(self, k: int) -> tuple[GroundType, ...]:
        """V(S_k): the plain classes, and C<a> for every generic class C and
        every argument a of W(S_{k-1}) (only `?` when k = 1).

        Raises `ValueError` when k < 1, and `SizeLimitError`, before
        enumerating anything, when S_k would have more than `MAX_VERTICES`
        vertices.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        return tuple(map(self._ground, self._vertex_ids(k)))

    def reaches(self, t1: GroundType, t2: GroundType, k: int) -> bool:
        """True when `t2` is `t1` or lies above it in S_k.

        Searches upward from `t1`.  Raises `SizeLimitError` when the search
        would visit more than `MAX_VERTICES` vertices.
        """
        start, goal = self._vertex(t1, k), self._vertex(t2, k)
        if start == goal:
            return True
        seen = {start}
        todo = [start]
        while todo:
            for w in self._covers_up(todo.pop(), k):
                if w == goal:
                    return True
                if w not in seen:
                    if len(seen) == MAX_VERTICES:
                        raise SizeLimitError(
                            f"the search above {canonical_label(t1)} in approximation {k} "
                            f"passed the limit of {MAX_VERTICES} vertices"
                        )
                    seen.add(w)
                    todo.append(w)
        return False

    # -- types and ids

    def _id(self, name: str, kind: type | None = None, bound: int = -1) -> int:
        key = (name, kind, bound)
        v = self._ids.setdefault(key, len(self._shapes))
        if v == len(self._shapes):
            self._shapes.append(key)
        return v

    def _vertex(self, t: GroundType, k: int) -> int:
        """The id of `t`, which must be a vertex of S_k."""
        if not (self.table.is_type(t) and max(rank(t), 1) <= k):
            raise GraphError(f"{canonical_label(t)!r} is not a vertex of approximation {k}")
        return self._intern(t)

    def _intern(self, t: GroundType) -> int:
        if t.arg is None:
            return self._id(t.name)
        if isinstance(t.arg, Wild):
            return self._id(t.name, Wild)
        return self._id(t.name, type(t.arg), self._intern(t.arg.bound))

    def _ground(self, v: int) -> GroundType:
        name, kind, bound = self._shapes[v]
        if kind is None:
            return GroundType(name)
        if kind is Wild:
            return GroundType(name, WILD)
        return GroundType(name, kind(self._ground(bound)))

    # -- the rules

    def _vertex_ids(self, k: int) -> tuple[int, ...]:
        if k not in self._vertices:
            for j, n in zip(range(1, k + 1), predicted_sizes(self.table)):
                _refuse_oversized(j, n)
            arguments: list[tuple] = [(Wild, -1)]
            if k > 1:
                for v in self._vertex_ids(k - 1):
                    arguments.append((Inv, v))
                    if v not in (self._top, self._bottom):
                        arguments += ((Cov, v), (Con, v))
            generic = self.table.generic
            plain = [self._id(c) for c in self.table.classes if c not in generic]
            self._vertices[k] = (
                *plain,
                *(self._id(c, *a) for c in sorted(generic) for a in arguments),
            )
        return self._vertices[k]

    def _sources(self, k: int) -> list[tuple]:
        # The sources of W(S_{k-1}): the lone `?` for k = 1, and after that
        # every exact argument.
        if k == 1:
            return [(Wild, -1)]
        return [(Inv, v) for v in self._vertex_ids(k - 1)]

    def _covers_up(self, v: int, k: int) -> tuple[int, ...]:
        key = (v, k)
        if key in self._up:
            return self._up[key]
        name, kind, bound = self._shapes[v]
        generic = self.table.generic
        covers: list[int] = []
        for p in self._parents[name]:
            if kind is None:
                if p in generic:  # np: into the copies at the sources
                    covers += [self._id(p, *a) for a in self._sources(k)]
                else:  # nn
                    covers.append(self._id(p))
            elif p in generic:  # pp
                covers.append(self._id(p, kind, bound))
            elif kind is Wild:  # pn: out of the copy at the sink `?`
                covers.append(self._id(p))
        if kind is not None:
            covers += [self._id(name, *a) for a in self._argument_up(kind, bound, k - 1)]
        self._up[key] = result = tuple(covers)
        return result

    def _covers_down(self, v: int, k: int) -> tuple[int, ...]:
        key = (v, k)
        if key in self._down:
            return self._down[key]
        name, kind, bound = self._shapes[v]
        generic = self.table.generic
        covers: list[int] = []
        for c in self._children[name]:
            if kind is None:  # pn into the copy at the sink `?`, or nn
                covers.append(self._id(c, Wild) if c in generic else self._id(c))
            elif c in generic:  # pp
                covers.append(self._id(c, kind, bound))
            elif k == 1 or kind is Inv:  # np: out of the sources
                covers.append(self._id(c))
        if kind is not None:
            covers += [self._id(name, *a) for a in self._argument_down(kind, bound, k - 1)]
        self._down[key] = result = tuple(covers)
        return result

    def _upper(self, v: int) -> tuple:
        """`? <: v`, with the corners of `wildcards_graph` coalesced."""
        if v == self._top:
            return (Wild, -1)
        return (Inv if v == self._bottom else Cov, v)

    def _lower(self, v: int) -> tuple:
        """`? :> v`, with the corners of `wildcards_graph` coalesced."""
        if v == self._bottom:
            return (Wild, -1)
        return (Inv if v == self._top else Con, v)

    def _argument_up(self, kind: type, bound: int, j: int) -> list[tuple]:
        """Successors of an argument in W(S_j); W(S_0) is the lone `?`."""
        if j == 0 or kind is Wild:
            return []
        if kind is Inv and bound not in (self._top, self._bottom):
            return [(Cov, bound), (Con, bound)]
        # The exact N is the upper-bounded copy of N, the exact O the
        # lower-bounded copy of O.
        if kind is Cov or bound == self._bottom:
            return [self._upper(w) for w in self._covers_up(bound, j)]
        return [self._lower(w) for w in self._covers_down(bound, j)]

    def _argument_down(self, kind: type, bound: int, j: int) -> list[tuple]:
        """Predecessors of an argument in W(S_j); exact arguments are its sources."""
        if j == 0 or kind is Inv:
            return []
        if kind is Wild:  # both the upper-bounded O and the lower-bounded N
            return [self._upper(w) for w in self._covers_down(self._top, j)] + [
                self._lower(w) for w in self._covers_up(self._bottom, j)
            ]
        if kind is Cov:
            return [self._upper(w) for w in self._covers_down(bound, j)] + [(Inv, bound)]
        return [self._lower(w) for w in self._covers_up(bound, j)] + [(Inv, bound)]


def subtype_by_graph(table: ClassTable, t1: GroundType, t2: GroundType) -> bool:
    """Decide subtyping by reachability in the smallest sufficient graph.

    True when `t2` is `t1` or lies above it in S_k, with k =
    `sufficient_depth(t1, t2)`.  The search goes upward from `t1` through
    covers worked out on demand, so no approximation is built.  Raises
    `SizeLimitError` when it would visit more than `MAX_VERTICES` vertices,
    or enumerate an approximation larger than that.
    """
    return InfiniteGraph(table).reaches(t1, t2, sufficient_depth(t1, t2))
