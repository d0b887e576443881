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
# visit.  `run` and `InfiniteGraph` read every size from `predicted_counts`
# and refuse before they build or enumerate anything.
MAX_VERTICES = 200_000


@dataclass(frozen=True)
class IterationTrace:
    """The successive approximations produced by `run`, S_1 first."""

    graphs: tuple[BipointedGraph, ...]

    @property
    def depth(self) -> int:
        return len(self.graphs)

    @property
    def stats(self) -> tuple[tuple[int, int], ...]:
        return tuple((len(s.graph.vertices), s.graph.edge_count) for s in self.graphs)

    @property
    def last(self) -> BipointedGraph:
        return self.graphs[-1]


def _product_with_arguments(table: ClassTable, arguments: LabeledDigraph) -> BipointedGraph:
    partitioned = PartitionedGraph(table.graph.graph, table.generic)
    result = partial_product(partitioned, arguments, combine=instantiation_label)
    return BipointedGraph(result, top=TOP_CLASS, bottom=BOTTOM_CLASS)


def predicted_counts(table: ClassTable) -> Iterator[tuple[int, int, int]]:
    """The vertex, edge and true-pair counts (n_k, e_k, P_k) of S_1, S_2, …,
    from the class table alone.

    W(S_k) has 3(n_k - 1) vertices and 2e_k + 2(n_k - 2) edges, and S_k+1
    multiplies the class graph with it, so
    n_1 = |classes| and n_k+1 = |plain| + |generic| * 3(n_k - 1);
    e_1 = pp + pn + np + nn and
    e_k+1 = pp * 3(n_k - 1) + |generic| * (2e_k + 2(n_k - 2)) + pn + np * n_k + nn;
    P_1 = 2n_1 - 1 + A + B + G and
    P_k+1 = 2n_k+1 - 1 + A + B * 3(n_k - 1) + G * (4P_k - 2n_k - 3).
    pp, pn, np and nn count the class graph's edges from a generic or plain
    class to a generic or plain one.  P_k counts the pairs s <= t of S_k,
    s = t included; A, B and G count the pairs P ⊑ Q with Q not the top: of
    plain classes with P not the bottom, of a generic P and a plain Q, and
    of generic ones.

    Endless for a table with generic classes, whose sizes strictly grow; a
    single triple for one without, whose first graph is the fixed point.
    """
    generic = table.generic
    ends = [(sub in generic, sup in generic) for sub, sup in table.extends_edges]
    pp, pn, np, nn = map(ends.count, ((True, True), (True, False), (False, True), (False, False)))
    # Each class's plain and generic ancestors, itself included and the top not.
    ancestors = {TOP_CLASS: (0, 0)}
    for name in table.superclass:
        chain = []
        while name not in ancestors:
            chain.append(name)
            name = table.superclass[name]
        for name in reversed(chain):
            plains, generics = ancestors[table.superclass[name]]
            ancestors[name] = (plains, generics + 1) if name in generic else (plains + 1, generics)
    a = sum(plains for c, (plains, _) in ancestors.items() if c not in generic)
    b = sum(ancestors[c][0] for c in generic)
    g = sum(ancestors[c][1] for c in generic)
    n = len(table.classes)
    plain = n - len(generic)
    e = pp + pn + np + nn
    pairs = 2 * n - 1 + a + b + g
    yield n, e, pairs
    while generic:
        w = wildcards_size(n)
        after = plain + len(generic) * w
        e = pp * w + len(generic) * (2 * e + 2 * (n - 2)) + pn + np * n + nn
        pairs = 2 * after - 1 + a + b * w + g * (4 * pairs - 2 * n - 3)
        n = after
        yield n, e, pairs


def run(table: ClassTable, iterations: int) -> IterationTrace:
    """Build the first `iterations` approximations.

    S_1 is the subclassing graph times the lone default wildcard `?`, so
    each generic class stands instantiated at `?`.  A table without generic
    classes stops at S_1, which every further step would reproduce.  Raises
    `SizeLimitError`, before building anything, when an approximation would
    have more than `MAX_VERTICES` vertices.  After each step it checks the
    size and edge laws of S_k and W(S_k), with n_k and e_k from
    `predicted_counts`, and raises `GraphError` naming the law that fails.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    counts = _counts_within_limit(table, iterations)
    graphs = [_product_with_arguments(table, LabeledDigraph.from_edges(vertices=(WILDCARD,)))]
    _check_laws(_LAWS_OF_S, 1, graphs[0].graph, *counts[0][:2])
    for k, (n, e, _) in enumerate(counts[:-1], start=1):
        arguments = wildcards_graph(graphs[-1])
        _check_laws(_LAWS_OF_W, k, arguments, wildcards_size(n), 2 * e + 2 * (n - 2))
        graphs.append(_product_with_arguments(table, arguments))
        _check_laws(_LAWS_OF_S, k + 1, graphs[-1].graph, *counts[k][:2])
    return IterationTrace(tuple(graphs))


_LAWS_OF_S = "size law |S_k| = n_k", "edge law |E(S_k)| = e_k"
_LAWS_OF_W = "size law |W(S_k)| = 3(n_k - 1)", "edge law |E(W(S_k))| = 2e_k + 2(n_k - 2)"


def _check_laws(laws: tuple[str, str], k: int, g: LabeledDigraph, size: int, edges: int) -> None:
    """`g` must have `size` vertices and `edges` edges, or the first law of
    `laws` that fails, the size law or the edge law, is raised for k."""
    for law, actual, predicted, unit in (
        (laws[0], len(g.vertices), size, "vertices"),
        (laws[1], g.edge_count, edges, "edges"),
    ):
        if actual != predicted:
            raise GraphError(f"{law} fails at k = {k}: {actual} {unit}, predicted {predicted}")


def _counts_within_limit(table: ClassTable, k: int) -> list[tuple[int, int, int]]:
    """The predicted counts of S_1 to S_k (only of S_1 for a table without
    generic classes).  Raises `SizeLimitError` at the first n_k over
    `MAX_VERTICES`, before the counts after it are worked out."""
    counts = []
    for j, (n, e, pairs) in zip(range(1, k + 1), predicted_counts(table)):
        if n > MAX_VERTICES:
            raise SizeLimitError(
                f"approximation {j} would have {n} vertices, over the limit of {MAX_VERTICES}"
            )
        counts.append((n, e, pairs))
    return counts


def sufficient_depth(t1: GroundType, t2: GroundType) -> int:
    """Smallest iteration count whose graph contains both types."""
    return max(rank(t1), rank(t2), 1)


_TOP = (TOP_CLASS, None, None)
_BOTTOM = (BOTTOM_CLASS, None, None)


def _shape(t: GroundType) -> tuple:
    stack = None  # the bounded levels passed going down, the deepest on top
    while (arg := t.arg) is not None and not isinstance(arg, Wild):
        stack = t.name, type(arg), stack
        t = arg.bound
    shape = t.name, None if arg is None else Wild, None
    while stack is not None:
        name, kind, stack = stack
        shape = name, kind, shape
    return shape


class InfiniteGraph:
    """The ground subtyping graph of a table, one vertex at a time.

    Every approximation S_k is a finite restriction of this infinite graph.
    `reaches` searches it over the Hasse covers of each vertex in S_k, which
    `_covers_up` and `_covers_down` derive from the rules `partial_product`
    and `wildcards_graph` build S_k with; nothing is materialised.  Covers
    depend on k (`N -> C<?>` is a cover in S_1 but not in S_2), so k is
    always explicit.  Results are memoised per (shape, k) for the lifetime
    of the instance.

    Inside, a type is its shape, the tuple (class, argument kind, bound
    shape).  The kind is `None` for a plain class, else the class of the
    argument; the bound shape is `None` for a plain class and for `?`.  An
    argument of W(S_j) is a (kind, bound shape) pair.
    """

    def __init__(self, table: ClassTable):
        self.table = table
        self._parents: dict[str, list[str]] = defaultdict(list)
        self._children: dict[str, list[str]] = defaultdict(list)
        for sub, sup in sorted(table.extends_edges):
            self._parents[sub].append(sup)
            self._children[sup].append(sub)
        self._up: dict[tuple[tuple, int], tuple[tuple, ...]] = {}
        self._down: dict[tuple[tuple, int], tuple[tuple, ...]] = {}
        self._vertices: dict[int, tuple[tuple, ...]] = {}

    def reaches(self, t1: GroundType, t2: GroundType, k: int) -> bool:
        """True when `t2` is `t1` or lies above it in S_k.

        Searches from both ends (Pohl's bi-directional search): upward
        from `t1` over the up-covers and downward from `t2` over the
        down-covers, each step expanding the side with the shorter stack.
        It is true when one side reaches a vertex the other has seen, and
        false once either side runs out, having seen all it can reach.  The
        two visited sets together hold at most `MAX_VERTICES` vertices.  A
        step that would pass that limit, or enumerate an approximation
        larger than it, stops its side: the side gives back the room it
        took, and the other goes on alone.  Raises the first
        `SizeLimitError` once both sides have stopped.
        """
        start, goal = self._vertex(t1, k), self._vertex(t2, k)
        if start == goal:
            return True
        covers_up, covers_down = self._covers_up, self._covers_down
        up, down = [start], [goal]
        above, below = {start}, {goal}
        stopped, refusal = None, None
        while up and down:
            if down is stopped or (up is not stopped and len(up) <= len(down)):
                covers, todo = covers_up, up
                seen, other = above, below
            else:
                covers, todo = covers_down, down
                seen, other = below, above
            v = todo.pop()
            try:
                for w in covers(v, k):
                    if w in other:
                        return True
                    if w not in seen:
                        if len(seen) + len(other) >= MAX_VERTICES:
                            raise SizeLimitError(
                                f"the search between {canonical_label(t1)} and "
                                f"{canonical_label(t2)} in approximation {k} "
                                f"passed the limit of {MAX_VERTICES} vertices"
                            )
                        seen.add(w)
                        todo.append(w)
            except SizeLimitError as e:
                if stopped is not None:
                    raise refusal from None
                # The side stops and gives back the room it took: it keeps
                # only its own type, and the other side goes on alone.
                root = start if todo is up else goal
                seen.clear()
                seen.add(root)
                todo[:] = [root]
                stopped, refusal = todo, e
        return False

    # -- types and shapes

    def _vertex(self, t: GroundType, k: int) -> tuple:
        """The shape of `t`, which must be a vertex of S_k."""
        if not (self.table.is_type(t) and max(rank(t), 1) <= k):
            raise GraphError(f"{canonical_label(t)!r} is not a vertex of approximation {k}")
        return _shape(t)

    # -- the rules

    def _vertices_of(self, k: int) -> tuple[tuple, ...]:
        if k not in self._vertices:
            _counts_within_limit(self.table, k)
            arguments: list[tuple] = [(Wild, None)]
            if k > 1:
                for v in self._vertices_of(k - 1):
                    arguments.append((Inv, v))
                    if v not in (_TOP, _BOTTOM):
                        arguments += ((Cov, v), (Con, v))
            generic = self.table.generic
            plain = [(c, None, None) for c in self.table.classes if c not in generic]
            self._vertices[k] = (*plain, *((c, *a) for c in sorted(generic) for a in arguments))
        return self._vertices[k]

    def _sources(self, k: int) -> list[tuple]:
        # The sources of W(S_{k-1}): the lone `?` for k = 1, and after that
        # every exact argument.
        if k == 1:
            return [(Wild, None)]
        return [(Inv, v) for v in self._vertices_of(k - 1)]

    def _covers_up(self, v: tuple, k: int) -> tuple[tuple, ...]:
        key = (v, k)
        if key in self._up:
            return self._up[key]
        name, kind, bound = v
        generic = self.table.generic
        covers: list[tuple] = []
        for p in self._parents[name]:
            if kind is None:
                if p in generic:  # np: into the copies at the sources
                    covers += [(p, *a) for a in self._sources(k)]
                else:  # nn
                    covers.append((p, None, None))
            elif p in generic:  # pp
                covers.append((p, kind, bound))
            elif kind is Wild:  # pn: out of the copy at the sink `?`
                covers.append((p, None, None))
        if kind is not None:
            covers += [(name, *a) for a in self._argument_up(kind, bound, k - 1)]
        self._up[key] = result = tuple(covers)
        return result

    def _covers_down(self, v: tuple, k: int) -> tuple[tuple, ...]:
        key = (v, k)
        if key in self._down:
            return self._down[key]
        name, kind, bound = v
        generic = self.table.generic
        covers: list[tuple] = []
        for c in self._children[name]:
            if kind is None:  # pn into the copy at the sink `?`, or nn
                covers.append((c, Wild, None) if c in generic else (c, None, None))
            elif c in generic:  # pp
                covers.append((c, kind, bound))
            elif k == 1 or kind is Inv:  # np: out of the sources
                covers.append((c, None, None))
        if kind is not None:
            covers += [(name, *a) for a in self._argument_down(kind, bound, k - 1)]
        self._down[key] = result = tuple(covers)
        return result

    def _upper(self, v: tuple) -> tuple:
        """`? <: v`, with the corners of `wildcards_graph` coalesced."""
        if v == _TOP:
            return (Wild, None)
        return (Inv if v == _BOTTOM else Cov, v)

    def _lower(self, v: tuple) -> tuple:
        """`? :> v`, with the corners of `wildcards_graph` coalesced."""
        if v == _BOTTOM:
            return (Wild, None)
        return (Inv if v == _TOP else Con, v)

    def _argument_up(self, kind: type, bound: tuple | None, j: int) -> list[tuple]:
        """Successors of an argument in W(S_j); W(S_0) is the lone `?`."""
        if j == 0 or kind is Wild:
            return []
        if kind is Inv and bound not in (_TOP, _BOTTOM):
            return [(Cov, bound), (Con, bound)]
        # The exact N is the upper-bounded copy of N, the exact O the
        # lower-bounded copy of O.
        if kind is Cov or bound == _BOTTOM:
            return [self._upper(w) for w in self._covers_up(bound, j)]
        return [self._lower(w) for w in self._covers_down(bound, j)]

    def _argument_down(self, kind: type, bound: tuple | None, j: int) -> list[tuple]:
        """Predecessors of an argument in W(S_j); exact arguments are its sources."""
        if j == 0 or kind is Inv:
            return []
        if kind is Wild:  # both the upper-bounded O and the lower-bounded N
            return [self._upper(w) for w in self._covers_down(_TOP, j)] + [
                self._lower(w) for w in self._covers_up(_BOTTOM, j)
            ]
        if kind is Cov:
            return [self._upper(w) for w in self._covers_down(bound, j)] + [(Inv, bound)]
        return [self._lower(w) for w in self._covers_up(bound, j)] + [(Inv, bound)]


def subtype_by_graph(table: ClassTable, t1: GroundType, t2: GroundType) -> bool:
    """Decide subtyping by reachability in the smallest sufficient graph.

    True when `t2` is `t1` or lies above it in S_k, with k =
    `sufficient_depth(t1, t2)`.  `InfiniteGraph.reaches` searches up from
    `t1` and down from `t2` at once, through covers worked out on demand,
    so no approximation is built.  Raises `SizeLimitError` when both sides
    of the search have stopped, each at a step that would visit more than
    `MAX_VERTICES` vertices in all or enumerate an approximation larger
    than that.
    """
    return InfiniteGraph(table).reaches(t1, t2, sufficient_depth(t1, t2))
