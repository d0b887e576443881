"""Reference graph algebra the tests check the package against.

None of these functions runs in a command.  The edge lookups read a graph
in ways no command needs.  The rest restate what the package computes
directly, the long way: the general Cartesian product and vertex merging
give `partial_product_via_merge`, whose labels `checked_product_labels`
checks for collisions one pair at a time, closure and restriction give the
laws the approximations must satisfy, and the two image functions restate
the corner rule of `wildcards_graph` one vertex at a time; `edge_tag` gives
the tag of any cover from its two endpoints.  The closure is gathered
bottom-up, not by the package's search, so that it can check that search.
`reference_is_subtype` is the rules decider with its equality tests first,
as it was written before they were replaced by cheaper name tests, on
whole types rather than shape tuples, with its own walk up the superclass
chain.  `reference_hasse` is the Hasse diagram of that decider's order,
which needs no graph code of the package beyond the transitive reduction.
`subtype_by_trace` is the graph decider as it was before it searched covers
on demand: reachability in a materialised approximation.
`reference_reaches` is `InfiniteGraph.reaches` as it was before it searched
from both ends: upward from the first type alone, over the covers that
`InfiniteGraph` works out on demand, each read back as a type by
`shape_type`.
`reference_differential_check` is the differential comparison as it was
before the rules listed up-sets: one `_Rules.subtype` call per ordered
pair, under its own limit on their number.  `reference_json` is the JSON
export as `json.dumps` writes it.  `reference_parse_declarations` and
`reference_parse_ground_type` are the parsers as they were before they read
the texts of one regex scan: recursive descent over the positioned tokens
of their own tokenizer, `_tokenize`, normalising a parsed type in a second
walk.  `reference_rank`, `reference_is_type` with `reference_is_argument`,
and `reference_shape` are the walks down a type's argument chain as they
were before they became loops: one call per level.  `reference_value`
mirrors a type into plain frozen dataclasses, whose generated `==` and
`repr` `GroundType`'s own must equal.
"""

from __future__ import annotations

import dataclasses
import json
import re
from collections.abc import Callable, Iterable, Mapping
from functools import cache
from itertools import accumulate
from typing import NamedTuple, NoReturn

from groundsub import builder
from groundsub.builder import InfiniteGraph, IterationTrace, sufficient_depth
from groundsub.digraph import (
    Edge,
    EdgeTag,
    LabeledDigraph,
    pair_label,
    reachable,
    transitive_reduction,
)
from groundsub.errors import GraphError, ParseError, SizeLimitError
from groundsub.labels import (
    BOTTOM_CLASS,
    TOP_CLASS,
    WILDCARD,
    instantiation_label,
    lower_bounded_label,
    upper_bounded_label,
)
from groundsub.product import PartitionedGraph
from groundsub.rules import (
    DifferentialReport,
    Mismatch,
    _Rules,
    enumerate_types,
)
from groundsub.typelang import (
    _ALIASES,
    _KEYWORDS,
    _RESERVED,
    CORNERS,
    MAX_TYPE_NESTING,
    NULL_TYPE,
    OBJECT_TYPE,
    WILD,
    ClassTable,
    Con,
    Cov,
    GroundType,
    Inv,
    TypeArg,
    Wild,
    _build_table,
    _RawDecl,
    canonical_label,
    rank,
)

# Most ordered pairs `reference_differential_check` may check.  It asks
# about every pair, so its limit counts n², which the package's check does not.
MAX_ALL_PAIRS = 20_000_000


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
    # Strict descendants, gathered in depth-first post-order: a vertex is
    # done once every successor is, which a DAG guarantees will happen.
    below: dict[str, set[str]] = {}
    for root in g.sorted_vertices:
        stack = [root]
        while stack:
            u = stack.pop()
            if u in below:
                continue
            pending = [v for v in g.successors(u) if v not in below]
            if pending:
                stack += [u, *pending]
                continue
            below[u] = set().union(*(below[v] | {v} for v in g.successors(u)))
    tags = {e[:2]: e.tag for e in g.edges}
    edges = []
    for u in g.sorted_vertices:
        for v in sorted(below[u]):
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
    plain = pg.base.vertices - pg.product_vertices
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
    plain = pg.base.vertices - pg.product_vertices
    for w in sorted(plain):
        cluster = [pair_label(w, v) for v in second]
        merged = merge_vertices(merged, cluster, cluster[0])

    final = checked_product_labels(pg, g2, combine)
    names = {pair_label(u, v): lab for u, row in final.items() for v, lab in row.items()}
    for w in plain:
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


def reference_normalize_type(t: GroundType) -> GroundType:
    """`t` with every argument along it in normal form."""
    return t if t.arg is None else GroundType(t.name, reference_normalize_argument(t.arg))


def reference_normalize_argument(arg: TypeArg) -> TypeArg:
    """The corner rewrites, one `match` arm per argument kind and each corner
    compared as a whole type, innermost first."""
    match arg:
        case Wild():
            return WILD
        case Inv(bound):
            return Inv(reference_normalize_type(bound))
        case Cov(bound):
            bound = reference_normalize_type(bound)
            if bound == OBJECT_TYPE:
                return WILD
            if bound == NULL_TYPE:
                return Inv(bound)
            return Cov(bound)
        case Con(bound):
            bound = reference_normalize_type(bound)
            if bound == NULL_TYPE:
                return WILD
            if bound == OBJECT_TYPE:
                return Inv(bound)
            return Con(bound)
    raise TypeError(f"not a type argument: {arg!r}")


def reference_rank(t: GroundType) -> int:
    """`typelang.rank` as it was written: one `match` arm per argument kind,
    recursing into the bound."""
    if t.arg is None:
        return 0
    match t.arg:
        case Wild():
            return 1
        case Inv(bound) | Cov(bound) | Con(bound):
            return 1 + max(reference_rank(bound), 1)
    raise TypeError(f"not a type argument: {t.arg!r}")


def reference_is_type(t: GroundType, table: ClassTable) -> bool:
    """`ClassTable.is_type` as it was written, recursing through
    `reference_is_argument` once per level."""
    if t.name not in table.classes or (t.arg is None) == (t.name in table.generic):
        return False
    return t.arg is None or reference_is_argument(t.arg, table)


def reference_is_argument(arg: TypeArg, table: ClassTable) -> bool:
    """Whether `arg` is a normalised argument over the table: `?`, or a bound
    over the table not in `CORNERS`."""
    corners = CORNERS.get(type(arg))
    if corners is None:
        return isinstance(arg, Wild)
    return arg.bound.name not in corners and reference_is_type(arg.bound, table)


def reference_shape(t: GroundType) -> tuple:
    """The shape tuple both deciders build, (class, argument kind, bound
    shape), built by recursing into the bound."""
    if t.arg is None:
        return t.name, None, None
    if isinstance(t.arg, Wild):
        return t.name, Wild, None
    return t.name, type(t.arg), reference_shape(t.arg.bound)


@cache
def _mirror_class(cls: type) -> type:
    mirror = dataclasses.make_dataclass(
        cls.__name__, [f.name for f in dataclasses.fields(cls)], frozen=True
    )
    mirror.__qualname__ = cls.__qualname__
    return mirror


def reference_value(x: object) -> object:
    """`x` with every dataclass instance in it, a type or an argument, made
    again as an instance of a plain frozen dataclass of the same qualified
    name and fields, whose `==`, `hash` and `repr` are the generated ones.
    Anything else is kept as it is."""
    if not dataclasses.is_dataclass(x) or isinstance(x, type):
        return x
    mirror = _mirror_class(x.__class__)
    return mirror(*(reference_value(getattr(x, f.name)) for f in dataclasses.fields(mirror)))


def edge_tag(t1: GroundType, t2: GroundType) -> EdgeTag:
    """The tag of an edge `t1 -> t2` of any S_k, from its endpoints alone.

    An edge between two head classes is inheritance or the boundary.  An
    edge inside one fibre C<·> is a cover of W(S_j): the link from an exact
    argument to a bounded form of the same bound, a contravariant step when
    either end is lower-bounded or the source is the exact `O` (the
    lower-bounded top), and a covariant step otherwise.
    """
    if t1.name != t2.name:
        return EdgeTag.INHERIT
    a1, a2 = t1.arg, t2.arg
    if isinstance(a1, Inv) and isinstance(a2, (Cov, Con)) and a1.bound == a2.bound:
        return EdgeTag.INV_LINK
    if isinstance(a1, Con) or isinstance(a2, Con) or a1 == Inv(OBJECT_TYPE):
        return EdgeTag.CONTRAVARIANT
    return EdgeTag.COVARIANT


def reference_inherits(table: ClassTable, sub: str, sup: str) -> bool:
    """Reflexive reachability in the declared superclass chains, walking
    parent pointers one class at a time."""
    if sub == sup or sub == BOTTOM_CLASS:
        return True
    if sup == BOTTOM_CLASS:
        return False
    current = sub
    while current != TOP_CLASS:
        current = table.superclass[current]
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
    if t2.name not in table.generic:
        return True
    if t1.name not in table.generic:
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
    if k > trace.depth:
        raise ValueError(f"types need {k} iterations but the trace holds {trace.depth}")
    s = trace.graphs[k - 1]
    return reachable(s.graph, canonical_label(t1), canonical_label(t2))


def shape_type(shape: tuple) -> GroundType:
    """The type of an `InfiniteGraph` shape (class, argument kind, bound shape)."""
    name, kind, bound = shape
    if kind is None:
        return GroundType(name)
    return GroundType(name, WILD if kind is Wild else kind(shape_type(bound)))


def reference_reaches(graph: InfiniteGraph, t1: GroundType, t2: GroundType, k: int) -> bool:
    """True when `t2` is `t1` or lies above it in S_k, by a search upward
    from `t1` alone.  Raises `SizeLimitError` when it would visit more than
    `builder.MAX_VERTICES` vertices, or when a cover needs an approximation
    larger than that enumerated."""
    if t1 == t2:
        return True
    seen = {t1}
    todo = [t1]
    while todo:
        for w in map(shape_type, graph._covers_up(graph._vertex(todo.pop(), k), k)):
            if w == t2:
                return True
            if w not in seen:
                if len(seen) == builder.MAX_VERTICES:
                    raise SizeLimitError(
                        f"the search above {canonical_label(t1)} in approximation {k} "
                        f"passed the limit of {builder.MAX_VERTICES} vertices"
                    )
                seen.add(w)
                todo.append(w)
    return False


def reference_differential_check(table: ClassTable, max_rank: int) -> DifferentialReport:
    """Compare both deciders over every ordered pair of enumerated types.

    The graph decides a pair (t1, t2) by the rule `builder.subtype_by_graph`
    applies: in S_k, with k = `sufficient_depth(t1, t2)`, t2 is t1 itself or
    one of t1's descendants.  Here the S_k are built by `run`, not searched
    on demand.  The label and rank of each type are computed once.  Each
    row t1, of rank k1, gathers its graph verdicts into one set, `above`:
    t1 itself, its descendants in S_{k1} of rank at most k1, and for each
    k > k1 its descendants in S_k of rank exactly k.  A column t2 of rank
    k2 is thus read from S_k, k = max(k1, k2), and a cell costs one set
    lookup.  The last graph is not read in place of S_k: that S_k is the
    restriction of every later graph is a law of the construction, and the
    check is there to test it.

    The rules side converts each type to its shape once and decides a cell
    with `_Rules.subtype` on the two shapes.

    Mismatches are report content, not exceptions; an empty mismatch list is
    the expected outcome.  Raises `SizeLimitError`, before building or
    enumerating anything, when there would be more than `MAX_ALL_PAIRS`
    pairs: unlike the package's check, this one pays for every pair.
    """
    from groundsub.builder import predicted_counts, run

    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    # The types up to rank k are the vertices of the k-th approximation.
    for k, (n, _, _) in zip(range(1, max_rank + 1), predicted_counts(table)):
        if n * n > MAX_ALL_PAIRS:
            raise SizeLimitError(
                f"rank {k} has {n} types, so at least {n * n} ordered pairs, "
                f"over the limit of {MAX_ALL_PAIRS}"
            )
    trace = run(table, max_rank)
    types = enumerate_types(table, max_rank)
    decider = _Rules(table)
    subtype = decider.subtype
    # Each type with its label, the index of the smallest graph holding it,
    # and its shape.
    rows = [(canonical_label(t), max(rank(t), 1), decider.shape(t)) for t in types]
    # The labels whose smallest graph is S_k, and those held by S_k.
    of_rank: list[set[str]] = [set() for _ in range(trace.depth + 1)]
    for label, k, _ in rows:
        of_rank[k].add(label)
    up_to = list(accumulate(of_rank, set.union))
    mismatches: list[Mismatch] = []
    for l1, k1, s1 in rows:
        above = {l1}
        for k in range(k1, trace.depth + 1):
            read = up_to[k1] if k == k1 else of_rank[k]
            above |= read & trace.graphs[k - 1].graph.descendants_of(l1)
        for l2, _, s2 in rows:
            by_graph = l2 in above
            by_rules = subtype(s1, s2)
            if by_graph != by_rules:
                mismatches.append(Mismatch(l1, l2, by_graph, by_rules))
    return DifferentialReport(max_rank, len(types), tuple(mismatches))


class _Token(NamedTuple):
    kind: str  # "name", "punct", "end"
    text: str
    line: int
    column: int


_TOKEN_PATTERN = re.compile(
    r"(?P<newline>\n)|(?P<skip>[^\S\n]+|//[^\n]*)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<punct><:|:>|[<>{}?])"
)


def _tokenize(source: str) -> list[_Token]:
    """Positioned tokens of `source`, with an end token; raises at the first
    character no token starts with."""
    tokens: list[_Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(source):
        match = _TOKEN_PATTERN.match(source, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {source[pos]!r}", line, pos - line_start + 1
            )
        kind, pos = match.lastgroup, match.end()
        if kind == "newline":
            line, line_start = line + 1, pos
        elif kind != "skip":
            tokens.append(_Token(kind, match.group(), line, match.start() - line_start + 1))
    tokens.append(_Token("end", "", line, pos - line_start + 1))
    return tokens


def _error_at(token: _Token, message: str) -> ParseError:
    return ParseError(message, token.line, token.column)


class _TokenStream:
    """Tokens of one source; a token's text alone tells names from punctuation."""

    def __init__(self, source: str):
        self._tokens = _tokenize(source)
        self._pos = 0

    @property
    def current(self) -> _Token:
        return self._tokens[self._pos]

    def advance(self) -> _Token:
        token = self.current
        if token.kind != "end":
            self._pos += 1
        return token

    def at(self, text: str) -> bool:
        return self.current.text == text

    def expect(self, text: str) -> _Token:
        if not self.at(text):
            self.fail(f"expected {text!r}")
        return self.advance()

    def expect_name(self) -> _Token:
        if self.current.kind != "name":
            self.fail("expected a name")
        return self.advance()

    def expect_end(self) -> None:
        if self.current.kind != "end":
            self.fail("unexpected trailing input")

    def fail(self, message: str) -> NoReturn:
        token = self.current
        found = repr(token.text) if token.kind != "end" else "end of input"
        raise _error_at(token, f"{message}, found {found}")


def reference_parse_declarations(source: str) -> ClassTable:
    """`parse_declarations` by recursive descent over `_tokenize`'s tokens."""
    stream = _TokenStream(source)
    decls: list[_RawDecl] = []
    if not stream.at("class") and stream.current.kind != "end":
        stream.fail("expected 'class'")
    while stream.at("class"):
        decls.append(_parse_decl(stream))
    stream.expect_end()
    return _build_table(decls)


def _parse_decl(stream: _TokenStream) -> _RawDecl:
    stream.advance()  # 'class'
    name_tok = stream.expect_name()
    name = name_tok.text
    if name in _KEYWORDS:
        raise _error_at(name_tok, f"{name!r} is a keyword")
    if name in _RESERVED:
        raise _error_at(name_tok, f"{name!r} is reserved and cannot be declared")
    parameter = None
    if stream.at("<"):
        stream.advance()
        param_tok = stream.expect_name()
        if param_tok.text in _KEYWORDS or param_tok.text in _RESERVED:
            raise _error_at(param_tok, f"{param_tok.text!r} cannot be a type parameter")
        parameter = param_tok.text
        stream.expect(">")
    superclass = None
    passthrough = None
    if stream.at("extends"):
        stream.advance()
        super_tok = stream.expect_name()
        if super_tok.text in _KEYWORDS:
            raise _error_at(super_tok, f"{super_tok.text!r} is a keyword")
        superclass = _ALIASES.get(super_tok.text, super_tok.text)
        if superclass == BOTTOM_CLASS:
            raise _error_at(super_tok, "no class may extend the bottom class")
        if stream.at("<"):
            stream.advance()
            passthrough = stream.expect_name().text
            stream.expect(">")
    stream.expect("{")
    stream.expect("}")
    return _RawDecl(name, parameter, superclass, passthrough)


def reference_parse_ground_type(text: str, table: ClassTable) -> GroundType:
    """`parse_ground_type` by recursive descent, then `reference_normalize_type`."""
    stream = _TokenStream(text)
    parsed = _parse_type(stream, table, 0)
    stream.expect_end()
    return reference_normalize_type(parsed)


def _parse_type(stream: _TokenStream, table: ClassTable, depth: int) -> GroundType:
    name_tok = stream.expect_name()
    if name_tok.text in _KEYWORDS:
        raise _error_at(name_tok, f"{name_tok.text!r} is a keyword")
    name = _ALIASES.get(name_tok.text, name_tok.text)
    if name not in table.classes:
        raise _error_at(name_tok, f"unknown class {name!r}")
    if stream.at("<"):
        open_tok = stream.advance()
        if name not in table.generic:
            raise _error_at(open_tok, f"{name!r} is not generic and takes no argument")
        if depth == MAX_TYPE_NESTING:
            raise _error_at(
                open_tok, f"type arguments nested deeper than {MAX_TYPE_NESTING} levels"
            )
        arg = _parse_argument(stream, table, depth + 1)
        stream.expect(">")
        return GroundType(name, arg)
    if name in table.generic:
        raise _error_at(name_tok, f"generic class {name!r} needs a type argument")
    return GroundType(name)


def _parse_argument(stream: _TokenStream, table: ClassTable, depth: int) -> TypeArg:
    if stream.at("?"):
        stream.advance()
        if stream.at("<:") or stream.at("extends"):
            stream.advance()
            return Cov(_parse_type(stream, table, depth))
        if stream.at(":>") or stream.at("super"):
            stream.advance()
            return Con(_parse_type(stream, table, depth))
        return WILD
    return Inv(_parse_type(stream, table, depth))
