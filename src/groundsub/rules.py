"""Rule-based decision procedure for ground subtyping and containment.

This module decides subtyping by direct structural recursion over the type
syntax and the declared superclass chains.  It deliberately shares no graph
machinery with the iterated construction so the two can be compared against
each other: `differential_check` runs both over every ordered pair of types
up to a rank bound and reports any disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimitError
from .labels import BOTTOM_CLASS, TOP_CLASS
from .typelang import (
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
    rank,
)

# Most ordered pairs `differential_check` may compare.  It predicts the type
# count from the vertex recurrence and refuses before it builds anything.
MAX_PAIRS = 20_000_000


def _inherits(table: ClassTable, sub: str, sup: str) -> bool:
    """Reflexive reachability in the declared superclass chains.

    Walks parent pointers only; no reachability precomputation is shared
    with the graph construction.
    """
    if sub == sup:
        return True
    if sub == BOTTOM_CLASS:
        return True
    if sup == BOTTOM_CLASS:
        return False
    current = sub
    while current != TOP_CLASS:
        current = table.superclass_of(current)
        if current == sup:
            return True
    return False


def contains_argument(inner: TypeArg, outer: TypeArg, table: ClassTable) -> bool:
    """True when the argument `inner` is contained in the argument `outer`.

    An argument is contained in itself and in the default wildcard; an
    upper-bounded argument contains the upper-bounded and exact arguments
    whose type is a subtype of its bound; a lower-bounded argument contains
    the lower-bounded and exact arguments whose type is a supertype of its
    bound.  Exact (invariant) arguments contain nothing else.
    """
    if inner == outer:
        return True
    match outer:
        case Wild():
            return True
        case Cov(bound):
            match inner:
                case Cov(other) | Inv(other):
                    return is_subtype(other, bound, table)
            return False
        case Con(bound):
            match inner:
                case Con(other) | Inv(other):
                    return is_subtype(bound, other, table)
            return False
        case Inv(_):
            return False
    raise TypeError(f"not a type argument: {outer!r}")


def is_subtype(t1: GroundType, t2: GroundType, table: ClassTable) -> bool:
    """Ground subtyping over normalized types.

    The bottom type is below everything, the top type above everything, and
    otherwise the head classes must be related by inheritance.  When the
    supertype's head is generic, the type arguments must additionally be in
    the containment relation; arguments pass through inheritance verbatim,
    so no substitution is needed along the chain.  The mutual recursion with
    `contains_argument` terminates because bound ranks strictly decrease.

    The cheap name tests come first.  A type is a subtype of itself without
    a test of its own: a class inherits from itself and an argument
    contains itself.
    """
    if t1.name == BOTTOM_CLASS or t2.name == TOP_CLASS:
        return True
    if not _inherits(table, t1.name, t2.name):
        return False
    if not table.is_generic(t2.name):
        return True
    if not table.is_generic(t1.name):
        return False
    assert t1.arg is not None and t2.arg is not None
    return contains_argument(t1.arg, t2.arg, table)


def enumerate_types(table: ClassTable, max_rank: int) -> tuple[GroundType, ...]:
    """All normalized ground types over `table` with rank at most `max_rank`.

    Returned in deterministic order (by rank, then by label).  The count
    matches the vertex count of the construction at the same depth.
    """
    if max_rank < 0:
        raise ValueError("max_rank must be nonnegative")
    plain = [GroundType(c) for c in table.classes if not table.is_generic(c)]
    generics = sorted(table.generic)
    current: list[GroundType] = sorted(plain, key=canonical_label)
    if max_rank == 0:
        return tuple(current)
    current = current + [GroundType(c, Wild()) for c in generics]
    for _ in range(2, max_rank + 1):
        args: list[TypeArg] = []
        for t in current:
            args.append(Inv(t))
            if t not in (OBJECT_TYPE, NULL_TYPE):
                args.append(Cov(t))
                args.append(Con(t))
        fresh = [GroundType(c, a) for c in generics for a in args]
        known = set(current)
        added = [t for t in fresh if t not in known]
        if not added:
            break
        current = current + added
    return tuple(sorted(current, key=lambda t: (rank(t), canonical_label(t))))


@dataclass(frozen=True)
class Mismatch:
    left: str
    right: str
    graph_verdict: bool
    rule_verdict: bool


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of comparing the construction against the decision rules."""

    max_rank: int
    type_count: int
    mismatches: tuple[Mismatch, ...]

    @property
    def pair_count(self) -> int:
        return self.type_count * self.type_count

    @property
    def ok(self) -> bool:
        return not self.mismatches


def differential_check(table: ClassTable, max_rank: int) -> DifferentialReport:
    """Compare both deciders over every ordered pair of enumerated types.

    The graph decides a pair (t1, t2) by the rule `builder.subtype_by_graph`
    applies: in S_k, with k = `sufficient_depth(t1, t2)`, t2 is t1 itself or
    one of t1's descendants.  Here the S_k are built by `run`, not searched
    on demand.  The label and rank of each type are computed once, and each
    row t1 fetches its descendant set once for every k from its own rank
    up; a cell then costs one set lookup.  The last graph is not read
    in place of S_k: that S_k is the restriction of every later graph is a
    law of the construction, and the check is there to test it.

    Mismatches are report content, not exceptions; an empty mismatch list is
    the expected outcome.  Raises `SizeLimitError`, before building or
    enumerating anything, when there would be more than `MAX_PAIRS` pairs.
    """
    from .builder import predicted_sizes, run

    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    # The types up to rank k are the vertices of the k-th approximation.
    for k, n in zip(range(1, max_rank + 1), predicted_sizes(table)):
        if n * n > MAX_PAIRS:
            raise SizeLimitError(
                f"rank {k} has {n} types, so at least {n * n} ordered pairs, "
                f"over the limit of {MAX_PAIRS}"
            )
    trace = run(table, max_rank)
    types = enumerate_types(table, max_rank)
    # Each type with its label and the index of the smallest graph holding it.
    rows = [(t, canonical_label(t), max(rank(t), 1)) for t in types]
    mismatches: list[Mismatch] = []
    for t1, l1, k1 in rows:
        below = {
            k: trace.graphs[k - 1].graph.descendants_of(l1)
            for k in range(k1, trace.depth + 1)
        }
        for t2, l2, k2 in rows:
            by_graph = l1 == l2 or l2 in below[max(k1, k2)]
            by_rules = is_subtype(t1, t2, table)
            if by_graph != by_rules:
                mismatches.append(Mismatch(l1, l2, by_graph, by_rules))
    return DifferentialReport(max_rank, len(types), tuple(mismatches))
