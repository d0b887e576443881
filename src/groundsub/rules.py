"""Rule-based decision procedure for ground subtyping and containment.

This module decides subtyping by direct structural recursion over the type
syntax and the declared superclass chains.  One decider, `_Rules`, works on
hash-consed types: each structurally distinct type of a table is one int
id, so the recursion compares ids, never whole types.  `is_subtype` and
`contains_argument` intern their arguments and ask it.  It deliberately
shares no graph machinery with the iterated construction so the two can be
compared against each other: `differential_check` runs both over every
ordered pair of types up to a rank bound and reports any disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimitError
from .labels import BOTTOM_CLASS, TOP_CLASS
from .typelang import (
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
    canonical_label,
    rank,
)

# Most ordered pairs `differential_check` may compare.  It predicts the type
# count from the vertex recurrence and refuses before it builds anything.
MAX_PAIRS = 20_000_000


class _Rules:
    """The rules of ground subtyping over the hash-consed types of one table.

    `intern` gives each structurally distinct type one int id, stored once
    as its shape (class, argument kind, bound id).  The kind is `None` for a
    plain class, else the class of the argument; the bound id is -1 for a
    plain class and for `?`.  Hashing and comparing ids never recurses into
    a type.  The superclass set of a class is worked out when first needed
    and kept for the life of the instance.
    """

    # `builder.InfiniteGraph` interns types the same way, but this table is
    # kept apart from it: a bug shared by both deciders would be invisible
    # to `selfcheck` and `query`.

    def __init__(self, table: ClassTable):
        self._ids: dict[tuple[str, type | None, int], int] = {}
        self._shapes: list[tuple[str, type | None, int]] = []
        self._supers = _Superclasses(table)

    def intern(self, t: GroundType) -> int:
        """The id of `t`; equal types get the same id."""
        kind, bound = (None, -1) if t.arg is None else self.argument(t.arg)
        shape = (t.name, kind, bound)
        i = self._ids.get(shape)
        if i is None:
            i = self._ids[shape] = len(self._shapes)
            self._shapes.append(shape)
        return i

    def argument(self, arg: TypeArg) -> tuple[type, int]:
        """The (kind, bound id) pair of a type argument."""
        match arg:
            case Wild():
                return Wild, -1
            case Inv(bound) | Cov(bound) | Con(bound):
                return type(arg), self.intern(bound)
        raise TypeError(f"not a type argument: {arg!r}")

    def subtype(self, i: int, j: int) -> bool:
        """True when the type with id `i` is a subtype of the one with id `j`.

        The bottom type is below everything, the top type above everything,
        and otherwise the head classes must be related by inheritance.  When
        the supertype is generic, the arguments must also be in the
        containment relation; arguments pass through inheritance verbatim,
        so no substitution is needed along the chain.  The mutual recursion
        with `contains` terminates because bound ranks strictly decrease.

        The cheap name tests come first.  A type is a subtype of itself
        without a test of its own: a class inherits from itself and an
        argument contains itself.
        """
        name1, kind1, bound1 = self._shapes[i]
        name2, kind2, bound2 = self._shapes[j]
        if name1 == BOTTOM_CLASS or name2 == TOP_CLASS:
            return True
        if name2 not in self._supers[name1]:
            return False
        if kind2 is None:
            return True
        if kind1 is None:
            return False
        return self.contains(kind1, bound1, kind2, bound2)

    def contains(self, kind1: type, bound1: int, kind2: type, bound2: int) -> bool:
        """True when the argument (kind1, bound1) is contained in (kind2, bound2).

        An argument is contained in itself and in the default wildcard; an
        upper-bounded argument contains the upper-bounded and exact
        arguments whose type is a subtype of its bound; a lower-bounded
        argument contains the lower-bounded and exact arguments whose type
        is a supertype of its bound.  Exact arguments contain nothing else.
        """
        if kind2 is Wild or (kind1 is kind2 and bound1 == bound2):
            return True
        if kind2 is Cov:
            return (kind1 is Cov or kind1 is Inv) and self.subtype(bound1, bound2)
        if kind2 is Con:
            return (kind1 is Con or kind1 is Inv) and self.subtype(bound2, bound1)
        return False


class _Superclasses(dict):
    """Maps a class to itself and every class above it in the declared
    chain, walking `table.superclass_of` the first time a class is asked."""

    def __init__(self, table: ClassTable):
        super().__init__()
        self._table = table

    def __missing__(self, name: str) -> frozenset[str]:
        chain = [name]
        while chain[-1] != TOP_CLASS:
            chain.append(self._table.superclass_of(chain[-1]))
        supers = self[name] = frozenset(chain)
        return supers


def contains_argument(inner: TypeArg, outer: TypeArg, table: ClassTable) -> bool:
    """True when the argument `inner` is contained in the argument `outer`.

    Interns both arguments and asks `_Rules.contains`, which states the rule.
    """
    rules = _Rules(table)
    return rules.contains(*rules.argument(inner), *rules.argument(outer))


def is_subtype(t1: GroundType, t2: GroundType, table: ClassTable) -> bool:
    """Ground subtyping over normalized types.

    Interns both types and asks `_Rules.subtype`, which states the rules.
    """
    rules = _Rules(table)
    return rules.subtype(rules.intern(t1), rules.intern(t2))


def enumerate_types(table: ClassTable, max_rank: int) -> tuple[GroundType, ...]:
    """All normalized ground types over `table` with rank at most `max_rank`.

    Returned in deterministic order (by rank, then by label).  The count
    matches the vertex count of the construction at the same depth.  Each
    rank past 2 takes its bounds from the rank before it alone.
    """
    if max_rank < 0:
        raise ValueError("max_rank must be nonnegative")
    plain = [GroundType(c) for c in table.classes if not table.is_generic(c)]
    generics = sorted(table.generic)
    types = sorted(plain, key=canonical_label)
    if max_rank == 0:
        return tuple(types)
    types += sorted((GroundType(c, WILD) for c in generics), key=canonical_label)
    bounds = types
    for _ in range(2, max_rank + 1):
        args: list[TypeArg] = []
        for t in bounds:
            args.append(Inv(t))
            if t not in (OBJECT_TYPE, NULL_TYPE):
                args.append(Cov(t))
                args.append(Con(t))
        bounds = sorted((GroundType(c, a) for c in generics for a in args), key=canonical_label)
        if not bounds:
            break
        types = types + bounds
    return tuple(types)


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
    on demand.  The label and rank of each type are computed once.  Each
    row t1 fetches its descendant set once for every k from its own rank
    k1 up, into a list indexed by the column's rank k2, whose entries below
    k1 repeat the set of S_{k1}; a cell then costs one set lookup in the
    set of S_k, k = max(k1, k2).  The last graph is not read in place of
    S_k: that S_k is the restriction of every later graph is a law of the
    construction, and the check is there to test it.

    The rules side interns each type once and decides a cell with
    `_Rules.subtype` on the two ids.

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
    decider = _Rules(table)
    subtype = decider.subtype
    # Each type with its label, the index of the smallest graph holding it,
    # and its id.
    rows = [(canonical_label(t), max(rank(t), 1), decider.intern(t)) for t in types]
    mismatches: list[Mismatch] = []
    for l1, k1, i in rows:
        own = trace.graphs[k1 - 1].graph.descendants_of(l1)
        below = [own] * (k1 + 1) + [
            trace.graphs[k - 1].graph.descendants_of(l1)
            for k in range(k1 + 1, trace.depth + 1)
        ]
        for l2, k2, j in rows:
            by_graph = l1 == l2 or l2 in below[k2]
            by_rules = subtype(i, j)
            if by_graph != by_rules:
                mismatches.append(Mismatch(l1, l2, by_graph, by_rules))
    return DifferentialReport(max_rank, len(types), tuple(mismatches))
