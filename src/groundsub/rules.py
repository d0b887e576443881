"""Rule-based decision procedure for ground subtyping and containment.

This module decides subtyping by direct structural recursion over the type
syntax and the declared superclass chains.  One method, `_Rules.subtype`,
states every rule on type shapes, plain tuples it unpacks and compares;
containment is subtyping under one shared head, as `C<a> <: C<b>` holds
exactly when `a` is contained in `b`.  It deliberately shares no graph
machinery with the iterated construction so the two can be compared against
each other: `differential_check` runs both over every ordered pair of types
up to a rank bound and reports any disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

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
    argument_label,
    canonical_label,
    rank,
)

# Most ordered pairs `differential_check` may compare.  It predicts the type
# count from the vertex recurrence and refuses before it builds anything.
MAX_PAIRS = 20_000_000

# The head `contains_argument` puts both arguments under: a generic class that
# is its own only superclass.  No class of a table can be this non-string.
_ARGUMENT_HEAD = object()


class _Rules:
    """The rules of ground subtyping over the types of one table.

    A type is its shape, the tuple (class, argument kind, bound shape).  The
    kind is `None` for a plain class, else the class of the argument; the
    bound shape is `None` for a plain class and for `?`.  Equal types have
    equal shapes, and shapes are compared, never hashed, so no table of them
    is kept.  The superclass set of a class is worked out when first needed
    and kept for the life of the instance.
    """

    # `builder.InfiniteGraph` numbers its types instead, as its search hashes
    # them.  The deciders share only the type syntax and the class table: a
    # bug shared by both would be invisible to `selfcheck` and `query`.

    def __init__(self, table: ClassTable):
        self._table = table
        self._supers = {_ARGUMENT_HEAD: frozenset((_ARGUMENT_HEAD,))}

    def shape(self, t: GroundType) -> tuple:
        """The shape of a normalised type; equal types get equal shapes."""
        return self.applied(t.name, t.arg)

    def applied(self, head: object, arg: TypeArg | None) -> tuple:
        """The shape of class `head` applied to the normalised `arg`, if any."""
        if arg is None:
            return head, None, None
        if isinstance(arg, Wild):
            return head, Wild, None
        return head, type(arg), self.shape(arg.bound)

    def subtype(self, s1: tuple, s2: tuple) -> bool:
        """True when the type of shape `s1` is a subtype of the one of shape `s2`.

        The bottom type is below everything, the top type above everything,
        and otherwise the head classes must be related by inheritance.  When
        the supertype is generic, the arguments must also be in the
        containment relation; arguments pass through inheritance verbatim,
        so no substitution is needed along the chain, and a class below a
        generic one is generic.

        An argument is contained in itself and in the default wildcard; an
        upper-bounded argument contains the upper-bounded and exact
        arguments whose type is a subtype of its bound; a lower-bounded
        argument contains the lower-bounded and exact arguments whose type
        is a supertype of its bound.  Exact arguments contain nothing else.
        The recursion on the bounds terminates because bound ranks strictly
        decrease.

        The cheap name tests come first.  A type is a subtype of itself
        without a test of its own: a class inherits from itself and an
        argument contains itself.
        """
        name1, kind1, bound1 = s1
        name2, kind2, bound2 = s2
        if name1 == BOTTOM_CLASS or name2 == TOP_CLASS:
            return True
        try:
            supers = self._supers[name1]
        except KeyError:
            chain = [name1]
            while chain[-1] != TOP_CLASS:
                chain.append(self._table.superclass_of(chain[-1]))
            supers = self._supers[name1] = frozenset(chain)
        if name2 not in supers:
            return False
        if kind2 is None or kind2 is Wild or (kind1 is kind2 and bound1 == bound2):
            return True
        if kind2 is Cov:
            return (kind1 is Cov or kind1 is Inv) and self.subtype(bound1, bound2)
        if kind2 is Con:
            return (kind1 is Con or kind1 is Inv) and self.subtype(bound2, bound1)
        return False


def contains_argument(inner: TypeArg, outer: TypeArg, table: ClassTable) -> bool:
    """True when the argument `inner` is contained in the argument `outer`.

    Raises `ValueError` unless both are normalised arguments over `table`,
    then asks `_Rules.subtype` whether `inner` under a private generic head
    is a subtype of `outer` under the same head.
    """
    for arg in (inner, outer):
        if not table.is_argument(arg):
            raise ValueError(f"{argument_label(arg)!r} is not a normalised argument of the table")
    rules = _Rules(table)
    return rules.subtype(rules.applied(_ARGUMENT_HEAD, inner), rules.applied(_ARGUMENT_HEAD, outer))


def is_subtype(t1: GroundType, t2: GroundType, table: ClassTable) -> bool:
    """Ground subtyping over normalized types.

    Raises `ValueError` unless both are normalised types over `table`, then
    asks `_Rules.subtype`, which states the rules.
    """
    for t in (t1, t2):
        if not table.is_type(t):
            raise ValueError(f"{canonical_label(t)!r} is not a normalised type of the table")
    rules = _Rules(table)
    return rules.subtype(rules.shape(t1), rules.shape(t2))


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
