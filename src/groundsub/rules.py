"""Rule-based decision procedure for ground subtyping and containment.

This module decides subtyping by structural recursion over type shapes and
the declared superclass chains.  Argument containment, the variance lattice
of Igarashi and Viroli, is stated once as data, `_CONTAINS`, which
`_Rules.subtype` reads pair by pair and `_Rules.above` and `below` read
backwards.  Containment is subtyping under one shared head: `a` is
contained in `b` exactly when `C<a> <: C<b>` for a generic class `C`.  The
module shares no graph machinery with the iterated construction, so
`differential_check` can compare the two over every ordered pair of types
up to a rank bound and report any disagreement.  The types are listed
rank by rank, each with its label and shape made from its bound's
(`_layers`), for `enumerate_types` and the check alike.  The check lists
each bound's up-set or down-set once, so it costs a pass over the types
plus a step per true pair and per type of a listed bound.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate

from .errors import SizeLimitError
from .labels import BOTTOM_CLASS, TOP_CLASS, WILDCARD, instantiation_label
from .typelang import (
    SPELL_BOUND,
    WILD,
    ClassTable,
    Con,
    Cov,
    GroundType,
    Inv,
    Wild,
    canonical_label,
)

# Most ordered pairs `differential_check` may check.  It predicts the type
# count from the vertex recurrence and refuses before it builds anything.
MAX_PAIRS = 20_000_000

# Argument containment, stated once.  Each outer argument kind names the
# inner kinds it contains and how their bounds compare: an upper bound lies
# above the inner bound (`_UP`), a lower bound below it (`_DOWN`), an exact
# argument's bound equals it (`_SAME`), and `?` compares none (`None`).
_UP, _DOWN, _SAME = "up", "down", "same"
_CONTAINS = {
    Wild: ((Wild, Cov, Con, Inv), None),
    Cov: ((Cov, Inv), _UP),
    Con: ((Con, Inv), _DOWN),
    Inv: ((Inv,), _SAME),
}
_TOP, _BOTTOM = (TOP_CLASS, None, None), (BOTTOM_CLASS, None, None)


class _Rules:
    """The rules of ground subtyping over the types of one table.

    A type is its shape, the tuple (class, argument kind, bound shape).  The
    kind is `None` for a plain class, else the class of the argument; the
    bound shape is `None` for a plain class and for `?`.  Equal types have
    equal shapes, which compare and hash as the types do.  A class's
    superclasses and subclasses are worked out when first needed and kept
    for the life of the instance.  So is each up-set or down-set of a bound
    that `above` and `below` read, as a tuple keyed by value (`_listing`).
    Only `differential_check` fills that memo, for one check; `is_subtype`
    builds an instance per verdict and lists nothing.
    """

    # `builder.InfiniteGraph` numbers its types instead.  The deciders share
    # only the type syntax and the class table: a bug shared by both would
    # be invisible to `selfcheck` and `query`.

    def __init__(self, table: ClassTable):
        self._table = table
        self._supers: dict[str, frozenset[str]] = {}
        self._subs: dict[str, tuple[str, ...]] = {}
        self._listed: dict[tuple, tuple[tuple, ...]] = {}

    def shape(self, t: GroundType) -> tuple:
        """The shape of a normalised type; equal types get equal shapes."""
        if t.arg is None:
            return t.name, None, None
        if isinstance(t.arg, Wild):
            return t.name, Wild, None
        return t.name, type(t.arg), self.shape(t.arg.bound)

    def supers(self, name: str) -> frozenset[str]:
        """The class `name` and every class above it; not for the bottom."""
        if name not in self._supers:
            chain = [name]
            while chain[-1] != TOP_CLASS:
                chain.append(self._table.superclass_of(chain[-1]))
            self._supers[name] = frozenset(chain)
        return self._supers[name]

    def subs(self, name: str) -> tuple[str, ...]:
        """The class `name` and every class below it but the bottom."""
        if name not in self._subs:
            below = (c for c in self._table.classes if c != BOTTOM_CLASS)
            self._subs[name] = tuple(c for c in below if name in self.supers(c))
        return self._subs[name]

    def subtype(self, s1: tuple, s2: tuple) -> bool:
        """True when the type of shape `s1` is a subtype of the one of shape `s2`.

        The bottom type is below everything, the top type above everything,
        and otherwise the head classes must be related by inheritance.  When
        the supertype is generic, its argument must contain the subtype's,
        as the row of `_CONTAINS` for its kind says; arguments pass through
        inheritance verbatim, so no substitution is needed along the chain,
        and a class below a generic one is generic.  The recursion on the
        bounds terminates because bound ranks strictly decrease.

        The cheap name tests come first.  A type is a subtype of itself
        without a test of its own: a class inherits from itself and an
        argument contains itself.
        """
        name1, kind1, bound1 = s1
        name2, kind2, bound2 = s2
        if name1 == BOTTOM_CLASS or name2 == TOP_CLASS:
            return True
        if name2 not in self.supers(name1):
            return False
        if kind2 is None:
            return True
        kinds, compare = _CONTAINS[kind2]
        if kind1 not in kinds:
            return False
        if compare is _UP:
            return self.subtype(bound1, bound2)
        if compare is _DOWN:
            return self.subtype(bound2, bound1)
        return compare is None or bound1 == bound2

    def above(self, s: tuple, k: int) -> Iterator[tuple]:
        """Every shape of rank at most `k` >= 1 above the shape `s`, once each:
        each superclass of its head, with, for a generic one, each argument
        whose row of `_CONTAINS` admits the argument of `s`; every shape
        above the bottom."""
        name, kind, bound = s
        if name == BOTTOM_CLASS:
            yield from self._listing(False, _TOP, k)
            return
        for sup in self.supers(name):
            if sup not in self._table.generic:
                yield sup, None, None
                continue
            for outer, (kinds, compare) in _CONTAINS.items():
                if kind in kinds:
                    for b in self._bounds(outer, compare, bound, k, True):
                        yield sup, outer, b

    def below(self, s: tuple, k: int) -> Iterator[tuple]:
        """Every shape of rank at most `k` >= 1 below the shape `s`, once each:
        the bottom, and each subclass of its head, with, for a generic one,
        each argument the row of `s`'s argument admits.  A plain class admits
        every argument, as `?` does."""
        name, kind, bound = s
        yield _BOTTOM
        for sub in self.subs(name):
            if sub not in self._table.generic:
                yield sub, None, None
                continue
            kinds, compare = _CONTAINS[Wild if kind is None else kind]
            for inner in kinds:
                for b in self._bounds(inner, compare, bound, k, False):
                    yield sub, inner, b

    def _bounds(self, kind: type, compare: str | None, bound: tuple, k: int, up: bool) -> Iterable:
        """The bounds an argument of `kind` takes in a type of rank at most
        `k` when `compare` relates them to `bound`, seen from the outer
        argument if `up`, else from the inner one.  Without a comparison any
        type will do; the top and bottom bound only exact arguments."""
        if kind is Wild:
            return (None,)
        if k < 2:
            return ()
        if compare is _SAME:
            return (bound,)
        if compare is None:
            found = self._listing(False, _TOP, k - 1)
        else:
            found = self._listing((compare is _UP) == up, bound, k - 1)
        if kind is Inv:
            return found
        return (b for b in found if b[0] not in (TOP_CLASS, BOTTOM_CLASS))

    def _listing(self, up: bool, s: tuple, k: int) -> tuple[tuple, ...]:
        """`above(s, k)` if `up`, else `below(s, k)`, listed on first use
        and kept, by value, for the life of the instance."""
        key = up, s, k
        if key not in self._listed:
            self._listed[key] = tuple((self.above if up else self.below)(s, k))
        return self._listed[key]


def is_subtype(t1: GroundType, t2: GroundType, table: ClassTable) -> bool:
    """Ground subtyping over normalized types.

    Raises `ValueError` unless both are normalised types over `table`, then
    asks `_Rules.subtype`.
    """
    for t in (t1, t2):
        if not table.is_type(t):
            raise ValueError(f"{canonical_label(t)!r} is not a normalised type of the table")
    rules = _Rules(table)
    return rules.subtype(rules.shape(t1), rules.shape(t2))


def _layers(table: ClassTable, max_rank: int) -> Iterator[list[tuple[str, GroundType, tuple]]]:
    """The types of each rank from 0 to `max_rank` >= 0 as (label, type,
    shape) triples, one list per rank in label order; none past rank 0
    without a generic class.

    Rank 0 holds the plain classes and rank 1 each generic class applied to
    `?`.  Rank k >= 2 applies each generic class to the exact,
    upper-bounded and lower-bounded form of every type of rank k - 1 (of
    ranks 0 and 1 when k is 2), and to only the exact form of `O` and `N`.
    Each such triple is made from its bound's.
    """
    generics = sorted(table.generic)
    plain = sorted(
        (c, GroundType(c), (c, None, None)) for c in table.classes if c not in table.generic
    )
    yield plain
    if max_rank == 0 or not generics:
        return
    layer = sorted(
        (instantiation_label(c, WILDCARD), GroundType(c, WILD), (c, Wild, None)) for c in generics
    )
    yield layer
    layer = plain + layer
    for _ in range(2, max_rank + 1):
        args = []
        for label, t, shape in layer:
            kinds = (Inv,) if label in (TOP_CLASS, BOTTOM_CLASS) else (Inv, Cov, Con)
            args += ((SPELL_BOUND[kind](label), kind, kind(t), shape) for kind in kinds)
        # Labels are unique, so the sort compares nothing past them.
        layer = sorted(
            (instantiation_label(c, spelled), GroundType(c, arg), (c, kind, shape))
            for c in generics
            for spelled, kind, arg, shape in args
        )
        yield layer


def enumerate_types(table: ClassTable, max_rank: int) -> tuple[GroundType, ...]:
    """All normalized ground types over `table` with rank at most `max_rank`.

    Returned in deterministic order (by rank, then by label).  The count
    matches the vertex count of the construction at the same depth.
    """
    if max_rank < 0:
        raise ValueError("max_rank must be nonnegative")
    return tuple(t for layer in _layers(table, max_rank) for _, t, _ in layer)


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
    on demand.  The rows are read off `_layers`, which makes each type's
    label and shape from its bound's.  Each row t1, of rank k1, gathers its
    graph verdicts into one set, `above`: t1 itself, its descendants in
    S_{k1} of rank at most k1, and for each k > k1 its descendants in S_k of
    rank exactly k.  A column t2 of rank k2 is thus read from S_k,
    k = max(k1, k2).  The last graph is not read in place of S_k: that S_k
    is the restriction of every later graph is a law of the construction,
    and the check is there to test it.

    The rules side streams each row's up-set from `_Rules.above`.  The
    up-sets and down-sets of bounds that those listings read are each listed
    once, into the memo of the check's one `_Rules`.  So the check costs a
    pass over the types, a step per true pair and a step per shape the memo
    keeps: 67,673 and 21,596 for two generic classes at rank 5, where
    listing a bound again for each row that reaches it took 303,041 steps.
    A row's mismatches are the difference of its two sets, in column order.

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
    # Each type's label, the index of the smallest graph holding it and its
    # shape: ranks 0 and 1 are both first held by S_1.
    rows = [
        (label, max(r, 1), shape)
        for r, layer in enumerate(_layers(table, max_rank))
        for label, _, shape in layer
    ]
    decider = _Rules(table)
    label_of = {shape: label for label, _, shape in rows}
    column = {label: i for i, (label, _, _) in enumerate(rows)}
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
        by_rules = {label_of[s] for s in decider.above(s1, max_rank)}
        for l2 in sorted(above ^ by_rules, key=column.__getitem__):
            mismatches.append(Mismatch(l1, l2, l2 in above, l2 in by_rules))
    return DifferentialReport(max_rank, len(rows), tuple(mismatches))
