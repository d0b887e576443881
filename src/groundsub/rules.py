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
rank by rank as labels and shapes made from their bounds' (`_layers`),
which the check reads and `enumerate_types` makes types of.  The check
lists, as labels, each bound's up-set or down-set once, and each graph's
up-sets once (`LabeledDigraph.up_sets`), so it costs a pass over the types
plus a step per true pair of the rules and of each graph and per type of a
listed bound.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse

from .builder import _counts_within_limit
from .errors import GraphError, SizeLimitError
from .labels import BOTTOM_CLASS, TOP_CLASS, WILDCARD, instantiation_label
from .typelang import (
    CORNERS,
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

# Most true pairs `differential_check` may list.  It reads their count, P_k,
# off the class table (`builder.predicted_counts`) and refuses before it
# builds anything when the count passes the limit.
MAX_PAIRS = 2_000_000

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
_TOP = TOP_CLASS, None, None


class _Rules:
    """The rules of ground subtyping over the types of one table.

    A type is its shape, the tuple (class, argument kind, bound shape).  The
    kind is `None` for a plain class, else the class of the argument; the
    bound shape is `None` for a plain class and for `?`.  Equal types have
    equal shapes, which compare and hash as the types do.  A class's
    superclasses and subclasses are worked out when first needed and kept
    for the life of the instance.  So is each up-set or down-set of a bound
    that `above` and `below` read, as a tuple of labels keyed by value
    (`_listing`).  A listed type's label is looked up by its bound's label
    in a table of its class and argument kind (`_labels`), so a listed pair
    hashes no shape.  Only `differential_check` fills these, for one check;
    `is_subtype` builds an instance per verdict and lists nothing.
    """

    # Each decider keeps its own shape code, `builder.InfiniteGraph` too.
    # The deciders share only the type syntax and the class table: a bug
    # shared by both would be invisible to `selfcheck` and `query`.

    def __init__(self, table: ClassTable):
        self._table = table
        self._supers: dict[str, frozenset[str]] = {}
        self._subs: dict[str, tuple[str, ...]] = {}
        self._listed: dict[tuple, tuple[str, ...]] = {}

    def shape(self, t: GroundType) -> tuple:
        """The shape of a normalised type; equal types get equal shapes."""
        stack = None  # the bounded levels passed going down, the deepest on top
        while (arg := t.arg) is not None and not isinstance(arg, Wild):
            stack = t.name, type(arg), stack
            t = arg.bound
        shape = t.name, None if arg is None else Wild, None
        while stack is not None:
            name, kind, stack = stack
            shape = name, kind, shape
        return shape

    def supers(self, name: str) -> frozenset[str]:
        """The class `name` and every class above it; not for the bottom."""
        if name not in self._supers:
            chain = [name]
            while chain[-1] != TOP_CLASS:
                chain.append(self._table.superclass[chain[-1]])
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

    def above(self, s: tuple, k: int) -> Iterator[str]:
        """The label of every type of rank at most `k` >= 1 above the shape
        `s`, once each: each superclass of its head, with, for a generic
        one, each argument whose row of `_CONTAINS` admits the argument of
        `s`; every type above the bottom."""
        name, kind, bound = s
        if name == BOTTOM_CLASS:
            yield from self._listing(False, _TOP, k)
            return
        same = self._label(bound) if kind is Inv else None
        for sup in self.supers(name):
            if sup not in self._table.generic:
                yield sup
                continue
            labels = self._labels[sup]
            for outer, (kinds, compare) in _CONTAINS.items():
                if kind in kinds:
                    bounds = self._bounds(outer, compare, bound, same, k, True)
                    yield from map(labels[outer].__getitem__, bounds)

    def below(self, s: tuple, k: int) -> Iterator[str]:
        """The label of every type of rank at most `k` >= 1 below the shape
        `s`, once each: the bottom, and each subclass of its head, with, for
        a generic one, each argument the row of `s`'s argument admits.  A
        plain class admits every argument, as `?` does."""
        name, kind, bound = s
        yield BOTTOM_CLASS
        kinds, compare = _CONTAINS[Wild if kind is None else kind]
        same = self._label(bound) if kind is Inv else None
        for sub in self.subs(name):
            if sub not in self._table.generic:
                yield sub
                continue
            labels = self._labels[sub]
            for inner in kinds:
                bounds = self._bounds(inner, compare, bound, same, k, False)
                yield from map(labels[inner].__getitem__, bounds)

    def _bounds(
        self, kind: type, compare: str | None, bound: tuple, same: str | None, k: int, up: bool
    ) -> Iterable:
        """The labels of the bounds an argument of `kind` takes in a type of
        rank at most `k` when `compare` relates them to `bound`, of label
        `same`, seen from the outer argument if `up`, else from the inner
        one; `None` for `?`.  Without a comparison any type will do; no bound
        is one of its kind's `CORNERS`, which are plain labels."""
        if kind is Wild:
            return (None,)
        if k < 2:
            return ()
        if compare is _SAME:
            return (same,)
        if compare is None:
            found = self._listing(False, _TOP, k - 1)
        else:
            found = self._listing((compare is _UP) == up, bound, k - 1)
        corners = CORNERS[kind]
        return filterfalse(corners.__contains__, found) if corners else found

    def _listing(self, up: bool, s: tuple, k: int) -> tuple[str, ...]:
        """`above(s, k)` if `up`, else `below(s, k)`, listed on first use
        and kept, by value, for the life of the instance."""
        key = up, s, k
        if key not in self._listed:
            self._listed[key] = tuple((self.above if up else self.below)(s, k))
        return self._listed[key]

    @cached_property
    def _labels(self) -> dict[str, dict[type, _Spelled]]:
        """Each generic class's label tables, one per argument kind."""
        return {c: {kind: _Spelled(c, kind) for kind in _CONTAINS} for c in self._table.generic}

    def _label(self, s: tuple) -> str:
        """The label of the type of shape `s`, spelled from its bound's."""
        name, kind, bound = s
        return name if kind is None else self._labels[name][kind][bound and self._label(bound)]


class _Spelled(dict):
    """The labels of class `name` applied to arguments of `kind`, keyed by
    the bound's label, or `None` for `?`; each is spelled on first use."""

    def __init__(self, name: str, kind: type):
        self.name, self.spell = name, SPELL_BOUND.get(kind)

    def __missing__(self, bound: str | None) -> str:
        self[bound] = instantiation_label(self.name, self.spell(bound) if bound else WILDCARD)
        return self[bound]


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


def _layers(table: ClassTable, max_rank: int) -> Iterator[list[tuple[str, tuple]]]:
    """The types of each rank from 0 to `max_rank` >= 0 as (label, shape)
    pairs, one list per rank in label order; none past rank 0 without a
    generic class.

    Rank 0 holds the plain classes and rank 1 each generic class applied to
    `?`.  Rank k >= 2 applies each generic class to the exact,
    upper-bounded and lower-bounded form of every type of rank k - 1 (of
    ranks 0 and 1 when k is 2) but the forms `CORNERS` rewrites.  Each such
    pair is made from its bound's; a plain type's label is its name.
    """
    generics = sorted(table.generic)
    plain = sorted((c, (c, None, None)) for c in table.classes if c not in table.generic)
    yield plain
    if max_rank == 0 or not generics:
        return
    layer = sorted((instantiation_label(c, WILDCARD), (c, Wild, None)) for c in generics)
    yield layer
    layer = plain + layer
    for _ in range(2, max_rank + 1):
        args = []
        for label, shape in layer:
            kinds = (kind for kind, corners in CORNERS.items() if label not in corners)
            args += ((SPELL_BOUND[kind](label), kind, shape) for kind in kinds)
        # Labels are unique, so the sort compares nothing past them.
        layer = sorted(
            (instantiation_label(c, spelled), (c, kind, shape))
            for c in generics
            for spelled, kind, shape in args
        )
        yield layer


def enumerate_types(table: ClassTable, max_rank: int) -> tuple[GroundType, ...]:
    """All normalized ground types over `table` with rank at most `max_rank`.

    Returned in deterministic order (by rank, then by label).  The count
    matches the vertex count of the construction at the same depth; a depth
    `run` refuses raises `SizeLimitError` before anything is listed.
    """
    if max_rank < 0:
        raise ValueError("max_rank must be nonnegative")
    _counts_within_limit(table, max(max_rank, 1))
    made: dict[tuple, GroundType] = {}  # by shape; an argument wraps its bound's type
    for layer in _layers(table, max_rank):
        for _, shape in layer:
            name, kind, bound = shape
            arg = None if kind is None else WILD if kind is Wild else kind(made[bound])
            made[shape] = GroundType(name, arg)
    return tuple(made.values())


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
    label and shape from its bound's.  S_k must hold exactly the types of
    rank at most k, or `GraphError` names k.  Each S_k lists every vertex's
    strict descendants once, bottom-up (`LabeledDigraph.up_sets`), and the
    listings are held for the length of the check: one entry per true pair
    of each S_k, so at most `MAX_PAIRS` per graph.  Each row t1, of rank
    k1, gathers its graph verdicts into one set, `above`: t1 itself, its
    descendants in S_{k1}, and for each k > k1 its descendants in S_k of
    rank exactly k, each read from that graph's listing.  A column t2 of
    rank k2 is thus read from S_k, k = max(k1, k2).  The last graph is not
    read in place of S_k: that S_k is the restriction of every later graph
    is a law of the construction, and the check is there to test it.

    The rules side streams each row's up-set, as labels, from
    `_Rules.above`.  The up-sets and down-sets of bounds that those listings
    read are each listed once, into the memo of the check's one `_Rules`.
    So the check costs a pass over the types, a step per true pair and a
    step per label the memo keeps: 67,673 and 21,596 for two generic classes
    at rank 5.  Only a row whose two sets differ lists their difference, in
    column order.

    Mismatches are report content, not exceptions; an empty mismatch list is
    the expected outcome.  The true pairs are counted from the table first
    (P_k of `builder.predicted_counts`), and `SizeLimitError` refuses more
    than `MAX_PAIRS` before anything is built.  When every row agrees, the
    rows' sizes must add up to that count, or `GraphError` names the pair
    law.
    """
    from .builder import run

    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    *_, predicted = _counts_within_limit(table, max_rank)[-1]
    if predicted > MAX_PAIRS:
        raise SizeLimitError(
            f"the types up to rank {max_rank} have over the limit of {MAX_PAIRS} true pairs"
        )
    trace = run(table, max_rank)
    # Each type's label, the index of the smallest graph holding it and its
    # shape: ranks 0 and 1 are both first held by S_1.
    rows = [
        (label, max(r, 1), shape)
        for r, layer in enumerate(_layers(table, max_rank))
        for label, shape in layer
    ]
    decider = _Rules(table)
    column = {label: i for i, (label, _, _) in enumerate(rows)}
    # The labels whose smallest graph is S_k; S_k holds those of ranks up to k.
    of_rank: list[set[str]] = [set() for _ in range(trace.depth + 1)]
    for label, k, _ in rows:
        of_rank[k].add(label)
    for k, s in enumerate(trace.graphs, 1):
        if s.graph.vertices != set().union(*of_rank[: k + 1]):
            raise GraphError(f"approximation {k} does not hold the types of rank at most {k}")
    ups = [s.graph.up_sets() for s in trace.graphs]
    pairs = 0
    mismatches: list[Mismatch] = []
    for l1, k1, s1 in rows:
        above = set(ups[k1 - 1][l1])
        above.add(l1)
        for k in range(k1 + 1, trace.depth + 1):
            above |= of_rank[k].intersection(ups[k - 1][l1])
        by_rules = set(decider.above(s1, max_rank))
        pairs += len(by_rules)
        if above != by_rules:
            for l2 in sorted(above ^ by_rules, key=column.__getitem__):
                mismatches.append(Mismatch(l1, l2, l2 in above, l2 in by_rules))
    if not mismatches and pairs != predicted:
        raise GraphError(
            f"pair law fails at rank {max_rank}: {pairs} true pairs listed, predicted {predicted}"
        )
    return DifferentialReport(max_rank, len(rows), tuple(mismatches))
