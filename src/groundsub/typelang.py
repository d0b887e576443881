"""Class-declaration mini-language and ground-type expressions.

Declaration grammar::

    program  := decl* ;
    decl     := "class" NAME tparam? ext? "{" "}" ;
    tparam   := "<" NAME ">" ;
    ext      := "extends" NAME passthru? ;
    passthru := "<" NAME ">"      (must equal the declaring class's parameter)
    NAME     := [A-Za-z][A-Za-z0-9_]*

`O`, `N`, `Object` and `Null` are reserved: they cannot be declared, but
`Object` and `Null` are accepted as aliases of `O` and `N` wherever a class
is referenced.  `//` starts a line comment.

Type-expression grammar::

    type := NAME | NAME "<" arg ">" ;
    arg  := "?" | type | ("?" ("<:" | "extends") type) | ("?" (":>" | "super") type)

Type arguments are stored normalized: `CORNERS` rewrites the four corner
arguments, `? <: O` and `? :> N` to `?`, `? :> O` to `O` and `? <: N` to
`N`, applied recursively.  `parse_ground_type` builds that form as it
parses, and `ClassTable.is_type` checks it; a hand-built type `t` over a
table is normalised by `parse_ground_type(canonical_label(t), table)`.

Both parsers read the token texts that one regex scan of the source yields;
line and column are worked out only for an error.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse, islice
from operator import attrgetter
from string import ascii_letters
from types import MappingProxyType
from typing import NamedTuple, NoReturn, Union

from .digraph import BipointedGraph, EdgeTag, LabeledDigraph
from .errors import DeclarationError, ParseError
from .labels import (
    BOTTOM_CLASS,
    TOP_CLASS,
    WILDCARD,
    instantiation_label,
    lower_bounded_label,
    upper_bounded_label,
)

_KEYWORDS = frozenset({"class", "extends"})
_RESERVED = frozenset({TOP_CLASS, BOTTOM_CLASS, "Object", "Null"})
_ALIASES = {"Object": TOP_CLASS, "Null": BOTTOM_CLASS}
# Deepest nesting of type arguments the parser accepts.  `rank`, `is_type`,
# the deciders' shape builders and `GroundType`'s `==`, `hash` and `repr`
# walk the argument chain in a loop.  What still recurses once per level is
# `canonical_label` with `argument_label`, `rules._Rules.subtype` and
# `_label`, and the interpreter's own comparison and hashing of shape
# tuples; the limit keeps them within its recursion limit.
MAX_TYPE_NESTING = 200


# ---------------------------------------------------------------------------
# Ground types and type arguments


@dataclass(frozen=True)
class Wild:
    """The default wildcard argument `?`."""


@dataclass(frozen=True)
class Inv:
    """An invariant (exact) argument."""

    bound: "GroundType"


@dataclass(frozen=True)
class Cov:
    """An upper-bounded argument `? <: bound`."""

    bound: "GroundType"


@dataclass(frozen=True)
class Con:
    """A lower-bounded argument `? :> bound`."""

    bound: "GroundType"


TypeArg = Union[Wild, Inv, Cov, Con]
_BOUNDED = (Inv, Cov, Con)  # the argument kinds that carry a bound

WILD = Wild()


@dataclass(frozen=True, eq=False, repr=False)
class GroundType:
    """A class name, or a generic class applied to one argument.

    `==` and `repr` give what the dataclass would generate, and `hash`
    hashes the same flat chain `==` compares, so types that differ only in
    an argument's kind hash apart.  All three walk the argument chain in a
    loop, so they work at any nesting.
    """

    name: str
    arg: TypeArg | None = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _chain(self) == _chain(other)

    def __hash__(self) -> int:
        return hash(_chain(self))

    def __repr__(self) -> str:
        *levels, name, arg = _chain(self)
        parts, cls = [], self.__class__
        for level, kind in zip(levels[::2], levels[1::2]):
            parts.append(f"{cls.__qualname__}(name={level!r}, arg=")
            if kind is not GroundType:
                parts.append(f"{kind.__qualname__}(bound=")
            cls = GroundType
        parts.append(f"{cls.__qualname__}(name={name!r}, arg={arg!r})")
        return "".join(parts) + ")" * (len(parts) - 1)


def _chain(t: GroundType) -> tuple:
    """`t` as one flat tuple: for each level down its chain of arguments that
    are a `GroundType` or are bounded by one, the level's class name and its
    argument's class, then the last level's name and argument."""
    chain: list = []
    while True:
        kind = t.arg.__class__
        below = t.arg.bound if kind in _BOUNDED else t.arg
        if below.__class__ is not GroundType:
            return (*chain, t.name, t.arg)
        chain += (t.name, kind)
        t = below


OBJECT_TYPE = GroundType(TOP_CLASS)
NULL_TYPE = GroundType(BOTTOM_CLASS)


# The corners of the variance lattice (Igarashi & Viroli, ECOOP 2002): for each
# bounded kind, the canonical form of that argument bounded by the plain class named.
CORNERS = {
    Inv: {},
    Cov: {TOP_CLASS: WILD, BOTTOM_CLASS: Inv(NULL_TYPE)},
    Con: {BOTTOM_CLASS: WILD, TOP_CLASS: Inv(OBJECT_TYPE)},
}


# How an argument of each bounded kind spells the label of its bound.
SPELL_BOUND = {Inv: lambda label: label, Cov: upper_bounded_label, Con: lower_bounded_label}


def argument_label(arg: TypeArg) -> str:
    if isinstance(arg, Wild):
        return WILDCARD
    spell = SPELL_BOUND.get(type(arg))
    if spell is None:
        raise TypeError(f"not a type argument: {arg!r}")
    return spell(canonical_label(arg.bound))


def canonical_label(t: GroundType) -> str:
    """Unique printed form; parsing it back yields the same type."""
    if t.arg is None:
        return t.name
    return instantiation_label(t.name, argument_label(t.arg))


def rank(t: GroundType) -> int:
    """Construction step at which the type first appears as a vertex.

    Plain class names are present from the start.  An instantiation with the
    default wildcard exists as soon as its class does; any other argument
    must first appear as a vertex itself (bounded forms of a type only exist
    one step after the type), so the argument's contribution is at least 1.
    Down the argument chain, each bounded level adds 1, and a chain that
    ends in `?` or below a bounded level adds 1 more.
    """
    bounded = 0
    arg = t.arg
    while arg is not None:
        if isinstance(arg, Wild):
            return bounded + 1
        if not isinstance(arg, _BOUNDED):
            raise TypeError(f"not a type argument: {arg!r}")
        bounded += 1
        arg = arg.bound.arg
    return bounded + 1 if bounded else 0


# ---------------------------------------------------------------------------
# Class table


@dataclass(frozen=True)
class ClassTable:
    """The program's subclassing relation, as declared.

    `classes` is in declaration order with the implicit top first and the
    implicit bottom last; `superclass` maps each user class to the class it
    extends, the top for a root, and is kept as a read-only copy.  The
    bottom's edges are not declared: `extends_edges` derives them.
    """

    classes: tuple[str, ...]
    generic: frozenset[str]
    superclass: Mapping[str, str] = field(hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "generic", frozenset(self.generic))
        names: set[str] = set()
        for name in self.classes:
            if name in names:
                raise DeclarationError(f"duplicate class name {name!r}")
            names.add(name)
        for special in (TOP_CLASS, BOTTOM_CLASS):
            if special not in names:
                raise DeclarationError(f"table must contain {special!r}")
            if special in self.generic:
                raise DeclarationError(f"{special!r} is never generic")
        if not self.generic <= names:
            raise DeclarationError("generic set mentions undeclared classes")
        names -= {TOP_CLASS, BOTTOM_CLASS}
        for name in self.superclass:
            if name not in names:
                raise DeclarationError(f"{name!r} is not a user class")
        # Each user class's superclass, in declaration order, so that every
        # check below names the same class whatever the order of the map.
        parents: dict[str, str] = {}
        for user in (c for c in self.classes if c in names):
            if user not in self.superclass:
                raise DeclarationError(f"{user!r} has no declared superclass")
            parents[user] = self.superclass[user]
        object.__setattr__(self, "superclass", MappingProxyType(parents))
        for user, sup in parents.items():
            if sup == BOTTOM_CLASS:
                raise DeclarationError(f"{user!r} cannot extend the bottom class")
            if sup != TOP_CLASS and sup not in parents:
                raise DeclarationError(f"{user!r} extends undeclared class {sup!r}")
            if sup in self.generic and user not in self.generic:
                raise DeclarationError(
                    f"non-generic class {user!r} cannot extend generic class {sup!r}"
                )
        _reject_cycles(parents)

    def is_type(self, t: GroundType) -> bool:
        """True for a normalised ground type over the table."""
        classes, generic = self.classes, self.generic
        while t.name in classes and ((arg := t.arg) is None) != (t.name in generic):
            if arg is None:
                return True
            corners = CORNERS.get(type(arg))
            if corners is None:
                return isinstance(arg, Wild)
            t = arg.bound
            if t.name in corners:
                return False
        return False

    @cached_property
    def extends_edges(self) -> frozenset[tuple[str, str]]:
        """(subclass, superclass) pairs: the declared ones, and the bottom
        under every other class that nothing extends (the top, if no class)."""
        extended = set(self.superclass.values())
        minimal = [c for c in self.classes if c != BOTTOM_CLASS and c not in extended]
        return frozenset([*self.superclass.items(), *((BOTTOM_CLASS, c) for c in minimal)])

    @cached_property
    def graph(self) -> BipointedGraph:
        """The subclassing relation as a graph with inheritance-tagged edges."""
        g = LabeledDigraph.from_edges(self.extends_edges, self.classes, tag=EdgeTag.INHERIT)
        return BipointedGraph(g, top=TOP_CLASS, bottom=BOTTOM_CLASS)


# ---------------------------------------------------------------------------
# Tokenizer shared by both parsers
#
# One `findall` over `_SCAN` lists the token texts of a source.  A skip or a
# comment gives "", and any character no token starts with falls to the
# last branch, so the scan never fails and no branch nests a quantifier.
# Both parsers read the texts by index, with "" appended for the end.  Only
# an error needs positions: `_fail` finds the token it reports by scanning
# again up to it.  A bad character's text is never a name or punctuation,
# so no parse reads past it.

_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|<:|:>|[<>{}?]")
_SCAN = re.compile(rf"\s+|//[^\n]*|({_TOKEN.pattern}|.)")
_NAME_START = frozenset(ascii_letters)


def _scan(source: str) -> list[str]:
    return [*filter(None, _SCAN.findall(source)), ""]


def _fail(
    source: str, texts: list[str], index: int, message: str, found: bool = False
) -> NoReturn:
    """Raise `message` at the `index`-th of the token `texts` of `source`,
    followed by the token's text when `found`.  A character no token starts
    with is reported instead, wherever it lies."""
    bad = next(filterfalse(_TOKEN.fullmatch, texts))  # the final "" if none
    if bad:
        index, message = texts.index(bad), f"unexpected character {bad!r}"
    elif found:
        message += ", found " + (repr(texts[index]) if texts[index] else "end of input")
    tokens = filter(attrgetter("lastindex"), _SCAN.finditer(source))
    token = next(islice(tokens, index, None), None)
    start = token.start() if token else len(source)
    line = source.count("\n", 0, start) + 1
    raise ParseError(message, line, start - source.rfind("\n", 0, start))


def _name(source: str, texts: list[str], index: int) -> str:
    if texts[index][:1] not in _NAME_START:
        _fail(source, texts, index, "expected a name", found=True)
    return texts[index]


def _expect(source: str, texts: list[str], index: int, text: str) -> int:
    """The index after the expected `text`."""
    if texts[index] != text:
        _fail(source, texts, index, f"expected {text!r}", found=True)
    return index + 1


# ---------------------------------------------------------------------------
# Declaration parser


class _RawDecl(NamedTuple):
    name: str
    parameter: str | None
    superclass: str | None
    passthrough: str | None


def parse_declarations(source: str) -> ClassTable:
    """Parse a program of class declarations into a validated table."""
    texts = _scan(source)
    decls: list[_RawDecl] = []
    if texts[0] not in ("class", ""):
        _fail(source, texts, 0, "expected 'class'", found=True)
    i = 0
    while texts[i] == "class":
        name = _name(source, texts, i + 1)
        if name in _KEYWORDS:
            _fail(source, texts, i + 1, f"{name!r} is a keyword")
        if name in _RESERVED:
            _fail(source, texts, i + 1, f"{name!r} is reserved and cannot be declared")
        i += 2
        parameter = superclass = passthrough = None
        if texts[i] == "<":
            parameter = _name(source, texts, i + 1)
            if parameter in _KEYWORDS or parameter in _RESERVED:
                _fail(source, texts, i + 1, f"{parameter!r} cannot be a type parameter")
            i = _expect(source, texts, i + 2, ">")
        if texts[i] == "extends":
            superclass = _name(source, texts, i + 1)
            if superclass in _KEYWORDS:
                _fail(source, texts, i + 1, f"{superclass!r} is a keyword")
            superclass = _ALIASES.get(superclass, superclass)
            if superclass == BOTTOM_CLASS:
                _fail(source, texts, i + 1, "no class may extend the bottom class")
            i += 2
            if texts[i] == "<":
                passthrough = _name(source, texts, i + 1)
                i = _expect(source, texts, i + 2, ">")
        i = _expect(source, texts, _expect(source, texts, i, "{"), "}")
        decls.append(_RawDecl(name, parameter, superclass, passthrough))
    if texts[i]:
        _fail(source, texts, i, "unexpected trailing input", found=True)
    return _build_table(decls)


def _build_table(decls: list[_RawDecl]) -> ClassTable:
    classes = (TOP_CLASS, *(d.name for d in decls), BOTTOM_CLASS)
    generic = frozenset(d.name for d in decls if d.parameter is not None)
    table = ClassTable(classes, generic, {d.name: d.superclass or TOP_CLASS for d in decls})

    # The table checks everything but how a declaration passes its parameter.
    for decl in decls:
        sup = decl.superclass
        if decl.parameter is None:
            if decl.passthrough is not None:
                raise DeclarationError(
                    f"non-generic class {decl.name!r} cannot pass a type argument to {sup!r}"
                )
        elif sup in generic:
            if decl.passthrough is None:
                raise DeclarationError(
                    f"{decl.name!r} must pass its parameter {decl.parameter!r} "
                    f"to generic superclass {sup!r}"
                )
            if decl.passthrough != decl.parameter:
                raise DeclarationError(
                    f"{decl.name!r} may only pass its own parameter "
                    f"{decl.parameter!r} to {sup!r}, got {decl.passthrough!r}"
                )
        elif decl.passthrough is not None:
            raise DeclarationError(
                f"{decl.name!r} cannot pass a type argument to "
                f"non-generic superclass {sup!r}"
            )
    return table


def _reject_cycles(parents: dict[str, str]) -> None:
    # `parents` maps each user class to its superclass, which is the top or
    # another user class.  Each walk stops at a class already known to reach
    # the top, so every class is looked up at most twice: once as a start,
    # once on a walk.
    reaches_top: set[str] = set()
    for start in parents:
        path = {start}
        current = parents[start]
        while current != TOP_CLASS and current not in reaches_top:
            if current in path:
                raise DeclarationError(f"inheritance cycle through {current!r}")
            path.add(current)
            current = parents[current]
        reaches_top |= path


# ---------------------------------------------------------------------------
# Type-expression parser


# The kind of argument each bound operator makes.
_BOUND_KINDS = {"<:": Cov, "extends": Cov, ":>": Con, "super": Con}


def parse_ground_type(text: str, table: ClassTable) -> GroundType:
    """Parse a type expression into its normal form over `table`.

    A type is a chain of class names, each applied to the next.  The parse
    reads the chain's heads left to right, then wraps the innermost type in
    their arguments outward, each normalised by one `CORNERS` lookup.
    """
    texts = _scan(text)
    heads: list[tuple[str, type]] = []  # enclosing classes, with their arguments' kinds
    i = 0
    while True:
        name = _name(text, texts, i)
        if name in _KEYWORDS:
            _fail(text, texts, i, f"{name!r} is a keyword")
        name = _ALIASES.get(name, name)
        if name not in table.classes:
            _fail(text, texts, i, f"unknown class {name!r}")
        i += 1
        if texts[i] != "<":
            if name in table.generic:
                _fail(text, texts, i - 1, f"generic class {name!r} needs a type argument")
            t = GroundType(name)
            break
        if name not in table.generic:
            _fail(text, texts, i, f"{name!r} is not generic and takes no argument")
        if len(heads) == MAX_TYPE_NESTING:
            _fail(text, texts, i, f"type arguments nested deeper than {MAX_TYPE_NESTING} levels")
        i += 1
        kind = Inv
        if texts[i] == "?":
            kind = _BOUND_KINDS.get(texts[i + 1])
            if kind is None:
                t = GroundType(name, WILD)
                i = _expect(text, texts, i + 1, ">")
                break
            i += 2
        heads.append((name, kind))
    for name, kind in reversed(heads):
        i = _expect(text, texts, i, ">")
        corners = CORNERS[kind]
        t = GroundType(name, corners[t.name] if t.arg is None and t.name in corners else kind(t))
    if texts[i]:
        _fail(text, texts, i, "unexpected trailing input", found=True)
    return t
