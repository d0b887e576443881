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

Type arguments are stored normalized: an upper bound of `O` and a lower
bound of `N` are the default wildcard, a lower bound of `O` is invariant
`O`, and an upper bound of `N` is invariant `N`, applied recursively.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
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
# Deepest nesting of type arguments the parser accepts; it and the functions
# over ground types recurse once per level.
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

WILD = Wild()


@dataclass(frozen=True)
class GroundType:
    """A class name, or a generic class applied to one argument."""

    name: str
    arg: TypeArg | None = None


OBJECT_TYPE = GroundType(TOP_CLASS)
NULL_TYPE = GroundType(BOTTOM_CLASS)


def normalize_argument(arg: TypeArg) -> TypeArg:
    """Rewrite corner spellings to their canonical forms, innermost first."""
    match arg:
        case Wild():
            return WILD
        case Inv(bound):
            return Inv(normalize_type(bound))
        case Cov(bound):
            bound = normalize_type(bound)
            if bound == OBJECT_TYPE:
                return WILD
            if bound == NULL_TYPE:
                return Inv(bound)
            return Cov(bound)
        case Con(bound):
            bound = normalize_type(bound)
            if bound == NULL_TYPE:
                return WILD
            if bound == OBJECT_TYPE:
                return Inv(bound)
            return Con(bound)
    raise TypeError(f"not a type argument: {arg!r}")


def normalize_type(t: GroundType) -> GroundType:
    if t.arg is None:
        return t
    return GroundType(t.name, normalize_argument(t.arg))


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
    """
    if t.arg is None:
        return 0
    match t.arg:
        case Wild():
            return 1
        case Inv(bound) | Cov(bound) | Con(bound):
            return 1 + max(rank(bound), 1)
    raise TypeError(f"not a type argument: {t.arg!r}")


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
        for user in self.user_classes:
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

    @property
    def user_classes(self) -> tuple[str, ...]:
        return tuple(c for c in self.classes if c not in (TOP_CLASS, BOTTOM_CLASS))

    def is_generic(self, name: str) -> bool:
        return name in self.generic

    def is_type(self, t: GroundType) -> bool:
        """True for a normalised ground type over the table."""
        if t.name not in self.classes or (t.arg is None) == (t.name in self.generic):
            return False
        return t.arg is None or self.is_argument(t.arg)

    def is_argument(self, arg: TypeArg) -> bool:
        """True for a normalised type argument over the table."""
        if isinstance(arg, Cov | Con):
            return arg.bound.name not in (TOP_CLASS, BOTTOM_CLASS) and self.is_type(arg.bound)
        return isinstance(arg, Wild) or isinstance(arg, Inv) and self.is_type(arg.bound)

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

    def superclass_of(self, name: str) -> str:
        """Declared superclass of a user class (the top for roots)."""
        try:
            return self.superclass[name]
        except KeyError:
            raise DeclarationError(f"{name!r} has no declared superclass") from None


# ---------------------------------------------------------------------------
# Tokenizer shared by both parsers


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


# ---------------------------------------------------------------------------
# Declaration parser


@dataclass(frozen=True)
class _RawDecl:
    name: str
    parameter: str | None
    superclass: str | None
    passthrough: str | None


def parse_declarations(source: str) -> ClassTable:
    """Parse a program of class declarations into a validated table."""
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


def parse_ground_type(text: str, table: ClassTable) -> GroundType:
    """Parse a type expression and normalize it against `table`."""
    stream = _TokenStream(text)
    parsed = _parse_type(stream, table, 0)
    stream.expect_end()
    return normalize_type(parsed)


def _parse_type(stream: _TokenStream, table: ClassTable, depth: int) -> GroundType:
    name_tok = stream.expect_name()
    if name_tok.text in _KEYWORDS:
        raise _error_at(name_tok, f"{name_tok.text!r} is a keyword")
    name = _ALIASES.get(name_tok.text, name_tok.text)
    if name not in table.classes:
        raise _error_at(name_tok, f"unknown class {name!r}")
    if stream.at("<"):
        open_tok = stream.advance()
        if not table.is_generic(name):
            raise _error_at(open_tok, f"{name!r} is not generic and takes no argument")
        if depth == MAX_TYPE_NESTING:
            raise _error_at(
                open_tok, f"type arguments nested deeper than {MAX_TYPE_NESTING} levels"
            )
        arg = _parse_argument(stream, table, depth + 1)
        stream.expect(">")
        return GroundType(name, arg)
    if table.is_generic(name):
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
