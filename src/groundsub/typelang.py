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

from dataclasses import dataclass
from functools import cached_property
from typing import Union

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


def argument_label(arg: TypeArg) -> str:
    match arg:
        case Wild():
            return WILDCARD
        case Inv(bound):
            return canonical_label(bound)
        case Cov(bound):
            return upper_bounded_label(canonical_label(bound))
        case Con(bound):
            return lower_bounded_label(canonical_label(bound))
    raise TypeError(f"not a type argument: {arg!r}")


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
    """The program's subclassing relation.

    `classes` is in declaration order with the implicit top first and the
    implicit bottom last; `extends_edges` holds (subclass, superclass) pairs
    including the synthesized edges wiring the bottom under every minimal
    user class.
    """

    classes: tuple[str, ...]
    generic: frozenset[str]
    extends_edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "generic", frozenset(self.generic))
        object.__setattr__(self, "extends_edges", frozenset(self.extends_edges))
        names = set(self.classes)
        if len(self.classes) != len(names):
            raise DeclarationError("duplicate class name in table")
        for special in (TOP_CLASS, BOTTOM_CLASS):
            if special not in names:
                raise DeclarationError(f"table must contain {special!r}")
            if special in self.generic:
                raise DeclarationError(f"{special!r} is never generic")
        if not self.generic <= names:
            raise DeclarationError("generic set mentions undeclared classes")
        supers: dict[str, list[str]] = {c: [] for c in self.classes}
        for sub, sup in self.extends_edges:
            if sub not in names or sup not in names:
                raise DeclarationError(f"edge ({sub!r}, {sup!r}) mentions unknown class")
            supers[sub].append(sup)
        for user in self.user_classes:
            if len(supers[user]) != 1:
                raise DeclarationError(f"{user!r} must have exactly one superclass")
        if supers[TOP_CLASS]:
            raise DeclarationError(f"{TOP_CLASS!r} has no superclass")
        # Acyclicity plus unique source and sink are checked by the graph.
        self.graph  # noqa: B018

    @property
    def user_classes(self) -> tuple[str, ...]:
        return tuple(c for c in self.classes if c not in (TOP_CLASS, BOTTOM_CLASS))

    def is_generic(self, name: str) -> bool:
        return name in self.generic

    @cached_property
    def graph(self) -> BipointedGraph:
        """The subclassing relation as a graph with inheritance-tagged edges."""
        g = LabeledDigraph.from_edges(
            ((sub, sup) for sub, sup in sorted(self.extends_edges)),
            vertices=self.classes,
            tag=EdgeTag.INHERIT,
        )
        return BipointedGraph(g, top=TOP_CLASS, bottom=BOTTOM_CLASS)

    def superclass_of(self, name: str) -> str:
        """Declared superclass of a user class (the top for roots)."""
        try:
            return self._parents[name]
        except KeyError:
            raise DeclarationError(f"{name!r} has no declared superclass") from None

    @cached_property
    def _parents(self) -> dict[str, str]:
        return {
            sub: sup for sub, sup in self.extends_edges if sub != BOTTOM_CLASS
        }


# ---------------------------------------------------------------------------
# Tokenizer shared by both parsers


@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "punct", "end"
    text: str
    line: int
    column: int


_PUNCT_CHARS = {"<", ">", "{", "}", "?"}


def _is_name_start(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z"


def _is_name_char(ch: str) -> bool:
    return _is_name_start(ch) or "0" <= ch <= "9" or ch == "_"


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if _is_name_start(ch):
            start = i
            while i < n and _is_name_char(source[i]):
                i += 1
            text = source[start:i]
            tokens.append(_Token("name", text, line, col))
            col += len(text)
            continue
        if ch == "<" and source.startswith("<:", i):
            tokens.append(_Token("punct", "<:", line, col))
            i += 2
            col += 2
            continue
        if ch == ":":
            if source.startswith(":>", i):
                tokens.append(_Token("punct", ":>", line, col))
                i += 2
                col += 2
                continue
            raise ParseError("unexpected character ':'", line, col)
        if ch in _PUNCT_CHARS:
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _TokenStream:
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

    def at_punct(self, text: str) -> bool:
        return self.current.kind == "punct" and self.current.text == text

    def at_name(self, text: str | None = None) -> bool:
        if self.current.kind != "name":
            return False
        return text is None or self.current.text == text

    def expect_punct(self, text: str) -> _Token:
        if not self.at_punct(text):
            self.fail(f"expected {text!r}")
        return self.advance()

    def expect_name(self) -> _Token:
        if self.current.kind != "name":
            self.fail("expected a name")
        return self.advance()

    def expect_end(self) -> None:
        if self.current.kind != "end":
            self.fail(f"unexpected trailing input {self.current.text!r}")

    def fail(self, message: str) -> None:
        token = self.current
        found = repr(token.text) if token.kind != "end" else "end of input"
        raise ParseError(f"{message}, found {found}", token.line, token.column)


# ---------------------------------------------------------------------------
# Declaration parser


@dataclass(frozen=True)
class _RawDecl:
    name: str
    parameter: str | None
    superclass: str | None
    passthrough: str | None
    line: int


def parse_declarations(source: str) -> ClassTable:
    """Parse a program of class declarations into a validated table."""
    stream = _TokenStream(source)
    decls: list[_RawDecl] = []
    while not stream.at_name("class") and stream.current.kind != "end":
        stream.fail("expected 'class'")
    while stream.at_name("class"):
        decls.append(_parse_decl(stream))
    stream.expect_end()
    return _build_table(decls)


def _parse_decl(stream: _TokenStream) -> _RawDecl:
    stream.advance()  # 'class'
    name_tok = stream.expect_name()
    name = name_tok.text
    if name in _KEYWORDS:
        raise ParseError(f"{name!r} is a keyword", name_tok.line, name_tok.column)
    if name in _RESERVED:
        raise ParseError(
            f"{name!r} is reserved and cannot be declared", name_tok.line, name_tok.column
        )
    parameter = None
    if stream.at_punct("<"):
        stream.advance()
        param_tok = stream.expect_name()
        if param_tok.text in _KEYWORDS or param_tok.text in _RESERVED:
            raise ParseError(
                f"{param_tok.text!r} cannot be a type parameter",
                param_tok.line,
                param_tok.column,
            )
        parameter = param_tok.text
        stream.expect_punct(">")
    superclass = None
    passthrough = None
    if stream.at_name("extends"):
        stream.advance()
        super_tok = stream.expect_name()
        if super_tok.text in _KEYWORDS:
            raise ParseError(
                f"{super_tok.text!r} is a keyword", super_tok.line, super_tok.column
            )
        superclass = _ALIASES.get(super_tok.text, super_tok.text)
        if superclass == BOTTOM_CLASS:
            raise ParseError(
                "no class may extend the bottom class", super_tok.line, super_tok.column
            )
        if stream.at_punct("<"):
            stream.advance()
            pass_tok = stream.expect_name()
            passthrough = pass_tok.text
            stream.expect_punct(">")
    stream.expect_punct("{")
    stream.expect_punct("}")
    return _RawDecl(name, parameter, superclass, passthrough, name_tok.line)


def _build_table(decls: list[_RawDecl]) -> ClassTable:
    declared: dict[str, _RawDecl] = {}
    for decl in decls:
        if decl.name in declared:
            raise DeclarationError(f"duplicate class name {decl.name!r}")
        declared[decl.name] = decl

    generic = frozenset(d.name for d in decls if d.parameter is not None)
    for decl in decls:
        sup = decl.superclass
        if sup is not None and sup != TOP_CLASS and sup not in declared:
            raise DeclarationError(
                f"{decl.name!r} extends undeclared class {sup!r}"
            )
        sup_generic = sup in generic
        if decl.parameter is None:
            if sup_generic:
                raise DeclarationError(
                    f"non-generic class {decl.name!r} cannot extend generic class {sup!r}"
                )
            if decl.passthrough is not None:
                raise DeclarationError(
                    f"non-generic class {decl.name!r} cannot pass a type argument to {sup!r}"
                )
        else:
            if sup_generic:
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

    _reject_cycles(declared)

    edges: set[tuple[str, str]] = set()
    extended = {d.superclass for d in decls if d.superclass is not None}
    for decl in decls:
        edges.add((decl.name, decl.superclass or TOP_CLASS))
    minimal = [d.name for d in decls if d.name not in extended]
    for name in minimal:
        edges.add((BOTTOM_CLASS, name))
    if not decls:
        edges.add((BOTTOM_CLASS, TOP_CLASS))

    classes = (TOP_CLASS, *(d.name for d in decls), BOTTOM_CLASS)
    return ClassTable(classes, generic, frozenset(edges))


def _reject_cycles(declared: dict[str, _RawDecl]) -> None:
    for start in declared:
        seen = {start}
        current: str | None = declared[start].superclass
        while current is not None and current != TOP_CLASS:
            if current in seen:
                raise DeclarationError(f"inheritance cycle through {current!r}")
            seen.add(current)
            current = declared[current].superclass


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
        raise ParseError(
            f"{name_tok.text!r} is a keyword", name_tok.line, name_tok.column
        )
    name = _ALIASES.get(name_tok.text, name_tok.text)
    if name not in table.classes:
        raise ParseError(f"unknown class {name!r}", name_tok.line, name_tok.column)
    if stream.at_punct("<"):
        open_tok = stream.advance()
        if not table.is_generic(name):
            raise ParseError(
                f"{name!r} is not generic and takes no argument",
                open_tok.line,
                open_tok.column,
            )
        if depth == MAX_TYPE_NESTING:
            raise ParseError(
                f"type arguments nested deeper than {MAX_TYPE_NESTING} levels",
                open_tok.line,
                open_tok.column,
            )
        arg = _parse_argument(stream, table, depth + 1)
        stream.expect_punct(">")
        return GroundType(name, arg)
    if table.is_generic(name):
        raise ParseError(
            f"generic class {name!r} needs a type argument",
            name_tok.line,
            name_tok.column,
        )
    return GroundType(name)


def _parse_argument(stream: _TokenStream, table: ClassTable, depth: int) -> TypeArg:
    if stream.at_punct("?"):
        stream.advance()
        if stream.at_punct("<:") or stream.at_name("extends"):
            stream.advance()
            return Cov(_parse_type(stream, table, depth))
        if stream.at_punct(":>") or stream.at_name("super"):
            stream.advance()
            return Con(_parse_type(stream, table, depth))
        return WILD
    return Inv(_parse_type(stream, table, depth))
