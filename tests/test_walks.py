"""The walks down a type's argument chain: `rank`, `ClassTable.is_type`, the
shape builders of the two deciders, and `GroundType`'s `==`, `hash` and
`repr`.  Each is a loop; here the first three are compared with the
recursive references they replaced, in results and in errors, `==` and
`repr` with those a plain dataclass generates, and all are pinned not to
recurse once per level."""

from __future__ import annotations

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundsub import (
    WILD,
    Con,
    Cov,
    GroundType,
    Inv,
    Wild,
    builder,
    canonical_label,
    enumerate_types,
    parse_declarations,
    parse_ground_type,
    rank,
)
from groundsub.rules import _Rules
from groundsub.typelang import MAX_TYPE_NESTING

from conftest import CORPUS, class_tables
from oracles import (
    reference_is_argument,
    reference_is_type,
    reference_normalize_type,
    reference_rank,
    reference_shape,
    reference_value,
)
from test_generated import types_of_rank
from test_typelang import spelled_arguments, written_types

WALKS = {
    "rank": lambda table, t: rank(t),
    "is_type": lambda table, t: table.is_type(t),
    "builder shape": lambda table, t: builder._shape(t),
    "rules shape": lambda table, t: _Rules(table).shape(t),
}
REFERENCES = {
    "rank": lambda table, t: reference_rank(t),
    "is_type": lambda table, t: reference_is_type(t, table),
    "builder shape": lambda table, t: reference_shape(t),
    "rules shape": lambda table, t: reference_shape(t),
}


def outcome(walk, table, t):
    """What `walk` returns on `t`, or the type and message of what it raises."""
    try:
        return walk(table, t)
    except (TypeError, AttributeError) as e:
        return type(e), str(e)


def assert_walks_agree(table, t):
    for name, walk in WALKS.items():
        assert outcome(walk, table, t) == outcome(REFERENCES[name], table, t), (name, t)
    if t.arg is not None and table.generic:
        # The argument alone, under a generic class of the table.
        wrapped = GroundType(min(table.generic), t.arg)
        assert table.is_type(wrapped) == reference_is_argument(t.arg, table), t


def nested(kinds, innermost, name="C"):
    """`name` applied through `kinds`, outermost first, to `innermost`."""
    t = innermost
    for kind in reversed(kinds):
        t = GroundType(name, kind(t))
    return t


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_written_types_agree_and_only_normal_ones_are_types(data):
    table = data.draw(class_tables())
    t = data.draw(written_types(table))
    assert_walks_agree(table, t)
    assert table.is_type(t) == (t == reference_normalize_type(t)), t


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_types_not_over_the_table_agree(data):
    # Unknown names, arguments on plain classes, generic classes without
    # one, and corner bounds such as `? <: O` that no parse leaves.
    table = data.draw(class_tables())
    name = data.draw(st.sampled_from([*table.classes, "X"]))
    t = GroundType(name, data.draw(st.one_of(st.none(), spelled_arguments(table))))
    assert_walks_agree(table, t)


@settings(max_examples=100, deadline=None)
@given(class_tables().filter(lambda table: table.generic).flatmap(
    lambda table: st.tuples(
        st.just(table),
        st.integers(0, 12).flatmap(lambda r: st.tuples(st.just(r), types_of_rank(table, r))),
    )))
def test_types_of_every_rank_to_twelve_agree(drawn):
    table, (r, t) = drawn
    assert_walks_agree(table, t)
    assert rank(t) == r
    assert table.is_type(t)


def deepest_chains():
    """Types nested `MAX_TYPE_NESTING` levels deep, the most a parse accepts:
    each bounded kind all the way down, and the kinds in turn."""
    kinds = (Cov, Con, Inv)
    depth = MAX_TYPE_NESTING - 1
    yield nested([Cov] * depth, GroundType("C", WILD))
    yield nested([Con] * depth, GroundType("C", Cov(GroundType("O"))))
    yield nested([Inv] * MAX_TYPE_NESTING, GroundType("N"))
    yield nested([kinds[i % 3] for i in range(depth)], GroundType("C", WILD))


def test_the_deepest_chains_agree():
    table = parse_declarations(CORPUS["one_generic"])
    text = "C<? <: " * (MAX_TYPE_NESTING - 1) + "C<?>" + ">" * (MAX_TYPE_NESTING - 1)
    parsed = parse_ground_type(text, table)
    assert parsed == next(deepest_chains())
    for t in deepest_chains():
        assert_walks_agree(table, t)
    assert rank(parsed) == MAX_TYPE_NESTING


@pytest.mark.parametrize("bad", ["C", 42, GroundType("C", WILD)])
def test_a_non_argument_gives_the_same_error_at_any_depth(bad):
    table = parse_declarations(CORPUS["one_generic"])
    for t in (GroundType("C", bad), nested([Cov, Inv, Con], GroundType("C", bad))):
        assert_walks_agree(table, t)
        with pytest.raises(TypeError, match=re.escape(f"not a type argument: {bad!r}")):
            rank(t)
        assert not table.is_type(t)


def frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_the_walks_do_not_recurse_once_per_level():
    table = parse_declarations(CORPUS["one_generic"])
    t = next(deepest_chains())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 50)
    try:
        ranked, is_type = rank(t), table.is_type(t)
        shapes = {"builder": builder._shape(t), "rules": _Rules(table).shape(t)}
    finally:
        sys.setrecursionlimit(limit)
    assert ranked == MAX_TYPE_NESTING
    assert is_type
    for name, shape in shapes.items():
        # Walked in a loop: comparing deep tuples with `==` counts against
        # the recursion limit too.
        levels = 0
        while shape[1] is Cov:
            assert shape[0] == "C", name
            shape, levels = shape[2], levels + 1
        assert (levels, shape) == (MAX_TYPE_NESTING - 1, ("C", Wild, None)), name


def test_deep_types_compare_hash_and_print_without_recursing():
    table = parse_declarations(CORPUS["one_generic"])
    text = canonical_label(next(deepest_chains()))
    t1, t2 = parse_ground_type(text, table), parse_ground_type(text, table)
    changed = parse_ground_type(text.replace("C<?>", "C<N>"), table)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 50)
    try:
        equal, hashes, one = t1 == t2, (hash(t1), hash(t2)), len({t1, t2})
        printed, differ = repr(t1), t1 != changed
    finally:
        sys.setrecursionlimit(limit)
    assert t1 is not t2
    assert equal and hashes[0] == hashes[1] and one == 1
    assert printed.count("GroundType(") == MAX_TYPE_NESTING
    assert differ


class Renamed(GroundType):
    """A subclass, which `==` tells apart from a `GroundType` of the same fields."""


def values():
    """The types of rank at most 3 over two generic classes and a plain one,
    and values no parse makes: arguments that are not arguments, bounds that
    are not types, a subclass at the top and below, and a string."""
    table = parse_declarations("class A {} class C<T> {} class D<T> extends C<T> {}")
    c = GroundType("C", WILD)
    return [
        *enumerate_types(table, 3),
        GroundType("C", Inv(42)),
        GroundType("C", GroundType("A")),
        GroundType("C", Cov(Inv(GroundType("A")))),
        Renamed("C", Inv(GroundType("A"))),
        GroundType("C", Cov(Renamed("C", WILD))),
        "junk",
        GroundType("C", "junk"),
        GroundType("C", Con(GroundType("D", Inv(c)))),
        GroundType("C", Inv(GroundType("C", Cov(Inv(c))))),
        GroundType("D", Con(None)),
    ]


def test_values_compare_and_print_as_generated_dataclasses():
    # Made twice, so that equal values are also compared as distinct objects.
    first, second = values(), values()
    mirrors = [reference_value(v) for v in first + second]
    for v, m in zip(first, mirrors):
        assert repr(v) == repr(m)
        for w, n in zip(first + second, mirrors):
            assert (v == w, v != w) == (m == n, m != n), (v, w)
            if v == w:
                assert hash(v) == hash(w), (v, w)


def test_types_that_differ_only_in_an_argument_kind_hash_apart():
    types = enumerate_types(parse_declarations("class C<T> {}"), 6)
    assert len(set(map(hash, types))) == len(types) == 608
