"""Declaration parsing, type expressions, normalization and rank."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groundsub import (
    WILD,
    BipointedGraph,
    Con,
    Cov,
    DeclarationError,
    GroundType,
    Inv,
    ParseError,
    canonical_label,
    normalize_argument,
    normalize_type,
    parse_declarations,
    parse_ground_type,
    rank,
)

from groundsub import typelang
from groundsub.typelang import MAX_TYPE_NESTING

from conftest import CORPUS


@pytest.fixture
def one_generic():
    return parse_declarations(CORPUS["one_generic"])


@pytest.fixture
def passthrough():
    return parse_declarations(CORPUS["passthrough"])


class TestParseDeclarations:
    def test_single_generic_class(self, one_generic):
        assert one_generic.classes == ("O", "C", "N")
        assert one_generic.generic == {"C"}
        assert one_generic.extends_edges == {("C", "O"), ("N", "C")}

    def test_plain_beside_generic(self):
        table = parse_declarations(CORPUS["plain_and_generic"])
        assert table.classes == ("O", "C", "D", "N")
        assert table.generic == {"D"}

    def test_passthrough_edges(self, passthrough):
        assert passthrough.extends_edges == {("E", "C"), ("C", "O"), ("N", "E")}

    def test_empty_program_wires_bottom_to_top(self):
        table = parse_declarations("")
        assert table.classes == ("O", "N")
        assert table.extends_edges == {("N", "O")}

    def test_object_alias_in_extends(self):
        table = parse_declarations("class A extends Object {}")
        assert ("A", "O") in table.extends_edges

    def test_forward_reference_is_allowed(self):
        table = parse_declarations("class A extends B {}\nclass B {}")
        assert ("A", "B") in table.extends_edges
        assert ("N", "A") in table.extends_edges
        assert ("N", "B") not in table.extends_edges

    def test_table_yields_valid_bipointed_graph(self, tables):
        for table in tables.values():
            g = table.graph
            assert isinstance(g, BipointedGraph)
            assert g.top == "O" and g.bottom == "N"

    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_declarations("class A {}\nclass {}")

    def test_duplicate_class(self):
        with pytest.raises(DeclarationError, match="duplicate"):
            parse_declarations("class A {} class A {}")

    def test_undeclared_superclass(self):
        with pytest.raises(DeclarationError, match="undeclared"):
            parse_declarations("class A extends Zzz {}")

    def test_reserved_names_cannot_be_declared(self):
        for name in ("O", "N", "Object", "Null"):
            with pytest.raises(ParseError, match="reserved"):
                parse_declarations(f"class {name} {{}}")

    def test_cannot_extend_bottom(self):
        with pytest.raises(ParseError, match="bottom"):
            parse_declarations("class A extends Null {}")

    def test_nongeneric_extending_generic_is_rejected(self):
        with pytest.raises(DeclarationError, match="non-generic"):
            parse_declarations("class C<T> {} class D extends C {}")

    def test_generic_must_pass_its_own_parameter(self):
        with pytest.raises(DeclarationError, match="own parameter"):
            parse_declarations("class C<T> {} class E<S> extends C<T> {}")

    def test_generic_extending_generic_requires_passthrough(self):
        with pytest.raises(DeclarationError, match="must pass"):
            parse_declarations("class C<T> {} class E<S> extends C {}")

    def test_argument_to_plain_superclass_is_rejected(self):
        with pytest.raises(DeclarationError, match="non-generic superclass"):
            parse_declarations("class C {} class E<T> extends C<T> {}")

    def test_inheritance_cycle(self):
        with pytest.raises(DeclarationError, match="cycle"):
            parse_declarations("class A extends B {} class B extends A {}")


class TestParseGroundType:
    def test_wildcard_spellings_normalize(self, one_generic):
        t = parse_ground_type("C<? extends Object>", one_generic)
        assert t == GroundType("C", WILD)
        assert canonical_label(t) == "C<?>"

    def test_lower_bound_of_top_is_invariant_top(self, one_generic):
        t = parse_ground_type("C<? super O>", one_generic)
        assert t == GroundType("C", Inv(GroundType("O")))
        assert canonical_label(t) == "C<O>"

    def test_nested_corner_normalizes_recursively(self, passthrough):
        t = parse_ground_type("E<? <: C<? :> N>>", passthrough)
        assert t == GroundType("E", Cov(GroundType("C", WILD)))
        assert canonical_label(t) == "E<? <: C<?>>"

    def test_alternate_keywords(self, one_generic):
        spellings = ["C<? extends C<?>>", "C<? <: C<?>>", "C<?<:C<?>>"]
        parsed = {parse_ground_type(s, one_generic) for s in spellings}
        assert len(parsed) == 1

    def test_unknown_class(self, one_generic):
        with pytest.raises(ParseError, match="unknown class"):
            parse_ground_type("Zzz", one_generic)

    def test_argument_to_plain_class(self, one_generic):
        with pytest.raises(ParseError, match="not generic"):
            parse_ground_type("O<C<?>>", one_generic)

    def test_missing_argument(self, one_generic):
        with pytest.raises(ParseError, match="needs a type argument"):
            parse_ground_type("C", one_generic)

    def test_trailing_input(self, one_generic):
        with pytest.raises(ParseError, match="trailing"):
            parse_ground_type("N O", one_generic)

    def test_nesting_limit(self, one_generic):
        def nested(depth):
            return "C<" * depth + "?" + ">" * depth

        t = parse_ground_type(nested(MAX_TYPE_NESTING), one_generic)
        assert canonical_label(t) == nested(MAX_TYPE_NESTING)
        for depth in (MAX_TYPE_NESTING + 1, 500):
            with pytest.raises(ParseError, match="nested deeper"):
                parse_ground_type(nested(depth), one_generic)

    def test_normalization_is_linear_in_depth(self, one_generic, monkeypatch):
        calls = []
        original = typelang.normalize_type

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(typelang, "normalize_type", counting)
        text = "C<? <: " * MAX_TYPE_NESTING + "O" + ">" * MAX_TYPE_NESTING
        t = parse_ground_type(text, one_generic)
        assert len(calls) <= 2 * MAX_TYPE_NESTING
        depth = MAX_TYPE_NESTING - 1
        assert canonical_label(t) == "C<? <: " * depth + "C<?>" + ">" * depth


class TestNormalization:
    def test_corner_rules(self):
        o, n = GroundType("O"), GroundType("N")
        assert normalize_argument(Cov(o)) == WILD
        assert normalize_argument(Con(n)) == WILD
        assert normalize_argument(Con(o)) == Inv(o)
        assert normalize_argument(Cov(n)) == Inv(n)

    def test_non_corner_arguments_unchanged(self):
        c = GroundType("C", WILD)
        assert normalize_argument(Cov(c)) == Cov(c)
        assert normalize_argument(Con(c)) == Con(c)
        assert normalize_argument(Inv(c)) == Inv(c)


def ground_types(table, max_depth=3):
    """Strategy for normalized ground types over `table`."""
    plain = sorted(c for c in table.classes if not table.is_generic(c))
    generics = sorted(table.generic)
    base = st.sampled_from(plain).map(GroundType)
    if not generics:
        return base

    def extend(children):
        args = st.one_of(
            st.just(WILD),
            children.map(Inv),
            children.map(Cov),
            children.map(Con),
        )
        return st.tuples(st.sampled_from(generics), args).map(
            lambda pair: GroundType(pair[0], pair[1])
        )

    return st.recursive(base, extend, max_leaves=max_depth).map(normalize_type)


class TestRoundTrip:
    @given(st.data())
    def test_parse_after_print_is_identity(self, data):
        table = parse_declarations(CORPUS["passthrough"])
        t = data.draw(ground_types(table))
        assert parse_ground_type(canonical_label(t), table) == t

    @given(st.data())
    def test_normalization_is_idempotent(self, data):
        table = parse_declarations(CORPUS["two_generics"])
        t = data.draw(ground_types(table))
        assert normalize_type(t) == t


class TestRank:
    def test_plain_names(self):
        assert rank(GroundType("O")) == 0
        assert rank(GroundType("N")) == 0

    def test_default_wildcard_instantiation(self):
        assert rank(GroundType("C", WILD)) == 1

    def test_nested_covariant_bound(self):
        t = GroundType("C", Cov(GroundType("C", WILD)))
        assert rank(t) == 2

    def test_bounded_plain_argument_appears_one_step_late(self):
        # The argument itself must exist as a vertex before the class can be
        # instantiated with it, so a plain bound still costs a full step.
        assert rank(GroundType("C", Inv(GroundType("N")))) == 2
        assert rank(GroundType("C", Cov(GroundType("D", WILD)))) == 2

    def test_rank_matches_first_appearance(self, tables, traces):
        # A normalized type over the program is a vertex of the k-th
        # approximation exactly when its rank is at most k.
        from groundsub import enumerate_types

        for name, table in tables.items():
            trace = traces[name]
            universe = enumerate_types(table, trace.depth)
            for t in universe:
                label = canonical_label(t)
                for k, s in enumerate(trace.graphs, start=1):
                    assert (label in s.graph.vertices) == (rank(t) <= k), (name, label, k)
