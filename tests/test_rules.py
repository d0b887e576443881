"""The rule-based decision procedure and the differential comparison."""

from __future__ import annotations

import pytest

from groundsub import (
    WILD,
    Con,
    Cov,
    GroundType,
    Inv,
    SizeLimitError,
    canonical_label,
    contains_argument,
    differential_check,
    enumerate_types,
    is_subtype,
    parse_declarations,
    parse_ground_type,
)
from groundsub import rules

from conftest import ALL_PLAIN_SOURCE


@pytest.fixture
def one_generic(tables):
    return tables["one_generic"]


def args_universe(table, max_rank=2):
    """All normalized arguments drawn from the bounded type universe."""
    out = [WILD]
    for t in enumerate_types(table, max_rank):
        out.append(Inv(t))
        if t.name not in ("O", "N") or t.arg is not None:
            out.append(Cov(t))
            out.append(Con(t))
    return out


class TestContains:
    def test_exact_argument_inside_its_bounds(self, one_generic):
        t = GroundType("C", WILD)
        assert contains_argument(Inv(t), Cov(t), one_generic)
        assert contains_argument(Inv(t), Con(t), one_generic)

    def test_covariance_direction(self, numbers_table):
        integer = GroundType("Integer")
        number = GroundType("Number")
        assert contains_argument(Cov(integer), Cov(number), numbers_table)
        assert not contains_argument(Cov(number), Cov(integer), numbers_table)

    def test_contravariance_direction(self, numbers_table):
        integer = GroundType("Integer")
        number = GroundType("Number")
        assert contains_argument(Con(number), Con(integer), numbers_table)
        assert not contains_argument(Con(integer), Con(number), numbers_table)

    def test_wildcard_is_the_unique_maximum(self, one_generic):
        universe = args_universe(one_generic)
        for a in universe:
            assert contains_argument(a, WILD, one_generic)
            if a != WILD:
                assert not contains_argument(WILD, a, one_generic)

    def test_reflexive_and_transitive(self, one_generic):
        universe = args_universe(one_generic)
        for a in universe:
            assert contains_argument(a, a, one_generic)
        for a in universe:
            for b in universe:
                for c in universe:
                    if contains_argument(a, b, one_generic) and contains_argument(
                        b, c, one_generic
                    ):
                        assert contains_argument(a, c, one_generic)


class TestSubtype:
    def test_variance_rule_triples(self, numbers_table):
        def sub(a, b):
            return is_subtype(
                parse_ground_type(a, numbers_table),
                parse_ground_type(b, numbers_table),
                numbers_table,
            )

        assert sub("List<? extends Integer>", "List<? extends Number>")
        assert sub("List<? super Number>", "List<? super Integer>")
        assert not sub("List<Integer>", "List<Number>")
        assert not sub("List<Number>", "List<Integer>")

    def test_bottom_is_minimum_and_top_is_maximum(self, one_generic):
        bottom, top = GroundType("N"), GroundType("O")
        for t in enumerate_types(one_generic, 2):
            assert is_subtype(bottom, t, one_generic)
            assert is_subtype(t, top, one_generic)

    def test_partial_order_axioms(self, one_generic):
        universe = enumerate_types(one_generic, 2)
        for t in universe:
            assert is_subtype(t, t, one_generic)
        for a in universe:
            for b in universe:
                if a != b and is_subtype(a, b, one_generic):
                    assert not is_subtype(b, a, one_generic)
        for a in universe:
            for b in universe:
                for c in universe:
                    if is_subtype(a, b, one_generic) and is_subtype(b, c, one_generic):
                        assert is_subtype(a, c, one_generic)

    def test_passthrough_inheritance(self, tables):
        table = tables["passthrough"]
        for a in args_universe(table, 1):
            for b in args_universe(table, 1):
                lhs = is_subtype(GroundType("E", a), GroundType("C", b), table)
                rhs = is_subtype(GroundType("C", a), GroundType("C", b), table)
                assert lhs == rhs

    def test_unrelated_heads(self, tables):
        table = tables["two_generics"]
        c = GroundType("C", WILD)
        d = GroundType("D", WILD)
        assert not is_subtype(c, d, table)
        assert not is_subtype(d, c, table)


class TestEnumerateTypes:
    def test_rank_zero_is_plain_names(self, one_generic):
        assert [canonical_label(t) for t in enumerate_types(one_generic, 0)] == ["N", "O"]

    def test_rank_one_matches_first_approximation(self, one_generic):
        labels = [canonical_label(t) for t in enumerate_types(one_generic, 1)]
        assert labels == ["N", "O", "C<?>"]

    def test_rank_two_matches_second_approximation(self, one_generic):
        assert len(enumerate_types(one_generic, 2)) == 8

    def test_counts_track_graph_sizes(self, tables, traces):
        for name, trace in traces.items():
            for k, (vertices, _) in enumerate(trace.stats, start=1):
                assert len(enumerate_types(tables[name], k)) == vertices, name

    def test_order_is_deterministic(self, one_generic):
        assert enumerate_types(one_generic, 3) == enumerate_types(one_generic, 3)


class TestDifferentialCheck:
    def test_one_generic_depth_three(self, one_generic):
        report = differential_check(one_generic, 3)
        assert report.type_count == 23
        assert report.pair_count == 529
        assert report.ok

    def test_passthrough_depth_two_includes_cross_pairs(self, tables):
        table = tables["passthrough"]
        report = differential_check(table, 2)
        assert report.type_count == 20
        assert report.ok
        cross = parse_ground_type("E<? <: C<?>>", table)
        target = parse_ground_type("C<?>", table)
        assert is_subtype(cross, target, table)

    def test_no_generics_degenerates_to_subclassing(self):
        table = parse_declarations(ALL_PLAIN_SOURCE)
        report = differential_check(table, 1)
        assert report.ok
        assert report.type_count == len(table.classes)

    def test_pair_limit_at_the_boundary(self, one_generic, monkeypatch):
        # One generic class has 3, 8 and then 23 types up to ranks 1, 2, 3.
        monkeypatch.setattr(rules, "MAX_PAIRS", 64)
        assert differential_check(one_generic, 2).pair_count == 64
        with pytest.raises(SizeLimitError, match="rank 3 has 23 types, so at least 529"):
            differential_check(one_generic, 3)

    def test_minimum_rank_is_enforced(self, one_generic):
        with pytest.raises(ValueError):
            differential_check(one_generic, 0)
