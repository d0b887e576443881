"""The rule-based decision procedure and the differential comparison."""

from __future__ import annotations

import dataclasses
import re
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groundsub import (
    WILD,
    ClassTable,
    Con,
    Cov,
    GraphError,
    GroundType,
    Inv,
    LabeledDigraph,
    Mismatch,
    SizeLimitError,
    argument_label,
    canonical_label,
    differential_check,
    enumerate_types,
    is_subtype,
    normalize_type,
    parse_declarations,
    parse_ground_type,
    run,
    subtype_by_graph,
)
from groundsub import builder, rules
from groundsub.cli import main

from conftest import ALL_PLAIN_SOURCE, CORPUS, NUMBERS_SOURCE
from oracles import (
    reference_contains_argument,
    reference_differential_check,
    reference_is_subtype,
)

# Tables whose types `test_deep_types_agree_with_equality_guards` nests.
DEEP_TABLES = {
    "one_generic": parse_declarations(CORPUS["one_generic"]),
    "numbers": parse_declarations(NUMBERS_SOURCE),
}


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


@st.composite
def nested_types(draw, table, max_depth=8):
    """A normalised type over `table`: a plain class or `C<?>` inside up to
    `max_depth` generic classes, each with an exact or a bounded argument."""
    plain = [GroundType(c) for c in table.classes if not table.is_generic(c)]
    generics = sorted(table.generic)
    t = draw(st.sampled_from(plain + [GroundType(c, WILD) for c in generics]))
    for _ in range(draw(st.integers(min_value=0, max_value=max_depth))):
        kind = draw(st.sampled_from([Inv, Cov, Con]))
        t = GroundType(draw(st.sampled_from(generics)), kind(t))
    return normalize_type(t)


def deep_pairs():
    """A table of `DEEP_TABLES` with two nested types over it."""
    return st.sampled_from(sorted(DEEP_TABLES)).flatmap(
        lambda name: st.tuples(
            st.just(name), nested_types(DEEP_TABLES[name]), nested_types(DEEP_TABLES[name])
        )
    )


def contains(a, b, table):
    """Containment asked as subtyping: `a` is contained in `b` exactly when
    `C<a> <: C<b>`, for any generic class `C` of the table."""
    head = min(table.generic)
    return is_subtype(GroundType(head, a), GroundType(head, b), table)


class TestContains:
    def test_exact_argument_inside_its_bounds(self, one_generic):
        t = GroundType("C", WILD)
        assert contains(Inv(t), Cov(t), one_generic)
        assert contains(Inv(t), Con(t), one_generic)

    def test_covariance_direction(self, numbers_table):
        integer = GroundType("Integer")
        number = GroundType("Number")
        assert contains(Cov(integer), Cov(number), numbers_table)
        assert not contains(Cov(number), Cov(integer), numbers_table)

    def test_contravariance_direction(self, numbers_table):
        integer = GroundType("Integer")
        number = GroundType("Number")
        assert contains(Con(number), Con(integer), numbers_table)
        assert not contains(Con(integer), Con(number), numbers_table)

    def test_wildcard_is_the_unique_maximum(self, one_generic):
        universe = args_universe(one_generic)
        for a in universe:
            assert contains(a, WILD, one_generic)
            if a != WILD:
                assert not contains(WILD, a, one_generic)

    def test_reflexive_and_transitive(self, one_generic):
        universe = args_universe(one_generic)
        for a in universe:
            assert contains(a, a, one_generic)
        for a in universe:
            for b in universe:
                for c in universe:
                    if contains(a, b, one_generic) and contains(b, c, one_generic):
                        assert contains(a, c, one_generic)

    def test_every_pair_agrees_with_the_reference(self, tables, numbers_table):
        for name, table in [*tables.items(), ("numbers", numbers_table)]:
            universe = args_universe(table)
            for a in universe:
                for b in universe:
                    assert contains(a, b, table) == reference_contains_argument(
                        a, b, table
                    ), (name, argument_label(a), argument_label(b))


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

    def test_name_guards_agree_with_equality_guards(self, tables, numbers_table):
        for name, table in [*tables.items(), ("numbers", numbers_table)]:
            universe = enumerate_types(table, 3)
            for a in universe:
                for b in universe:
                    assert is_subtype(a, b, table) == reference_is_subtype(a, b, table), (
                        name, canonical_label(a), canonical_label(b)
                    )

    @given(deep_pairs())
    def test_deep_types_agree_with_equality_guards(self, case):
        # `query` decides types nested deeper than `selfcheck` enumerates.
        name, a, b = case
        table = DEEP_TABLES[name]
        for t1, t2 in ((a, b), (b, a), (a, a)):
            assert is_subtype(t1, t2, table) == reference_is_subtype(t1, t2, table), (
                name, canonical_label(t1), canonical_label(t2)
            )

    def test_unrelated_heads(self, tables):
        table = tables["two_generics"]
        c = GroundType("C", WILD)
        d = GroundType("D", WILD)
        assert not is_subtype(c, d, table)
        assert not is_subtype(d, c, table)


# `C<?>` spelled with its default bound, which the parser normalises away.
SPELLED_WILD = GroundType("C", Cov(GroundType("O")))


class TestRefusedInput:
    @pytest.mark.parametrize(
        "ask_rules, graph_pair, named",
        [
            (
                lambda t: is_subtype(GroundType("X"), GroundType("O"), t),
                (GroundType("X"), GroundType("O")),
                "'X'",
            ),
            (
                lambda t: is_subtype(GroundType("C", WILD), SPELLED_WILD, t),
                (GroundType("C", WILD), SPELLED_WILD),
                "'C<? <: O>'",
            ),
        ],
        ids=["undeclared_class", "unnormalised_type"],
    )
    def test_both_deciders_refuse_what_is_not_normalised_over_the_table(
        self, one_generic, ask_rules, graph_pair, named
    ):
        with pytest.raises(ValueError, match=re.escape(named)):
            ask_rules(one_generic)
        with pytest.raises(GraphError, match="is not a vertex of approximation"):
            subtype_by_graph(one_generic, *graph_pair)


class TestShapes:
    def test_equal_types_built_separately_share_a_shape(self, tables):
        table = tables["two_generics"]
        decider = rules._Rules(table)
        text = "C<? <: D<? :> C<C<?>>>>"
        built = GroundType("C", Cov(GroundType("D", Con(GroundType("C", Inv(GroundType("C", WILD)))))))
        first = decider.shape(parse_ground_type(text, table))
        assert decider.shape(parse_ground_type(text, table)) == first
        assert decider.shape(built) == first
        assert decider.shape(parse_ground_type("C<? <: D<? :> C<D<?>>>>", table)) != first

    def test_one_shape_per_type_of_every_corpus_program(self, tables):
        for name, table in tables.items():
            decider = rules._Rules(table)
            types = enumerate_types(table, 4)
            shapes = {decider.shape(t) for t in types}
            assert len(shapes) == len(types), name

    def test_query_on_a_long_chain_walks_each_class_once(self, tmp_path, capsys, monkeypatch):
        # Working out every class's superclass set up front would walk
        # about n * n / 2 parent pointers here.
        n = 2000
        chain = "".join(f"class C{i} extends C{i - 1} {{}}\n" for i in range(1, n))
        decls = tmp_path / "chain.decls"
        decls.write_text("class G<T> {}\nclass C0 {}\n" + chain, encoding="utf-8")
        calls = 0
        real = ClassTable.superclass_of

        def counted(self, name):
            nonlocal calls
            calls += 1
            return real(self, name)

        monkeypatch.setattr(ClassTable, "superclass_of", counted)
        lowest = f"G<? extends C{n - 1}>"
        assert main(["query", "--decls", str(decls), lowest, "G<? extends C0>"]) == 0
        assert capsys.readouterr().out.splitlines() == ["graph: true", "oracle: true"]
        assert 0 < calls <= 2 * n


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

    def test_negative_rank_is_refused(self, one_generic):
        with pytest.raises(ValueError, match="max_rank must be nonnegative"):
            enumerate_types(one_generic, -1)


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

    def test_each_pair_is_read_from_its_own_approximation(self, one_generic, monkeypatch):
        # Drop the cover N -> C<?> from S_1 only.  The pairs of rank at most 1
        # that went through it lose their path; every other pair is read
        # from the intact S_2, so reading S_2 for all would report nothing.
        real = run(one_generic, 2)
        first = real.graphs[0].graph
        kept = [e for e in first.edges if e[:2] != ("N", "C<?>")]
        damaged = SimpleNamespace(graph=LabeledDigraph.from_edges(kept, vertices=first.vertices))
        trace = dataclasses.replace(real, graphs=(damaged, *real.graphs[1:]))
        monkeypatch.setattr(builder, "run", lambda table, iterations: trace)
        report = differential_check(one_generic, 2)
        assert report.mismatches == (
            Mismatch("N", "O", graph_verdict=False, rule_verdict=True),
            Mismatch("N", "C<?>", graph_verdict=False, rule_verdict=True),
        )

    @pytest.mark.parametrize(
        "rows, count, first",
        [
            pytest.param(
                {Con: ((Con, Inv), rules._UP)},
                52,
                Mismatch("C<? :> C<?>>", "C<? :> C<? :> C<?>>>", True, False),
                id="swapped_con",
            ),
            pytest.param(
                {Cov: ((Cov, Inv), rules._DOWN)},
                52,
                Mismatch("C<? <: C<?>>", "C<? <: C<? :> C<?>>>", False, True),
                id="swapped_cov",
            ),
            pytest.param(
                {Cov: ((Cov,), rules._UP), Con: ((Con,), rules._DOWN)},
                50,
                Mismatch("C<C<?>>", "C<? :> C<?>>", True, False),
                id="exact_outside_its_bounds",
            ),
        ],
    )
    def test_rule_mutant_is_caught(self, one_generic, monkeypatch, rows, count, first):
        # `rows` replace rows of the one statement of containment, which
        # `subtype` reads pair by pair and the generator reads backwards.
        monkeypatch.setattr(rules, "_CONTAINS", {**rules._CONTAINS, **rows})
        report = differential_check(one_generic, 3)
        assert (len(report.mismatches), report.mismatches[0]) == (count, first)
        assert report == reference_differential_check(one_generic, 3)

    def test_builds_each_type_once(self, tables, monkeypatch):
        # The rows are read off `rules._layers` alone: nothing enumerates the
        # types, spells a label or makes a shape a second time.
        cases = [(tables["two_generics"], 3), (tables["mixed_hierarchy"], 4)]
        expected = [reference_differential_check(table, k) for table, k in cases]

        def again(*args, **kwargs):
            pytest.fail("the check built a type a second time")

        monkeypatch.setattr(rules, "canonical_label", again)
        monkeypatch.setattr(rules, "enumerate_types", again)
        monkeypatch.setattr(rules._Rules, "shape", again)
        assert [differential_check(table, k) for table, k in cases] == expected

    def test_one_flipped_rule_verdict_is_the_one_mismatch(self, one_generic, monkeypatch):
        # A rank-3 type is never the bound of an argument at rank 3, so the
        # flip reaches no other pair through the recursion.
        decider = rules._Rules(one_generic)
        left = decider.shape(parse_ground_type("C<C<N>>", one_generic))
        right = decider.shape(parse_ground_type("C<?>", one_generic))
        real = rules._Rules.above

        def flipped(self, s, k):
            return (found for found in real(self, s, k) if (s, found) != (left, right))

        monkeypatch.setattr(rules._Rules, "above", flipped)
        report = differential_check(one_generic, 3)
        assert report.mismatches == (
            Mismatch("C<C<N>>", "C<?>", graph_verdict=True, rule_verdict=False),
        )

    @pytest.mark.parametrize(
        "source, ranks",
        [
            *((CORPUS[name], (1, 2, 3)) for name in sorted(CORPUS)),
            (CORPUS["one_generic"], (4,)),
            (NUMBERS_SOURCE, (3,)),
            (ALL_PLAIN_SOURCE, (1, 2, 3, 4)),
        ],
    )
    def test_equals_the_all_pairs_reference(self, source, ranks):
        table = parse_declarations(source)
        for k in ranks:
            assert differential_check(table, k) == reference_differential_check(table, k)

    def test_graph_side_fetches_one_descendant_set_per_row_and_depth(
        self, tables, monkeypatch
    ):
        def forbidden(*args):
            raise AssertionError("per-pair graph query in differential_check")

        monkeypatch.setattr(builder, "subtype_by_graph", forbidden)
        monkeypatch.setattr(builder, "reachable", forbidden)
        calls = 0
        real = LabeledDigraph.descendants_of

        def counted(self, label):
            nonlocal calls
            calls += 1
            return real(self, label)

        monkeypatch.setattr(LabeledDigraph, "descendants_of", counted)
        report = differential_check(tables["two_generics"], 3)
        assert report.ok
        assert 0 < calls <= report.type_count * 3

    def test_rules_decide_every_pair(self, tables, monkeypatch):
        # Each row is read from one top-level call of the generator, the only
        # call at the full rank, and its up-set is the row of `subtype`,
        # which the check never asks pair by pair.
        table = tables["two_generics"]
        decider = rules._Rules(table)
        shapes = [decider.shape(t) for t in enumerate_types(table, 3)]
        for s1 in shapes:
            assert set(decider.above(s1, 3)) == {s2 for s2 in shapes if decider.subtype(s1, s2)}
        real = rules._Rules.above
        ranks = []

        def counted(self, s, k):
            ranks.append(k)
            return real(self, s, k)

        def forbidden(*args):
            raise AssertionError("per-pair rules query in differential_check")

        monkeypatch.setattr(rules._Rules, "above", counted)
        monkeypatch.setattr(rules._Rules, "subtype", forbidden)
        report = differential_check(table, 3)
        assert report.ok
        assert ranks.count(3) == report.type_count == 116

    @pytest.mark.parametrize(
        "name, k, true_pairs, keys, kept",
        [("two_generics", 3, 857, 49, 312), ("mixed_hierarchy", 4, 2775, 177, 1614)],
    )
    def test_each_bound_listing_is_made_once(
        self, tables, monkeypatch, name, k, true_pairs, keys, kept
    ):
        # Each row streams its up-set once, at full rank.  Every other
        # listing is of a bound, made once into the memo of the one `_Rules`
        # the check builds, so the shapes listed are the true pairs plus the
        # memo's entries.
        listings = []
        deciders = set()
        for direction in ("above", "below"):
            real = getattr(rules._Rules, direction)

            def spy(self, s, j, real=real, direction=direction):
                deciders.add(self)
                found = list(real(self, s, j))
                listings.append((direction, s, j, len(found)))
                yield from found

            monkeypatch.setattr(rules._Rules, direction, spy)
        report = differential_check(tables[name], k)
        assert report.ok
        rows = [n for d, _, j, n in listings if (d, j) == ("above", k)]
        assert (len(rows), sum(rows)) == (report.type_count, true_pairs)
        # No listing but a row's, below full rank or at it, is made twice.
        made = [(d == "above", s, j) for d, s, j, _ in listings if (d, j) != ("above", k)]
        assert len(made) == len(set(made))
        (decider,) = deciders
        memo = decider._listed
        assert (len(memo), sum(map(len, memo.values()))) == (keys, kept)
        assert set(made) == memo.keys()
        assert sum(n for *_, n in listings) == true_pairs + kept

    def test_a_query_lists_nothing_and_keeps_nothing(
        self, tables, monkeypatch, tmp_path, capsys
    ):
        made = []
        real_init = rules._Rules.__init__

        def init(self, table):
            real_init(self, table)
            made.append(self)

        def forbidden(*args):
            raise AssertionError("a listing made for one verdict")

        monkeypatch.setattr(rules._Rules, "__init__", init)
        monkeypatch.setattr(rules._Rules, "above", forbidden)
        monkeypatch.setattr(rules._Rules, "below", forbidden)
        table = tables["two_generics"]
        left, right = "C<C<N>>", "C<? <: C<?>>"
        assert is_subtype(parse_ground_type(left, table), parse_ground_type(right, table), table)
        decls = tmp_path / "two_generics.decls"
        decls.write_text(CORPUS["two_generics"], encoding="utf-8")
        assert main(["query", "--decls", str(decls), left, right]) == 0
        assert capsys.readouterr().out.splitlines() == ["graph: true", "oracle: true"]
        assert [decider._listed for decider in made] == [{}, {}]
