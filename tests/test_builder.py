"""The iterated construction, the covers of its graphs worked out on
demand, and the subtyping queries on them."""

from __future__ import annotations

import re

import pytest

from groundsub import (
    WILD,
    Cov,
    GraphError,
    GroundType,
    InfiniteGraph,
    Inv,
    LabeledDigraph,
    PartitionedGraph,
    SizeLimitError,
    differential_check,
    enumerate_types,
    parse_declarations,
    parse_ground_type,
    partial_product,
    reachable,
    run,
    subtype_by_graph,
    sufficient_depth,
    transitive_reduction,
    wildcards_graph,
)
from groundsub import builder, cli
from groundsub.labels import instantiation_label

from conftest import ALL_PLAIN_SOURCE, CORPUS
from oracles import (
    edge_pairs,
    equals_ignoring_tags,
    induced_subgraph,
    reference_hasse,
    reference_reaches,
    relabeled,
    shape_type,
    subtype_by_trace,
)
from test_generated import assert_covers_law


def s1_of(table):
    return run(table, 1).last


class TestInitialApproximation:
    def test_one_generic(self, tables):
        s1 = s1_of(tables["one_generic"])
        assert s1.graph.sorted_vertices == ("C<?>", "N", "O")
        assert edge_pairs(s1.graph) == {("N", "C<?>"), ("C<?>", "O")}

    def test_plain_and_generic(self, tables):
        s1 = s1_of(tables["plain_and_generic"])
        assert s1.graph.vertices == {"O", "C", "D<?>", "N"}

    def test_no_generics_leaves_graph_unchanged(self):
        table = parse_declarations(ALL_PLAIN_SOURCE)
        assert s1_of(table).graph == table.graph.graph

    def test_equals_product_with_initial_arguments(self, tables):
        wildcard = LabeledDigraph.from_edges(vertices=("?",))
        for table in tables.values():
            pg = PartitionedGraph(table.graph.graph, table.generic)
            direct = partial_product(pg, wildcard, combine=instantiation_label)
            assert s1_of(table).graph == direct

    def test_relabel_view(self, tables):
        for table in tables.values():
            expected = relabeled(
                table.graph.graph,
                lambda c: instantiation_label(c, "?") if c in table.generic else c,
            )
            assert s1_of(table).graph == expected


class TestStep:
    def test_one_generic_counts(self, tables):
        s1, s2, s3 = run(tables["one_generic"], 3).graphs
        assert len(s1.graph.vertices) == 3
        assert len(s2.graph.vertices) == 8
        assert len(s3.graph.vertices) == 23

    def test_two_generics_count(self, tables):
        s1, s2 = run(tables["two_generics"], 2).graphs
        assert len(s1.graph.vertices) == 4
        assert len(s2.graph.vertices) == 2 * 9 + 2


class TestRun:
    def test_trace_stats(self, traces):
        assert [v for v, _ in traces["one_generic"].stats] == [3, 8, 23]
        assert [v for v, _ in traces["two_generics"].stats][:2] == [4, 20]
        assert [v for v, _ in traces["mixed_hierarchy"].stats][:2] == [6, 20]

    def test_no_generics_stops_at_fixed_point(self):
        table = parse_declarations(ALL_PLAIN_SOURCE)
        trace = run(table, 4)
        assert trace.depth == 1
        assert trace.last.graph == table.graph.graph

    def test_iterations_must_be_positive(self, tables):
        with pytest.raises(ValueError):
            run(tables["one_generic"], 0)

    def test_size_limit_at_the_boundary(self, tables, monkeypatch):
        # One generic class predicts 3, 8, 23 and then 68 vertices.
        monkeypatch.setattr(builder, "MAX_VERTICES", 23)
        assert [v for v, _ in run(tables["one_generic"], 3).stats] == [3, 8, 23]
        with pytest.raises(SizeLimitError, match="approximation 4 would have 68 vertices"):
            run(tables["one_generic"], 4)
        # Without generics the sizes never grow, however deep the run.
        assert run(parse_declarations(ALL_PLAIN_SOURCE), 10**9).depth == 1

    def test_size_law_of_the_argument_graph_is_checked(self, tables, tmp_path, capsys, monkeypatch):
        def one_argument_too_many(g):
            w = wildcards_graph(g)
            return LabeledDigraph.from_edges(w.edges, w.vertices | {"? <: extra"})

        monkeypatch.setattr(builder, "wildcards_graph", one_argument_too_many)
        # One generic class predicts n_1 = 3, so W(S_1) must have 6 vertices.
        law = r"size law \|W\(S_k\)\| = 3\(n_k - 1\) fails at k = 1: 7 vertices, predicted 6"
        with pytest.raises(GraphError, match=law):
            run(tables["one_generic"], 2)
        assert run(tables["one_generic"], 1).stats == ((3, 2),)
        decls = tmp_path / "one.decls"
        decls.write_text("class C<T> {}\n", encoding="utf-8")
        assert cli.main(["stats", "--decls", str(decls), "--iterations", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {law}\n", captured.err)

    def test_edge_law_of_the_argument_graph_is_checked(self, tables, monkeypatch):
        # N -> ? lies below N -> ? <: C<?> -> ? in W(S_1) of one generic
        # class: the vertices are the same, and only the edge count grows.
        def with_implied_edge(g):
            w = wildcards_graph(g)
            return LabeledDigraph.from_edges([*w.edges, ("N", "?")], w.vertices)

        monkeypatch.setattr(builder, "wildcards_graph", with_implied_edge)
        law = r"edge law \|E\(W\(S_k\)\)\| = 2e_k \+ 2\(n_k - 2\) fails at k = 1: 7 edges, predicted 6"
        with pytest.raises(GraphError, match=law):
            run(tables["one_generic"], 2)
        assert run(tables["one_generic"], 1).stats == ((3, 2),)

    def test_size_law_of_each_step_is_checked(self, tables, tmp_path, capsys, monkeypatch):
        def product_ignoring_its_arguments(pg, arguments, combine):
            return partial_product(pg, LabeledDigraph.from_edges(vertices=("?",)), combine)

        monkeypatch.setattr(builder, "partial_product", product_ignoring_its_arguments)
        # Two generic classes predict 4 and then 2 * 3(4 - 1) + 2 = 20 vertices.
        law = r"size law \|S_k\| = n_k fails at k = 2: 4 vertices, predicted 20"
        with pytest.raises(GraphError, match=law):
            run(tables["two_generics"], 3)
        decls = tmp_path / "two.decls"
        decls.write_text("class C<T> {}\nclass D<T> {}\n", encoding="utf-8")
        out = str(tmp_path / "graph.json")
        argv = ["build", "--decls", str(decls), "--iterations", "2", "--format", "json", "--out", out]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {law}\n", captured.err)
        assert not (tmp_path / "graph.json").exists()

    @pytest.mark.parametrize(
        "count, law",
        [
            (0, r"size law \|S_k\| = n_k fails at k = 2: 8 vertices, predicted 9"),
            (1, r"edge law \|E\(S_k\)\| = e_k fails at k = 2: 10 edges, predicted 11"),
            (2, r"pair law fails at rank 2: 30 true pairs listed, predicted 31"),
        ],
        ids=["n", "e", "P"],
    )
    def test_each_predicted_count_has_a_law_that_catches_it(self, tables, monkeypatch, count, law):
        # One of (n_k, e_k, P_k) reads one too high from k = 2 on: `run`
        # checks the first two against S_2, `differential_check` the third.
        real = builder.predicted_counts

        def one_too_high(table):
            for k, counts in enumerate(real(table), start=1):
                yield tuple(c + 1 if k >= 2 and i == count else c for i, c in enumerate(counts))

        monkeypatch.setattr(builder, "predicted_counts", one_too_high)
        check = differential_check if count == 2 else run
        with pytest.raises(GraphError, match=f"^{law}$"):
            check(tables["one_generic"], 2)

    def test_vertex_sets_grow_monotonically(self, traces):
        for trace in traces.values():
            for a, b in zip(trace.graphs, trace.graphs[1:]):
                assert a.graph.vertices <= b.graph.vertices

    def test_every_approximation_is_reduced_and_bipointed(self, traces):
        for trace in traces.values():
            for s in trace.graphs:
                assert s.top == "O" and s.bottom == "N"
                assert transitive_reduction(s.graph) == s.graph
                arguments = wildcards_graph(s)
                assert transitive_reduction(arguments) == arguments


class TestVertexQueries:
    def test_nested_wildcard_reaches_default_wildcard(self, tables, traces):
        # C<N> -> C<? <: C<?>> -> C<?> is a path in the second approximation.
        s2 = traces["one_generic"].graphs[1].graph
        assert reachable(s2, "C<N>", "C<?>")
        assert reachable(s2, "C<N>", "C<? <: C<?>>")
        assert not reachable(s2, "C<?>", "C<N>")

    def test_generic_cluster_and_plain_fragment_partition_step_two(self, tables, traces):
        # The 12 vertices of the second approximation split into the nine
        # instantiations of D and the three plain classes.
        from oracles import disjoint_union

        s2 = traces["plain_and_generic"].graphs[1].graph
        cluster = {v for v in s2.vertices if v.startswith("D<")}
        fragment = s2.vertices - cluster
        assert len(cluster) == 9
        assert fragment == {"O", "C", "N"}
        union = disjoint_union(
            induced_subgraph(s2, cluster), induced_subgraph(s2, fragment)
        )
        assert union.vertices == s2.vertices
        assert len(union.vertices) == 12

    def test_induced_restriction_to_the_generic_class(self, tables):
        table = tables["plain_and_generic"]
        sub = induced_subgraph(table.graph.graph, {"D"})
        assert sub.vertices == {"D"}
        assert not sub.edges


class TestSubtypeByGraph:
    def test_bottom_below_everything(self, tables):
        table = tables["one_generic"]
        bottom = parse_ground_type("N", table)
        for text in ("O", "C<?>", "C<? <: C<?>>", "C<N>"):
            assert subtype_by_graph(table, bottom, parse_ground_type(text, table))

    def test_invariant_arguments_unrelated(self, numbers_table):
        t1 = parse_ground_type("List<Integer>", numbers_table)
        t2 = parse_ground_type("List<Number>", numbers_table)
        assert not subtype_by_graph(numbers_table, t1, t2)
        assert not subtype_by_graph(numbers_table, t2, t1)

    def test_wildcard_instantiation_below_top(self, tables):
        table = tables["one_generic"]
        t = parse_ground_type("C<?>", table)
        assert subtype_by_graph(table, t, parse_ground_type("O", table))

    def test_reflexive_transitive_antisymmetric(self, tables):
        table = tables["one_generic"]
        universe = enumerate_types(table, 2)
        for t in universe:
            assert subtype_by_graph(table, t, t)
        for a in universe:
            for b in universe:
                if a != b and subtype_by_graph(table, a, b):
                    assert not subtype_by_graph(table, b, a)
        for a in universe:
            for b in universe:
                for c in universe:
                    if subtype_by_graph(table, a, b) and subtype_by_graph(table, b, c):
                        assert subtype_by_graph(table, a, c)

    def test_search_agrees_with_reachable_on_every_pair(self, tables, traces):
        # Every ordered pair of S_3, each read from the materialised S_k of
        # its own depth.  One graph per program shares its covers across
        # the searches; `subtype_by_graph` makes a fresh one per call.
        for name, table in tables.items():
            trace, graph = traces[name], InfiniteGraph(table)
            types = [parse_ground_type(v, table) for v in trace.last.graph.sorted_vertices]
            for a in types:
                for b in types:
                    expected = subtype_by_trace(trace, a, b)
                    assert graph.reaches(a, b, sufficient_depth(a, b)) == expected, (name, a, b)

    def test_search_budget_at_the_boundary(self, tables, monkeypatch):
        # The visited sets start as {C<N>} and {C<O>}.  The upward side goes
        # first on the tie, and would add C<? <: C<?>>, C<?> and O.  With a
        # limit of 3 it stops before C<?>, keeping only C<N>, and the
        # downward side adds N and runs out.  With a limit of 2 neither side
        # can add a vertex, and the first refusal is raised.
        table = tables["one_generic"]
        t1, t2 = parse_ground_type("C<N>", table), parse_ground_type("C<O>", table)
        monkeypatch.setattr(builder, "MAX_VERTICES", 3)
        assert not subtype_by_graph(table, t1, t2)
        monkeypatch.setattr(builder, "MAX_VERTICES", 2)
        message = "the search between C<N> and C<O> in approximation 2 passed the limit of 2 vertices"
        with pytest.raises(SizeLimitError, match=re.escape(message)):
            subtype_by_graph(table, t1, t2)

    def test_a_side_past_the_limit_gives_back_its_room(self, monkeypatch):
        # In S_6 of two generic classes the first step down from C<?> lists
        # C<? :> u> for each of the 1,384 covers u of N in S_5.  That passes
        # the limit, so the downward side stops and gives back what it
        # took; the upward side then reaches C<?> alone, as the upward
        # search did.
        table = parse_declarations(CORPUS["two_generics"])
        t1 = parse_ground_type("C<D<D<C<D<D<?>>>>>>", table)
        t2 = parse_ground_type("C<?>", table)
        monkeypatch.setattr(builder, "MAX_VERTICES", 1_000)
        assert reference_reaches(InfiniteGraph(table), t1, t2, 6)
        assert subtype_by_graph(table, t1, t2)

    def test_enumeration_refused_before_it_starts(self, tables, monkeypatch):
        # N's covers in S_3 are C<t> for every t of S_2, which has 8
        # vertices.  The upward side stops there, and the downward side
        # from the exact C<C<C<?>>> reaches N at its first step.
        table = tables["one_generic"]
        monkeypatch.setattr(builder, "MAX_VERTICES", 7)
        graph = InfiniteGraph(table)
        bottom, deep = parse_ground_type("N", table), parse_ground_type("C<C<C<?>>>", table)
        assert graph.reaches(bottom, deep, 3)
        # In S_4 the upward side from N stops at the same enumeration, and
        # the downward side from C<?> at the one its first step needs, the
        # covers of N in S_3.  With both sides stopped, the first refusal
        # is raised.
        with pytest.raises(SizeLimitError, match="approximation 2 would have 8 vertices"):
            graph.reaches(bottom, parse_ground_type("C<?>", table), 4)
        monkeypatch.setattr(builder, "MAX_VERTICES", 8)
        assert len(graph._vertices_of(2)) == 8

    def test_rank_twenty_answers_without_building(self, tables, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("built an approximation to answer a query")

        for name in ("run", "partial_product", "wildcards_graph"):
            monkeypatch.setattr(builder, name, refuse)
        table = tables["one_generic"]
        deep = parse_ground_type("C<" * 20 + "?" + ">" * 20, table)
        assert subtype_by_graph(table, deep, parse_ground_type("C<? <: C<?>>", table))
        assert not subtype_by_graph(table, parse_ground_type("C<?>", table), deep)

    @pytest.mark.parametrize(
        "t1, t2",
        [
            # The upward side from N stops at the enumeration of S_199.
            ("N", "C<" * 200 + "?" + ">" * 200),
            # The upward side stops at the covers of N in S_198, which the
            # down-covers of C<?> in S_199 need.
            ("C<? :> C<?>>", "C<? :> " + "C<" * 199 + "?" + ">" * 200),
        ],
        ids=["bottom", "lower-bounded"],
    )
    def test_rank_two_hundred_answers_past_a_refused_side(self, tables, monkeypatch, t1, t2):
        def refuse(*args, **kwargs):
            pytest.fail("built an approximation to answer a query")

        monkeypatch.setattr(builder, "partial_product", refuse)
        table = tables["one_generic"]
        assert subtype_by_graph(table, parse_ground_type(t1, table), parse_ground_type(t2, table))


GATE_DEPTH = 4


@pytest.fixture(scope="module")
def gate_traces(tables, numbers_table):
    """S_1 to S_4 of every corpus program and the numbers table."""
    programs = dict(tables, numbers=numbers_table)
    return {name: (table, run(table, GATE_DEPTH)) for name, table in programs.items()}


class TestInfiniteGraph:
    def test_covers_match_the_materialised_graphs(self, gate_traces):
        for table, trace in gate_traces.values():
            assert_covers_law(table, [s.graph for s in trace.graphs])

    def test_graphs_and_covers_match_a_rules_only_reference(self, gate_traces):
        # The Hasse diagram of the rules decider's order shares no rule
        # code with `run` or `InfiniteGraph`.
        for name, (table, trace) in gate_traces.items():
            references = [reference_hasse(table, k) for k in range(1, 4)]
            for k, reference in enumerate(references, start=1):
                assert equals_ignoring_tags(trace.graphs[k - 1].graph, reference), (name, k)
            assert_covers_law(table, references)

    def test_covers_depend_on_depth(self, tables):
        table = tables["one_generic"]
        graph = InfiniteGraph(table)
        bottom, wild = parse_ground_type("N", table), parse_ground_type("C<?>", table)
        for k, expected in ((1, True), (2, False)):
            covers = map(shape_type, graph._covers_up(graph._vertex(bottom, k), k))
            assert (wild in covers) is expected, k

    def test_only_vertices_of_the_approximation_have_covers(self, tables):
        table = tables["one_generic"]
        graph = InfiniteGraph(table)
        nested = parse_ground_type("C<C<?>>", table)
        for t in (
            nested,  # rank 2
            GroundType("C"),  # a generic class needs an argument
            GroundType("O", WILD),  # a plain class takes none
            GroundType("D"),  # not a class of the table
            GroundType("C", Cov(parse_ground_type("O", table))),  # spelled `C<?>`
            GroundType("C", Inv(GroundType("C"))),
        ):
            for t1, t2 in ((t, GroundType("O")), (GroundType("N"), t)):
                with pytest.raises(GraphError, match="is not a vertex of approximation 1"):
                    graph.reaches(t1, t2, 1)
        assert graph.reaches(GroundType("N"), nested, 2)

