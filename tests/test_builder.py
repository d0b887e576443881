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
    canonical_label,
    enumerate_types,
    initial_approximation,
    initial_wildcards,
    parse_declarations,
    parse_ground_type,
    partial_product,
    reachable,
    run,
    subtype_by_graph,
    sufficient_depth,
    transitive_reduction,
    wildcards_graph,
    wildcards_size,
)
from groundsub import builder, cli
from groundsub.labels import instantiation_label

from conftest import ALL_PLAIN_SOURCE
from oracles import (
    contravariant_image,
    covariant_image,
    edge_pairs,
    equals_ignoring_tags,
    induced_subgraph,
    reference_hasse,
    reflexive_transitive_closure,
    relabeled,
    reversed_graph,
    subtype_by_trace,
)


class TestInitialApproximation:
    def test_one_generic(self, tables):
        s1 = initial_approximation(tables["one_generic"])
        assert s1.graph.sorted_vertices == ("C<?>", "N", "O")
        assert edge_pairs(s1.graph) == {("N", "C<?>"), ("C<?>", "O")}

    def test_plain_and_generic(self, tables):
        s1 = initial_approximation(tables["plain_and_generic"])
        assert s1.graph.vertices == {"O", "C", "D<?>", "N"}

    def test_no_generics_leaves_graph_unchanged(self):
        table = parse_declarations(ALL_PLAIN_SOURCE)
        assert initial_approximation(table).graph == table.graph.graph

    def test_equals_product_with_initial_arguments(self, tables):
        for table in tables.values():
            pg = PartitionedGraph(table.graph.graph, table.generic)
            direct = partial_product(pg, initial_wildcards(), combine=instantiation_label)
            assert initial_approximation(table).graph == direct

    def test_relabel_view(self, tables):
        for table in tables.values():
            expected = relabeled(
                table.graph.graph,
                lambda c: instantiation_label(c, "?") if table.is_generic(c) else c,
            )
            assert initial_approximation(table).graph == expected


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
        assert trace.reached_fixed_point
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
        assert run(parse_declarations(ALL_PLAIN_SOURCE), 10**9).reached_fixed_point

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

    def test_size_law_of_each_step_is_checked(self, tables, tmp_path, capsys, monkeypatch):
        def product_ignoring_its_arguments(pg, arguments, combine):
            return partial_product(pg, initial_wildcards(), combine)

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

    def test_vertex_count_recurrence(self, tables, traces):
        for name, trace in traces.items():
            table = tables[name]
            plain = len(table.classes) - len(table.generic)
            for (n, _), (n_next, _) in zip(trace.stats, trace.stats[1:]):
                assert n_next == len(table.generic) * wildcards_size(n) + plain

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
        # Above C<N> in S_2 lie C<? <: C<?>>, C<?> and O: four vertices.
        table = tables["one_generic"]
        t1, t2 = parse_ground_type("C<N>", table), parse_ground_type("C<O>", table)
        monkeypatch.setattr(builder, "MAX_VERTICES", 4)
        assert not subtype_by_graph(table, t1, t2)
        monkeypatch.setattr(builder, "MAX_VERTICES", 3)
        with pytest.raises(SizeLimitError, match="above C<N> in approximation 2 passed the limit of 3"):
            subtype_by_graph(table, t1, t2)

    def test_enumeration_refused_before_it_starts(self, tables, monkeypatch):
        # N's covers in S_3 are C<t> for every t of S_2, which has 8 vertices.
        table = tables["one_generic"]
        monkeypatch.setattr(builder, "MAX_VERTICES", 7)
        graph = InfiniteGraph(table)
        bottom, deep = parse_ground_type("N", table), parse_ground_type("C<C<C<?>>>", table)
        with pytest.raises(SizeLimitError, match="approximation 2 would have 8 vertices"):
            graph.reaches(bottom, deep, 3)
        monkeypatch.setattr(builder, "MAX_VERTICES", 8)
        assert len(graph.vertices(2)) == 8

    def test_rank_twenty_answers_without_building(self, tables, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("built an approximation to answer a query")

        for name in ("run", "partial_product", "wildcards_graph"):
            monkeypatch.setattr(builder, name, refuse)
        table = tables["one_generic"]
        deep = parse_ground_type("C<" * 20 + "?" + ">" * 20, table)
        assert subtype_by_graph(table, deep, parse_ground_type("C<? <: C<?>>", table))
        assert not subtype_by_graph(table, parse_ground_type("C<?>", table), deep)


GATE_DEPTH = 4


@pytest.fixture(scope="module")
def gate_traces(tables, numbers_table):
    """S_1 to S_4 of every corpus program and the numbers table."""
    programs = dict(tables, numbers=numbers_table)
    return {name: (table, run(table, GATE_DEPTH)) for name, table in programs.items()}


def labels(types):
    return sorted(map(canonical_label, types))


class TestInfiniteGraph:
    def test_covers_match_the_materialised_graphs(self, gate_traces):
        for name, (table, trace) in gate_traces.items():
            graph = InfiniteGraph(table)
            for k, s in enumerate(trace.graphs, start=1):
                below = reversed_graph(s.graph)
                for v in s.graph.sorted_vertices:
                    t = parse_ground_type(v, table)
                    assert labels(graph.covers_up(t, k)) == list(s.graph.successors(v)), (name, k, v)
                    assert labels(graph.covers_down(t, k)) == list(below.successors(v)), (name, k, v)

    def test_graphs_and_covers_match_a_rules_only_reference(self, gate_traces):
        # The Hasse diagram of the rules decider's order shares no rule
        # code with `run` or `InfiniteGraph`.
        for name, (table, trace) in gate_traces.items():
            graph = InfiniteGraph(table)
            for k in range(1, 4):
                reference = reference_hasse(table, k)
                below = reversed_graph(reference)
                assert equals_ignoring_tags(trace.graphs[k - 1].graph, reference), (name, k)
                assert labels(graph.vertices(k)) == list(reference.sorted_vertices), (name, k)
                for v in reference.sorted_vertices:
                    t = parse_ground_type(v, table)
                    assert labels(graph.covers_up(t, k)) == list(reference.successors(v)), (name, k, v)
                    assert labels(graph.covers_down(t, k)) == list(below.successors(v)), (name, k, v)

    def test_vertices_match_the_materialised_graphs(self, gate_traces):
        for name, (table, trace) in gate_traces.items():
            graph = InfiniteGraph(table)
            for k, s in enumerate(trace.graphs, start=1):
                assert labels(graph.vertices(k)) == list(s.graph.sorted_vertices), (name, k)

    def test_vertices_below_depth_one_are_refused(self, tables, monkeypatch):
        # Refused before anything is enumerated or cached.
        def refuse(table):
            pytest.fail("enumerated an approximation")

        graph = InfiniteGraph(tables["one_generic"])
        monkeypatch.setattr(builder, "predicted_sizes", refuse)
        for k in (0, -3):
            with pytest.raises(ValueError, match="k must be at least 1"):
                graph.vertices(k)

    def test_covers_depend_on_depth(self, tables):
        table = tables["one_generic"]
        graph = InfiniteGraph(table)
        bottom, wild = parse_ground_type("N", table), parse_ground_type("C<?>", table)
        assert wild in graph.covers_up(bottom, 1)
        assert wild not in graph.covers_up(bottom, 2)

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
            with pytest.raises(GraphError, match="is not a vertex of approximation 1"):
                graph.covers_up(t, 1)
        assert graph.covers_down(nested, 2)


class TestSelfSimilarity:
    def test_embeddings_between_consecutive_steps(self, tables, traces):
        for name, trace in traces.items():
            table = tables[name]
            for current, nxt in zip(trace.graphs, trace.graphs[1:]):
                for cls in sorted(table.generic):
                    for u in current.graph.vertices:
                        for v in current.graph.vertices:
                            expected = reachable(current.graph, u, v)
                            cov_u = covariant_image(cls, u)
                            cov_v = covariant_image(cls, v)
                            assert reachable(nxt.graph, cov_u, cov_v) == expected
                            con_u = contravariant_image(cls, u)
                            con_v = contravariant_image(cls, v)
                            assert reachable(nxt.graph, con_v, con_u) == expected


class TestMonotoneApproximation:
    def test_restriction_of_next_closure_matches(self, traces):
        for trace in traces.values():
            for current, nxt in zip(trace.graphs, trace.graphs[1:]):
                restricted = induced_subgraph(
                    reflexive_transitive_closure(nxt.graph), current.graph.vertices
                )
                closed = reflexive_transitive_closure(current.graph)
                assert equals_ignoring_tags(restricted, closed)
