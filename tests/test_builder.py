"""The iterated construction and its reachability queries."""

from __future__ import annotations

import pytest

from groundsub import (
    PartitionedGraph,
    QueryError,
    SizeLimitError,
    initial_approximation,
    initial_wildcards,
    parse_declarations,
    parse_ground_type,
    partial_product,
    reachable,
    run,
    step,
    subtype_by_graph,
    transitive_reduction,
    wildcards_graph,
    wildcards_size,
)
from groundsub import builder
from groundsub.labels import instantiation_label

from conftest import ALL_PLAIN_SOURCE
from oracles import (
    contravariant_image,
    covariant_image,
    induced_subgraph,
    reflexive_transitive_closure,
    relabeled,
)


class TestInitialApproximation:
    def test_one_generic(self, tables):
        s1 = initial_approximation(tables["one_generic"])
        assert s1.graph.sorted_vertices == ("C<?>", "N", "O")
        assert s1.graph.edge_pairs == {("N", "C<?>"), ("C<?>", "O")}

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
        table = tables["one_generic"]
        s1 = initial_approximation(table)
        s2 = step(table, s1)
        assert len(s2.graph.vertices) == 8
        s3 = step(table, s2)
        assert len(s3.graph.vertices) == 23

    def test_two_generics_count(self, tables):
        table = tables["two_generics"]
        s1 = initial_approximation(table)
        assert len(s1.graph.vertices) == 4
        assert len(step(table, s1).graph.vertices) == 2 * 9 + 2


class TestRun:
    def test_trace_stats(self, traces):
        assert [v for v, _ in traces["one_generic"].stats] == [3, 8, 23]
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
    def test_bottom_below_everything(self, tables, traces):
        table = tables["one_generic"]
        trace = traces["one_generic"]
        bottom = parse_ground_type("N", table)
        for text in ("O", "C<?>", "C<? <: C<?>>", "C<N>"):
            assert subtype_by_graph(trace, bottom, parse_ground_type(text, table))

    def test_invariant_arguments_unrelated(self, numbers_table):
        trace = run(numbers_table, 2)
        t1 = parse_ground_type("List<Integer>", numbers_table)
        t2 = parse_ground_type("List<Number>", numbers_table)
        assert not subtype_by_graph(trace, t1, t2)
        assert not subtype_by_graph(trace, t2, t1)

    def test_wildcard_instantiation_below_top(self, tables, traces):
        table = tables["one_generic"]
        t = parse_ground_type("C<?>", table)
        assert subtype_by_graph(traces["one_generic"], t, parse_ground_type("O", table))

    def test_depth_from_ranks(self, tables):
        table = tables["one_generic"]
        shallow = run(table, 1)
        t = parse_ground_type("C<? <: C<?>>", table)
        with pytest.raises(QueryError, match="rerun"):
            subtype_by_graph(shallow, t, t)

    def test_reflexive_transitive_antisymmetric(self, tables, traces):
        from groundsub import enumerate_types

        table = tables["one_generic"]
        trace = traces["one_generic"]
        universe = enumerate_types(table, 2)
        for t in universe:
            assert subtype_by_graph(trace, t, t)
        for a in universe:
            for b in universe:
                if a != b and subtype_by_graph(trace, a, b):
                    assert not subtype_by_graph(trace, b, a)
        for a in universe:
            for b in universe:
                for c in universe:
                    if subtype_by_graph(trace, a, b) and subtype_by_graph(trace, b, c):
                        assert subtype_by_graph(trace, a, c)


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
                assert restricted.equals_ignoring_tags(closed)
