"""Vertex-partitioned product: direct rules versus the merge-based path."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundsub import (
    GraphError,
    LabeledDigraph,
    PartitionedGraph,
    parse_declarations,
    partial_product,
    run,
    transitive_reduction,
    wildcards_graph,
)
from groundsub.labels import instantiation_label
from groundsub.product import _cover_edges, _product_labels

from conftest import CORPUS, dags
from oracles import cartesian_product, partial_product_via_merge


@pytest.fixture
def mixed_table():
    return parse_declarations(CORPUS["mixed_hierarchy"])


class TestClassification:
    def test_empty_subset_puts_everything_in_nn(self):
        g = LabeledDigraph.from_edges([("a", "b"), ("b", "c")])
        parts = PartitionedGraph(g, frozenset()).classify_edges()
        assert not parts.pp and not parts.pn and not parts.np
        assert len(parts.nn) == 2

    def test_full_subset_puts_everything_in_pp(self):
        g = LabeledDigraph.from_edges([("a", "b"), ("b", "c")])
        parts = PartitionedGraph(g, g.vertices).classify_edges()
        assert len(parts.pp) == 2
        assert not parts.pn and not parts.np and not parts.nn

    def test_mixed_hierarchy_boundary_edges(self, mixed_table):
        pg = PartitionedGraph(mixed_table.graph.graph, mixed_table.generic)
        parts = pg.classify_edges()
        assert [(e.src, e.dst) for e in parts.pn] == [("F", "D")]
        assert [(e.src, e.dst) for e in parts.np] == [("N", "F")]
        assert not parts.pp
        assert len(parts.nn) == len(mixed_table.graph.graph.edges) - 2

    def test_partition_must_be_a_subset(self):
        g = LabeledDigraph.from_edges([("a", "b")])
        with pytest.raises(GraphError, match="not in the graph"):
            PartitionedGraph(g, frozenset({"zzz"}))


class TestPartialProduct:
    def test_empty_subset_returns_left_factor(self, mixed_table):
        g = mixed_table.graph.graph
        pg = PartitionedGraph(g, frozenset())
        arguments = LabeledDigraph.from_edges([("x", "y")])
        assert partial_product(pg, arguments) == g

    def test_full_subset_equals_cartesian_product(self):
        g1 = LabeledDigraph.from_edges([("a", "b"), ("b", "c")])
        g2 = LabeledDigraph.from_edges([("u", "v")])
        pg = PartitionedGraph(g1, g1.vertices)
        assert partial_product(pg, g2) == cartesian_product(g1, g2)

    def test_one_generic_second_step_by_hand(self):
        # The 3-chain with its middle vertex multiplied by the 6-vertex
        # argument graph of the first approximation: 8 vertices, 6 product
        # edges, three edges out of the bottom into the copies at the
        # argument graph's sources, one into the top from the copy at its sink.
        table = parse_declarations(CORPUS["one_generic"])
        first = run(table, 1).last
        arguments = wildcards_graph(first)
        pg = PartitionedGraph(table.graph.graph, table.generic)
        result = partial_product(pg, arguments, combine=instantiation_label)
        assert len(result.vertices) == 8
        assert len(result.edges) == 10
        assert result.successors("N") == ("C<C<?>>", "C<N>", "C<O>")
        assert result.predecessors("O") == ("C<?>",)

    def test_empty_second_factor_is_an_error(self):
        g = LabeledDigraph.from_edges([("a", "b")])
        with pytest.raises(GraphError, match="nonempty"):
            partial_product(PartitionedGraph(g, frozenset()), LabeledDigraph(frozenset(), frozenset()))

    def test_label_collision_with_plain_vertex_is_an_error(self):
        g = LabeledDigraph.from_edges([("a", "b")])
        g2 = LabeledDigraph.from_edges(vertices=("x",))
        with pytest.raises(GraphError, match="collision"):
            partial_product(PartitionedGraph(g, frozenset({"a"})), g2, combine=lambda u, v: "b")

    @given(dags(max_vertices=5, reduced=True), dags(max_vertices=4, reduced=True), st.randoms())
    def test_vertex_count_law(self, g1, g2, rng):
        subset = frozenset(v for v in g1.vertices if rng.random() < 0.5)
        pg = PartitionedGraph(g1, subset)
        result = partial_product(pg, g2)
        assert len(result.vertices) == len(subset) * len(g2.vertices) + (
            len(g1.vertices) - len(subset)
        )

    @given(dags(max_vertices=5, reduced=True), dags(max_vertices=4, reduced=True), st.randoms())
    def test_boundary_edges_fan_out_of_sinks_and_into_sources(self, g1, g2, rng):
        subset = frozenset(v for v in g1.vertices if rng.random() < 0.5)
        pg = PartitionedGraph(g1, subset)
        parts = pg.classify_edges()
        labels = _product_labels(pg, g2, lambda u, v: f"{u}*{v}")
        edges = _cover_edges(pg, g2, labels)
        plain = pg.nonproduct_vertices
        crossing = [e for e in edges if (e.src in plain) != (e.dst in plain)]
        assert len(crossing) == (
            len(parts.pn) * len(g2.sinks) + len(parts.np) * len(g2.sources)
        )
        assert len(edges) == (
            len(parts.pp) * len(g2.vertices)
            + len(subset) * len(g2.edges)
            + len(parts.pn) * len(g2.sinks)
            + len(parts.np) * len(g2.sources)
            + len(parts.nn)
        )
        assert len({e.pair for e in edges}) == len(edges)


class TestMergePathAgreement:
    def test_second_step_with_plain_class(self):
        # One generic class beside a plain one: nine argument vertices times
        # one generic class plus three plain classes is twelve vertices, and
        # the plain class keeps its chain position after the merge.
        table = parse_declarations(CORPUS["plain_and_generic"])
        first = run(table, 1).last
        arguments = wildcards_graph(first)
        assert len(arguments.vertices) == 9
        pg = PartitionedGraph(table.graph.graph, table.generic)
        merged = partial_product_via_merge(pg, arguments, combine=instantiation_label)
        assert len(merged.vertices) == 12
        assert merged.predecessors("C") == ("N",)
        assert merged.successors("C") == ("O",)
        direct = partial_product(pg, arguments, combine=instantiation_label)
        assert merged.equals_ignoring_tags(direct)

    def test_empty_subset_returns_left_factor(self, mixed_table):
        g = mixed_table.graph.graph
        pg = PartitionedGraph(g, frozenset())
        arguments = LabeledDigraph.from_edges([("x", "y")])
        assert partial_product_via_merge(pg, arguments).equals_ignoring_tags(g)

    def test_full_subset_equals_cartesian_product(self):
        g1 = LabeledDigraph.from_edges([("a", "b"), ("b", "c")])
        g2 = LabeledDigraph.from_edges([("u", "v")])
        pg = PartitionedGraph(g1, g1.vertices)
        assert partial_product_via_merge(pg, g2).equals_ignoring_tags(
            cartesian_product(g1, g2)
        )

    def test_agreement_on_every_corpus_step(self, tables, traces):
        for name, table in tables.items():
            pg = PartitionedGraph(table.graph.graph, table.generic)
            for approximation in traces[name].graphs:
                arguments = wildcards_graph(approximation)
                direct = partial_product(pg, arguments, combine=instantiation_label)
                merged = partial_product_via_merge(pg, arguments, combine=instantiation_label)
                assert direct.equals_ignoring_tags(merged), name

    @settings(max_examples=120)
    @given(st.booleans(), st.data(), st.randoms())
    def test_agreement_on_random_inputs(self, reduced, data, rng):
        # Any factors give the same order; Hasse factors give the Hasse
        # diagram itself, tags included.
        g1 = data.draw(dags(max_vertices=5, reduced=reduced))
        g2 = data.draw(dags(max_vertices=4, reduced=reduced))
        subset = frozenset(v for v in g1.vertices if rng.random() < 0.5)
        pg = PartitionedGraph(g1, subset)
        direct = partial_product(pg, g2)
        merged = partial_product_via_merge(pg, g2)
        assert transitive_reduction(direct).equals_ignoring_tags(merged)
        if reduced:
            assert direct.equals_ignoring_tags(merged)
            assert transitive_reduction(direct) == direct
