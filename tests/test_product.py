"""Vertex-partitioned product: direct rules versus the merge-based path."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groundsub
from groundsub import (
    Edge,
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
from oracles import (
    cartesian_product,
    equals_ignoring_tags,
    partial_product_via_merge,
    predecessors,
)


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
        assert predecessors(result, "O") == ("C<?>",)

    def test_empty_second_factor_is_an_error(self):
        g = LabeledDigraph.from_edges([("a", "b")])
        with pytest.raises(GraphError, match="nonempty"):
            partial_product(PartitionedGraph(g, frozenset()), LabeledDigraph.from_edges())

    def test_label_collision_with_plain_vertex_is_an_error(self):
        g = LabeledDigraph.from_edges([("a", "b")])
        g2 = LabeledDigraph.from_edges(vertices=("x",))
        with pytest.raises(GraphError, match="collision"):
            partial_product(PartitionedGraph(g, frozenset({"a"})), g2, combine=lambda u, v: "b")

    def test_label_collision_between_product_vertices_is_an_error(self):
        g = LabeledDigraph.from_edges([("a", "b")])
        g2 = LabeledDigraph.from_edges(vertices=("x",))
        with pytest.raises(GraphError, match=r"'ax' produced by both \('a', 'x'\) and \('b', 'x'\)"):
            partial_product(PartitionedGraph(g, frozenset({"a", "b"})), g2, combine=lambda u, v: "ax")

    @given(dags(max_vertices=5, reduced=True), dags(max_vertices=4, reduced=True), st.data())
    def test_collision_message_matches_the_merge_path(self, g1, g2, data):
        # Each label is drawn from the plain vertices and two spare names, so
        # most drawn `combine` functions collide, in one way or the other.
        subset = data.draw(st.frozensets(st.sampled_from(g1.sorted_vertices)))
        pg = PartitionedGraph(g1, subset)
        pairs = [(u, v) for u in sorted(subset) for v in g2.sorted_vertices]
        pool = [*sorted(pg.nonproduct_vertices), "x", "y"]
        names = st.lists(st.sampled_from(pool), min_size=len(pairs), max_size=len(pairs))
        label = dict(zip(pairs, data.draw(names)))
        outcomes = []
        for build in (partial_product, partial_product_via_merge):
            try:
                outcomes.append(build(pg, g2, combine=lambda u, v: label[u, v]))
            except GraphError as error:
                outcomes.append(str(error))
        direct, merged = outcomes
        if isinstance(merged, str):
            assert direct == merged
        else:
            assert equals_ignoring_tags(direct, merged)

    def test_collision_message_does_not_depend_on_the_hash_seed(self):
        # The rows are built in set order; several pairs collide, and only
        # the rescan in sorted (u, v) order names the same one every run.
        edges = [("a1", "b1"), ("a2", "b1"), ("b1", "by"), ("b2", "by")]
        arguments, product_vertices = [("x1", "y"), ("x2", "y")], ["a1", "a2", "b1", "b2"]
        script = (
            "from groundsub import GraphError, LabeledDigraph, PartitionedGraph, partial_product\n"
            f"g, g2 = LabeledDigraph.from_edges({edges!r}), LabeledDigraph.from_edges({arguments!r})\n"
            f"pg = PartitionedGraph(g, frozenset({product_vertices!r}))\n"
            "try:\n"
            "    partial_product(pg, g2, lambda u, v: u[0] + v[0])\n"
            "except GraphError as error:\n"
            "    print(error)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(groundsub.__file__).parents[1])}
        printed = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env={**env, "PYTHONHASHSEED": seed}, check=True, timeout=60,
            ).stdout
            for seed in ("1", "2")
        }
        pg = PartitionedGraph(LabeledDigraph.from_edges(edges), frozenset(product_vertices))
        g2 = LabeledDigraph.from_edges(arguments)
        with pytest.raises(GraphError) as merged:
            partial_product_via_merge(pg, g2, lambda u, v: u[0] + v[0])
        expected = "label collision: 'ax' produced by both ('a1', 'x1') and ('a1', 'x2')"
        assert str(merged.value) == expected
        assert printed == {expected + "\n"}

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
        out = _cover_edges(pg, g2, labels)
        edges = [Edge(src, dst, tag) for src, targets in out.items() for dst, tag in targets]
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
        assert len({e[:2] for e in edges}) == len(edges)


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
        assert predecessors(merged, "C") == ("N",)
        assert merged.successors("C") == ("O",)
        direct = partial_product(pg, arguments, combine=instantiation_label)
        assert equals_ignoring_tags(merged, direct)

    def test_empty_subset_returns_left_factor(self, mixed_table):
        g = mixed_table.graph.graph
        pg = PartitionedGraph(g, frozenset())
        arguments = LabeledDigraph.from_edges([("x", "y")])
        assert equals_ignoring_tags(partial_product_via_merge(pg, arguments), g)

    def test_full_subset_equals_cartesian_product(self):
        g1 = LabeledDigraph.from_edges([("a", "b"), ("b", "c")])
        g2 = LabeledDigraph.from_edges([("u", "v")])
        pg = PartitionedGraph(g1, g1.vertices)
        assert equals_ignoring_tags(
            partial_product_via_merge(pg, g2), cartesian_product(g1, g2)
        )

    def test_agreement_on_every_corpus_step(self, tables, traces):
        for name, table in tables.items():
            pg = PartitionedGraph(table.graph.graph, table.generic)
            for approximation in traces[name].graphs:
                arguments = wildcards_graph(approximation)
                direct = partial_product(pg, arguments, combine=instantiation_label)
                merged = partial_product_via_merge(pg, arguments, combine=instantiation_label)
                assert equals_ignoring_tags(direct, merged), name

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
        assert equals_ignoring_tags(transitive_reduction(direct), merged)
        if reduced:
            assert equals_ignoring_tags(direct, merged)
            assert transitive_reduction(direct) == direct
