"""Containment graph of wildcard arguments."""

from __future__ import annotations

import pytest
from hypothesis import given

from groundsub import (
    BipointedGraph,
    EdgeTag,
    GraphError,
    LabeledDigraph,
    reachable,
    transitive_reduction,
    wildcards_graph,
    wildcards_size,
)

from conftest import dags
from oracles import edge_pairs, order_isomorphic, reversed_graph, tag_of


def chain(*labels: str) -> BipointedGraph:
    g = LabeledDigraph.from_edges(zip(labels, labels[1:]), vertices=labels, tag=EdgeTag.INHERIT)
    return BipointedGraph(g, top=labels[-1], bottom=labels[0])


def bipointed(g: LabeledDigraph) -> BipointedGraph:
    """Wrap a random DAG by pinning fresh extremes onto it."""
    edges: list = list(g.edges)
    for v in g.sources:
        edges.append(("bot", v, EdgeTag.INHERIT))
    for v in g.sinks:
        edges.append((v, "top", EdgeTag.INHERIT))
    wrapped = LabeledDigraph.from_edges(edges, vertices=set(g.vertices) | {"top", "bot"})
    return BipointedGraph(transitive_reduction(wrapped), top="top", bottom="bot")


class TestSizeLaw:
    def test_minimal_input(self):
        assert wildcards_size(2) == 3

    def test_three_vertex_input(self):
        assert wildcards_size(3) == 6

    def test_eight_vertex_input(self):
        assert wildcards_size(8) == 21

    def test_degenerate_input_is_an_error(self):
        with pytest.raises(GraphError):
            wildcards_size(1)


class TestConstruction:
    def test_two_vertex_input_collapses_to_corners(self):
        result = wildcards_graph(chain("N", "O"))
        assert result.vertices == {"?", "O", "N"}
        assert edge_pairs(result) == {("N", "?"), ("O", "?")}
        assert tag_of(result, "N", "?") is EdgeTag.COVARIANT
        assert tag_of(result, "O", "?") is EdgeTag.CONTRAVARIANT

    def test_three_chain_input(self):
        result = wildcards_graph(chain("N", "C<?>", "O"))
        assert result.vertices == {"?", "? <: C<?>", "? :> C<?>", "C<?>", "O", "N"}
        assert edge_pairs(result) == {
            ("N", "? <: C<?>"),
            ("? <: C<?>", "?"),
            ("O", "? :> C<?>"),
            ("? :> C<?>", "?"),
            ("C<?>", "? <: C<?>"),
            ("C<?>", "? :> C<?>"),
        }

    def test_single_vertex_input_is_an_error(self):
        g = LabeledDigraph.from_edges(vertices=("x",))
        with pytest.raises(GraphError):
            wildcards_graph(BipointedGraph(g, top="x", bottom="x"))

    @given(dags(max_vertices=6, reduced=True))
    def test_properties_on_random_orders(self, g):
        source = bipointed(g)
        result = wildcards_graph(source)
        vertices = source.graph.vertices

        assert len(result.vertices) == wildcards_size(len(vertices))
        assert result.sinks == ("?",)
        assert reachable(result, source.top, "?")
        assert reachable(result, source.bottom, "?")
        # Output is already in Hasse form.
        assert transitive_reduction(result) == result

        # The upper-bounded copy mirrors the input order.
        def upper(t):
            if t == source.top:
                return "?"
            if t == source.bottom:
                return t
            return f"? <: {t}"

        upper_image = {upper(t) for t in vertices}
        from oracles import induced_subgraph, reflexive_transitive_closure

        closed = reflexive_transitive_closure(result)
        upper_side = induced_subgraph(closed, upper_image)
        source_closed = reflexive_transitive_closure(source.graph)
        assert order_isomorphic(source_closed, upper_side, {t: upper(t) for t in vertices})

        # The lower-bounded copy mirrors the reversed order.
        def lower(t):
            if t == source.bottom:
                return "?"
            if t == source.top:
                return t
            return f"? :> {t}"

        lower_side = induced_subgraph(closed, {lower(t) for t in vertices})
        reversed_closed = reflexive_transitive_closure(reversed_graph(source.graph))
        assert order_isomorphic(reversed_closed, lower_side, {t: lower(t) for t in vertices})

        # The plain copies form an antichain.
        inner = [t for t in vertices if t not in (source.top, source.bottom)]
        for u in inner:
            for v in inner:
                if u != v:
                    assert not reachable(result, u, v)
