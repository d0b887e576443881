"""Graph value type and the order algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given

from groundsub import (
    BipointedGraph,
    Edge,
    EdgeTag,
    GraphError,
    LabeledDigraph,
    pair_label,
    reachable,
    transitive_reduction,
)

from conftest import dags
from oracles import (
    cartesian_product,
    disjoint_union,
    induced_subgraph,
    merge_vertices,
    order_isomorphic,
    reflexive_transitive_closure,
    relabeled,
    reversed_graph,
)


def chain(*labels: str) -> LabeledDigraph:
    return LabeledDigraph.from_edges(zip(labels, labels[1:]), vertices=labels)


def closure_pairs_bruteforce(g: LabeledDigraph) -> set[tuple[str, str]]:
    """Naive path enumeration, independent of the cached-descendant code."""
    pairs = set()

    def walk(start: str, here: str) -> None:
        for e in g.edges:
            if e.src == here and (start, e.dst) not in pairs:
                pairs.add((start, e.dst))
                walk(start, e.dst)

    for v in g.vertices:
        walk(v, v)
    return pairs


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            LabeledDigraph.from_edges([("a", "a")])

    def test_rejects_dangling_edge(self):
        with pytest.raises(GraphError, match="leaves the vertex set"):
            LabeledDigraph(frozenset({"a"}), frozenset({Edge("a", "b", EdgeTag.PRODUCT)}))

    def test_rejects_parallel_edges(self):
        with pytest.raises(GraphError, match="parallel"):
            LabeledDigraph.from_edges(
                [("a", "b", EdgeTag.COVARIANT), ("a", "b", EdgeTag.INHERIT)]
            )

    def test_rejects_cycle(self):
        with pytest.raises(GraphError, match="cycle"):
            LabeledDigraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])

    def test_value_equality(self):
        g1 = LabeledDigraph.from_edges([("a", "b")])
        g2 = LabeledDigraph.from_edges([("a", "b")])
        assert g1 == g2
        assert g1 != LabeledDigraph.from_edges([("a", "b", EdgeTag.COVARIANT)])
        assert g1.equals_ignoring_tags(
            LabeledDigraph.from_edges([("a", "b", EdgeTag.COVARIANT)])
        )


class TestCartesianProduct:
    def test_single_vertex_factor_copies_other(self):
        g1 = LabeledDigraph.from_edges(vertices=("a",))
        g2 = chain("x", "y", "z")
        product = cartesian_product(g1, g2)
        expected = relabeled(g2, lambda v: pair_label("a", v))
        assert product == expected

    def test_two_paths_make_a_square(self):
        g1 = chain("x", "y")
        g2 = chain("u", "v")
        product = cartesian_product(g1, g2)
        assert len(product.vertices) == 4
        assert len(product.edges) == 4

    def test_counts_match_bruteforce_enumeration(self):
        # A 3-vertex path against the 6-vertex argument graph shape: the
        # edge count before reduction is m1*n2 + n1*m2 = 3*6 + 2*6 = 30.
        g1 = chain("p0", "p1", "p2")
        g2 = LabeledDigraph.from_edges(
            [("N", "lo"), ("lo", "w"), ("O", "hi"), ("hi", "w"), ("inv", "lo"), ("inv", "hi")]
        )
        product = cartesian_product(g1, g2)
        brute = {
            (pair_label(a, b), pair_label(c, d))
            for a in g1.vertices
            for b in g2.vertices
            for c in g1.vertices
            for d in g2.vertices
            if (g1.has_edge(a, c) and b == d) or (a == c and g2.has_edge(b, d))
        }
        assert product.edge_pairs == frozenset(brute)
        assert len(product.vertices) == 18
        assert len(product.edges) == 30
        # Neighbours come back as tuples in label order, whatever the input order.
        assert product.predecessors(pair_label("p1", "lo")) == (
            pair_label("p0", "lo"),
            pair_label("p1", "N"),
            pair_label("p1", "inv"),
        )
        assert product.successors(pair_label("p1", "inv")) == (
            pair_label("p1", "hi"),
            pair_label("p1", "lo"),
            pair_label("p2", "inv"),
        )

    def test_product_edges_keep_factor_tags(self):
        g1 = LabeledDigraph.from_edges([("a", "b", EdgeTag.INHERIT)])
        g2 = LabeledDigraph.from_edges([("u", "v", EdgeTag.COVARIANT)])
        product = cartesian_product(g1, g2)
        assert product.tag_of(pair_label("a", "u"), pair_label("b", "u")) is EdgeTag.INHERIT
        assert product.tag_of(pair_label("a", "u"), pair_label("a", "v")) is EdgeTag.COVARIANT

    def test_combine_collision_is_an_error(self):
        g1 = LabeledDigraph.from_edges(vertices=("a", "b"))
        g2 = LabeledDigraph.from_edges(vertices=("u", "v"))
        with pytest.raises(GraphError, match="collision"):
            cartesian_product(g1, g2, combine=lambda u, v: "same")

    @given(dags(max_vertices=5), dags(max_vertices=5))
    def test_count_laws(self, g1, g2):
        product = cartesian_product(g1, g2)
        assert len(product.vertices) == len(g1.vertices) * len(g2.vertices)
        assert len(product.edges) == (
            len(g1.edges) * len(g2.vertices) + len(g1.vertices) * len(g2.edges)
        )


class TestDisjointUnion:
    def test_empty_union_is_identity(self):
        g = chain("a", "b")
        assert disjoint_union(LabeledDigraph(frozenset(), frozenset()), g) == g

    def test_two_singletons(self):
        u = disjoint_union(
            LabeledDigraph.from_edges(vertices=("a",)),
            LabeledDigraph.from_edges(vertices=("b",)),
        )
        assert u.vertices == {"a", "b"}
        assert not u.edges

    def test_overlap_is_an_error(self):
        g = chain("a", "b")
        with pytest.raises(GraphError, match="shared"):
            disjoint_union(g, chain("b", "c"))


class TestClosureAndReduction:
    def test_closure_adds_path_edge(self):
        g = chain("a", "b", "c")
        closed = reflexive_transitive_closure(g)
        assert closed.edge_pairs == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_closure_of_antichain_is_unchanged(self):
        g = LabeledDigraph.from_edges(vertices=("a", "b", "c"))
        assert reflexive_transitive_closure(g) == g

    def test_closure_of_three_chain(self):
        g = chain("N", "C<?>", "O")
        closed = reflexive_transitive_closure(g)
        assert len(closed.edges) == 3
        assert closed.has_edge("N", "O")

    def test_reduction_drops_shortcut(self):
        g = LabeledDigraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        assert transitive_reduction(g).edge_pairs == {("a", "b"), ("b", "c")}

    def test_reduction_is_idempotent_on_chain(self):
        g = chain("a", "b", "c")
        assert transitive_reduction(g) == g

    def test_closure_reduction_round_trip(self):
        g = chain("N", "C<?>", "O")
        assert transitive_reduction(reflexive_transitive_closure(g)) == g

    @given(dags())
    def test_closure_matches_bruteforce_paths(self, g):
        closed = reflexive_transitive_closure(g)
        assert closed.edge_pairs == frozenset(closure_pairs_bruteforce(g))

    @given(dags())
    def test_reduction_laws(self, g):
        reduced = transitive_reduction(g)
        # Same reachability, minimal, idempotent.
        assert reflexive_transitive_closure(reduced).edge_pairs == (
            reflexive_transitive_closure(g).edge_pairs
        )
        for edge in reduced.edges:
            without = LabeledDigraph(reduced.vertices, reduced.edges - {edge})
            assert edge.pair not in reflexive_transitive_closure(without).edge_pairs
        assert transitive_reduction(reduced) == reduced

    @given(dags())
    def test_reduce_closure_equals_reduce(self, g):
        assert transitive_reduction(reflexive_transitive_closure(g)) == transitive_reduction(g)

    @given(dags())
    def test_close_reduction_equals_closure_pairs(self, g):
        lhs = reflexive_transitive_closure(transitive_reduction(g))
        rhs = reflexive_transitive_closure(g)
        assert lhs.equals_ignoring_tags(rhs)


class TestMergeVertices:
    def test_merge_singleton_cluster_is_identity(self):
        g = chain("a", "b", "c")
        assert merge_vertices(g, {"b"}, "b") == g

    def test_merge_square_sides(self):
        g = LabeledDigraph.from_edges([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        merged = merge_vertices(g, {"b", "c"}, "b")
        assert merged.edge_pairs == {("a", "b"), ("b", "d")}

    def test_kept_outside_cluster_is_an_error(self):
        g = chain("a", "b")
        with pytest.raises(GraphError, match="kept"):
            merge_vertices(g, {"a"}, "b")

    def test_merge_creating_cycle_is_an_error(self):
        g = chain("a", "b", "c")
        with pytest.raises(GraphError, match="cycle"):
            merge_vertices(g, {"a", "c"}, "a")

    @given(dags())
    def test_merge_preserves_reachability_of_survivors(self, g):
        labels = g.sorted_vertices
        cluster = set(labels[: max(1, len(labels) // 2)])
        kept = min(cluster)
        try:
            merged = merge_vertices(g, cluster, kept)
        except GraphError:
            return  # contracted a cycle; nothing to check
        outside = [v for v in labels if v not in cluster]
        for u in outside:
            for v in outside:
                if reachable(g, u, v):
                    assert reachable(merged, u, v)


class TestQueries:
    def test_induced_subgraph_full_and_empty(self):
        g = chain("a", "b", "c")
        assert induced_subgraph(g, g.vertices) == g
        assert induced_subgraph(g, ()) == LabeledDigraph(frozenset(), frozenset())

    def test_induced_subgraph_keeps_inner_edges_only(self):
        g = LabeledDigraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        sub = induced_subgraph(g, {"a", "c"})
        assert sub.edge_pairs == {("a", "c")}

    def test_reachable_is_reflexive(self):
        g = chain("a", "b")
        assert reachable(g, "a", "a")

    def test_reachable_follows_direction(self):
        g = chain("N", "O")
        assert reachable(g, "N", "O")
        assert not reachable(g, "O", "N")

    def test_reachable_unknown_label_is_an_error(self):
        with pytest.raises(GraphError, match="unknown"):
            reachable(chain("a", "b"), "a", "zzz")

    @given(dags())
    def test_reachable_agrees_with_closure_membership(self, g):
        closed = reflexive_transitive_closure(g)
        for u in g.vertices:
            for v in g.vertices:
                if u != v:
                    assert reachable(g, u, v) == ((u, v) in closed.edge_pairs)


class TestOrderIsomorphic:
    def test_identity_map_on_same_graph(self):
        g = chain("a", "b", "c")
        assert order_isomorphic(g, g, {v: v for v in g.vertices})

    def test_reversed_chain_is_not_isomorphic_under_identity(self):
        g = chain("a", "b", "c")
        assert not order_isomorphic(g, reversed_graph(g), {v: v for v in g.vertices})

    def test_non_bijection_is_false(self):
        g = chain("a", "b")
        assert not order_isomorphic(g, g, {"a": "a", "b": "a"})
        assert not order_isomorphic(g, g, {"a": "a"})

    def test_relabeled_chain(self):
        g = chain("N", "C<?>", "O")
        h = chain("N", "? <: C<?>", "?")
        mapping = {"N": "N", "C<?>": "? <: C<?>", "O": "?"}
        assert order_isomorphic(g, h, mapping)


class TestBipointedGraph:
    def test_valid_chain(self):
        g = BipointedGraph(chain("N", "C", "O"), top="O", bottom="N")
        assert g.top == "O" and g.bottom == "N"

    def test_second_sink_is_rejected(self):
        g = LabeledDigraph.from_edges([("N", "a"), ("N", "b")])
        with pytest.raises(GraphError, match="sink"):
            BipointedGraph(g, top="a", bottom="N")

    def test_second_source_is_rejected(self):
        g = LabeledDigraph.from_edges([("a", "O"), ("b", "O")])
        with pytest.raises(GraphError, match="source"):
            BipointedGraph(g, top="O", bottom="a")
