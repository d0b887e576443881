"""Graph value type and the order algorithms."""

from __future__ import annotations

from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

from conftest import CORPUS, dags
from oracles import (
    cartesian_product,
    disjoint_union,
    edge_pairs,
    equals_ignoring_tags,
    has_edge,
    induced_subgraph,
    merge_vertices,
    order_isomorphic,
    predecessors,
    reflexive_transitive_closure,
    relabeled,
    reversed_graph,
    tag_of,
)
from groundsub import (
    PartitionedGraph,
    parse_declarations,
    partial_product,
    render,
    run,
    wildcards_graph,
)
from groundsub.export import FORMATS
from groundsub.labels import instantiation_label


P, C = EdgeTag.PRODUCT, EdgeTag.COVARIANT


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


def successor_lists(edges) -> dict[str, list[tuple[str, EdgeTag]]]:
    """What the product and the argument graph hand the constructor."""
    out: dict[str, list[tuple[str, EdgeTag]]] = {}
    for src, dst, tag in edges:
        out.setdefault(src, []).append((dst, tag))
    return out


def both_ways(vertices, edges) -> list:
    """The graph, or the validation message, from the constructor and, when
    every endpoint is a declared vertex, from `from_edges` too (which adds
    endpoints to the vertex set)."""
    builds = [lambda: LabeledDigraph(vertices, successor_lists(edges))]
    if {v for e in edges for v in e[:2]} <= vertices:
        builds.append(lambda: LabeledDigraph.from_edges(edges, vertices))
    outcomes = []
    for build in builds:
        try:
            outcomes.append(build())
        except GraphError as error:
            outcomes.append(str(error))
    return outcomes


def first_defect(vertices, edges) -> str | None:
    """The message of the first bad edge, by one pass over all edges in
    (src, dst) order, as the validator worked before it kept successor lists."""
    last = None
    for src, dst, _ in sorted(edges, key=itemgetter(0, 1)):
        if src == dst:
            return f"self-loop on {src!r}"
        if src not in vertices or dst not in vertices:
            return f"edge {src!r} -> {dst!r} leaves the vertex set"
        if (src, dst) == last:
            return f"parallel edges between {src!r} and {dst!r}"
        last = (src, dst)
    return None


def cycle_defect(vertices, edges) -> str | None:
    """The cycle message of a graph with no bad edge: every vertex reachable
    from a vertex on a cycle, the cycle included, found by a search from
    each vertex."""
    above = {v: set() for v in vertices}
    for v in vertices:
        stack = [v]
        while stack:
            here = stack.pop()
            for src, dst, _ in edges:
                if src == here and dst not in above[v]:
                    above[v].add(dst)
                    stack.append(dst)
    stuck = {w for v in vertices if v in above[v] for w in above[v]}
    return f"graph contains a cycle through {sorted(stuck)}" if stuck else None


LABELS = ("a", "b", "c", "d", "x", "")


@st.composite
def vertices_and_edges(draw) -> tuple[frozenset[str], list[tuple[str, str, EdgeTag]]]:
    """A vertex set over the first four `LABELS`, then distinct edges in the
    drawn order: drawn freely over all `LABELS` or, in about half the draws
    with two vertices or more, as distinct pairs of distinct vertices of the
    set.  With two vertices or more, about half the draws plant one
    (src, dst) pair inside the set under two different tags among them, and
    a quarter a cycle through two or three vertices of the set, so that
    graphs whose only defect is a parallel pair or a cycle come up often."""
    vertices = draw(st.frozensets(st.sampled_from(LABELS[:4])))
    tags = st.sampled_from(list(EdgeTag))
    if len(vertices) < 2 or draw(st.booleans()):
        edges = draw(st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS), tags)))
    else:
        pairs = [(src, dst) for src in sorted(vertices) for dst in sorted(vertices) if src != dst]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        edges = [(src, dst, draw(tags)) for src, dst in chosen]
    if len(vertices) >= 2:
        inside = st.sampled_from(sorted(vertices))
        at = draw(st.integers(0, len(edges)))
        if draw(st.booleans()):
            src, dst = draw(st.lists(inside, min_size=2, max_size=2, unique=True))
            two = draw(st.lists(tags, min_size=2, max_size=2, unique=True))
            edges[at:at] = [(src, dst, tag) for tag in two]
        elif draw(st.booleans()):
            ring = draw(st.lists(inside, min_size=2, max_size=3, unique=True))
            known = {e[:2] for e in edges}
            edges[at:at] = [
                (src, dst, draw(tags)) for src, dst in zip(ring, ring[1:] + ring[:1])
                if (src, dst) not in known
            ]
    return vertices, list(dict.fromkeys(edges))


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            LabeledDigraph.from_edges([("a", "a")])

    def test_rejects_dangling_edge(self):
        with pytest.raises(GraphError, match="leaves the vertex set"):
            LabeledDigraph(frozenset({"a"}), {"a": [("b", EdgeTag.PRODUCT)]})

    def test_rejects_parallel_edges(self):
        adjacent = [("a", "b", EdgeTag.COVARIANT), ("a", "b", EdgeTag.INHERIT)]
        apart = [("a", "b", EdgeTag.COVARIANT), ("a", "c"), ("b", "c"), ("a", "b", EdgeTag.INHERIT)]
        for edges in (adjacent, apart):
            with pytest.raises(GraphError, match="parallel edges between 'a' and 'b'"):
                LabeledDigraph.from_edges(edges)

    def test_rejects_cycle(self):
        with pytest.raises(GraphError, match="cycle"):
            LabeledDigraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            ("abcd", [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")]),
            ("abcde", [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d"), ("a", "e")]),
        ],
    )
    def test_cycle_lists_the_vertices_on_and_above_it(self, vertices, edges):
        # Kahn's pass orders the source `a` (and the target `e`) and cannot
        # order `d`, which lies above the cycle through `b` and `c`.
        with pytest.raises(GraphError) as raised:
            LabeledDigraph.from_edges(edges, vertices)
        assert str(raised.value) == "graph contains a cycle through ['b', 'c', 'd']"

    def test_repeated_edge_is_one_edge(self):
        e = Edge("a", "b", EdgeTag.PRODUCT)
        twice = LabeledDigraph.from_edges([e, e], {"a", "b"})
        assert twice == LabeledDigraph.from_edges([("a", "b")] * 2)
        assert LabeledDigraph.from_edges([("a", "b")] * 2).sorted_edges == (e,)
        # A successor list names each edge once: a repeat is a parallel edge.
        with pytest.raises(GraphError, match="parallel edges between 'a' and 'b'"):
            LabeledDigraph({"a", "b"}, {"a": [("b", EdgeTag.PRODUCT)] * 2})

    def test_value_equality(self):
        g1 = LabeledDigraph.from_edges([("a", "b")])
        g2 = LabeledDigraph.from_edges([("a", "b")])
        assert g1 == g2
        assert g1 != LabeledDigraph.from_edges([("a", "b", EdgeTag.COVARIANT)])
        assert equals_ignoring_tags(
            g1, LabeledDigraph.from_edges([("a", "b", EdgeTag.COVARIANT)])
        )


class TestValidationOrder:
    """With two defects, the message names the one first in (src, dst) order,
    whether the edges come as successor lists or through `from_edges`, and
    in whatever order."""

    @staticmethod
    def message(vertices, edges):
        listed, *built = both_ways(frozenset(vertices), edges)
        assert isinstance(listed, str) and built in ([], [listed])
        return listed

    @pytest.mark.parametrize(
        "edges, expected",
        [
            # self-loop and parallel edges
            ([("a", "a", P), ("b", "c", P), ("b", "c", C)], "self-loop on 'a'"),
            ([("a", "b", P), ("a", "b", C), ("c", "c", P)], "parallel edges between 'a' and 'b'"),
            ([("b", "b", P), ("a", "c", P), ("a", "c", C)], "parallel edges between 'a' and 'c'"),
            ([("a", "c", P), ("a", "c", C), ("a", "b", P), ("b", "b", P)],
             "parallel edges between 'a' and 'c'"),
            # dangling edge and parallel edges
            ([("a", "x", P), ("b", "c", P), ("b", "c", C)], "edge 'a' -> 'x' leaves the vertex set"),
            ([("x", "c", P), ("a", "b", P), ("a", "b", C)], "parallel edges between 'a' and 'b'"),
            ([("a", "c", P), ("a", "c", C), ("a", "x", P)], "parallel edges between 'a' and 'c'"),
            ([("a", "b", P), ("a", "b", C), ("a", "", P)], "edge 'a' -> '' leaves the vertex set"),
            # dangling edge and self-loop
            ([("a", "x", P), ("b", "b", P)], "edge 'a' -> 'x' leaves the vertex set"),
            ([("x", "a", P), ("b", "b", P)], "self-loop on 'b'"),
            ([("x", "x", P), ("x", "a", P)], "edge 'x' -> 'a' leaves the vertex set"),
            ([("x", "x", P), ("x", "y", P)], "self-loop on 'x'"),
            ([("c", "c", P), ("c", "a", P)], "self-loop on 'c'"),
            # two failing sources, in either order: the smaller source
            ([("c", "c", P), ("b", "x", P)], "edge 'b' -> 'x' leaves the vertex set"),
            ([("b", "x", P), ("c", "c", P)], "edge 'b' -> 'x' leaves the vertex set"),
            ([("x", "a", P), ("c", "a", P), ("c", "a", C)], "parallel edges between 'c' and 'a'"),
            # two failing targets of one source: the smaller target
            ([("a", "y", P), ("a", "x", P)], "edge 'a' -> 'x' leaves the vertex set"),
            ([("b", "c", P), ("b", "c", C), ("b", "b", P)], "self-loop on 'b'"),
            ([("b", "y", P), ("b", "c", P), ("b", "c", C)], "parallel edges between 'b' and 'c'"),
            # no bad edge
            ([("a", "b", P), ("b", "c", P), ("c", "a", P)],
             "graph contains a cycle through ['a', 'b', 'c']"),
        ],
    )
    def test_first_defect_wins(self, edges, expected):
        assert self.message({"a", "b", "c"}, edges) == expected

    @pytest.mark.parametrize(
        "vertices, edges, expected",
        [
            pytest.param(
                "abc", [("a", "b", P), ("b", "a", P), ("a", "c", P), ("a", "c", C)],
                "parallel edges between 'a' and 'c'", id="parallel_edges_on_a_cycle",
            ),
            pytest.param(
                "abc", [("a", "b", P), ("b", "a", P), ("b", "c", P), ("c", "x", P)],
                "edge 'c' -> 'x' leaves the vertex set", id="dangling_edge_above_a_cycle",
            ),
            pytest.param(
                "ab", [("a", "b", P), ("b", "b", P)], "self-loop on 'b'", id="self_loop",
            ),
            pytest.param(
                "ab", [("a", "b", P), ("z", "a", P)],
                "edge 'z' -> 'a' leaves the vertex set", id="source_outside_the_vertex_set",
            ),
            pytest.param(
                "ab", [("a", "b", P), ("b", "x", P)],
                "edge 'b' -> 'x' leaves the vertex set", id="target_outside_the_vertex_set",
            ),
        ],
    )
    def test_defect_that_kahns_pass_never_reaches(self, vertices, edges, expected):
        # Kahn's pass stops at a cycle and never orders a vertex with a
        # self-loop, and edges that leave the vertex set fail before it.
        # The message is still the first defect in (src, dst) order.
        assert self.message(set(vertices), edges) == first_defect(set(vertices), edges) == expected

    @given(dags())
    def test_sorted_edges_and_successors_are_in_label_order(self, g):
        assert g.sorted_edges == tuple(sorted(g.edges, key=itemgetter(0, 1)))
        for v in g.vertices:
            assert list(g.successors(v)) == sorted(e.dst for e in g.edges if e.src == v)


class TestSuccessorLists:
    """Graphs kept as successor lists: the constructor against `from_edges`
    and the old validator, the derived edge views, and what the build path
    leaves underived."""

    @given(vertices_and_edges())
    def test_first_defect_in_edge_order(self, drawn):
        vertices, edges = drawn
        expected = first_defect(vertices, edges) or cycle_defect(vertices, edges)
        listed, *built = both_ways(vertices, edges)
        assert built in ([], [listed])  # `from_edges` agrees whenever it can be asked
        if expected is not None:
            assert listed == expected
        else:
            assert listed.edges == frozenset(Edge(*e) for e in edges)

    @given(dags())
    def test_graphs_built_both_ways_are_equal(self, g):
        listed = LabeledDigraph(g.vertices, successor_lists(g.edges))
        assert listed == g == LabeledDigraph.from_edges(g.sorted_edges, g.vertices)
        assert hash(listed) == hash(g)
        assert listed.edges == g.edges and listed.sorted_edges == g.sorted_edges
        if g.edges:
            src, dst, tag = min(g.sorted_edges)
            other = next(t for t in EdgeTag if t is not tag)
            retagged = (g.edges - {Edge(src, dst, tag)}) | {Edge(src, dst, other)}
            assert LabeledDigraph.from_edges(retagged, g.vertices) != g

    def test_validation_keeps_the_lists_it_is_handed(self):
        # Each non-empty list is sorted in place and kept; a vertex passed
        # as `[]` and one with no key both hold `()`.
        from_a, from_b = [("c", P), ("b", C)], [("d", P)]
        g = LabeledDigraph(frozenset("abcd"), {"a": from_a, "b": from_b, "c": []})
        assert g._out["a"] is from_a and from_a == [("b", C), ("c", P)]
        assert g._out["b"] is from_b
        assert g._out["c"] == g._out["d"] == ()
        twin = LabeledDigraph.from_edges([("a", "b", C), ("a", "c", P), ("b", "d", P)], "abcd")
        assert g == twin and hash(g) == hash(twin)
        assert g.sinks == twin.sinks == ("c", "d") and g.sources == twin.sources == ("a",)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_no_reader_changes_a_kept_list(self, name):
        # Graphs share the lists they were handed, so every reader must
        # leave them as validation sorted them.
        table = parse_declarations(CORPUS[name])
        partitioned = PartitionedGraph(table.graph.graph, table.generic)
        approximations = run(table, 3).graphs
        arguments = [wildcards_graph(s) for s in approximations]
        graphs = [table.graph.graph, *(s.graph for s in approximations), *arguments]

        def lists():
            return [{v: tuple(t) for v, t in g._out.items()} for g in graphs]

        kept = lists()
        for g in graphs:
            for fmt in FORMATS:
                render(g, fmt)
            g.up_sets()
            for v in g.sorted_vertices:
                g.descendants_of(v)
                g.successors(v)
        for s, w in zip(approximations, arguments):
            wildcards_graph(s)
            partial_product(partitioned, w, combine=instantiation_label)
        assert lists() == kept

    def test_empty_list_outside_the_vertex_set_is_dropped(self):
        # A key with edges outside the vertex set is refused; one without
        # edges names no vertex, so it is no sink and changes no equality.
        listed = LabeledDigraph(frozenset({"a", "b"}), {"a": [("b", EdgeTag.PRODUCT)], "z": []})
        expected = LabeledDigraph.from_edges([("a", "b")], vertices=("a", "b"))
        assert listed == expected
        assert hash(listed) == hash(expected)
        assert listed.sinks == ("b",) and listed.sources == ("a",)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_derived_edges_match_the_successor_lists(self, name):
        # Every graph `run` builds at depth 3: each S_k and each W(S_k).
        trace = run(parse_declarations(CORPUS[name]), 3)
        graphs = [s.graph for s in trace.graphs] + [wildcards_graph(s) for s in trace.graphs]
        for g in graphs:
            assert g.sorted_edges == tuple(sorted(g.edges, key=itemgetter(0, 1)))
            assert g.edge_count == len(g.edges)
            for v in g.vertices:
                assert g.successors(v) == tuple(sorted(e.dst for e in g.edges if e.src == v))
                assert tuple(g._out[v]) == tuple((e.dst, e.tag) for e in g.sorted_edges if e.src == v)
            targets = {w for v in g.vertices for w in g.successors(v)}
            assert g.sinks == tuple(v for v in g.sorted_vertices if not g.successors(v))
            assert g.sources == tuple(v for v in g.sorted_vertices if v not in targets)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_build_path_makes_no_edge_set(self, name, monkeypatch):
        # Every graph made while building and exporting S_3 in each format.
        built = []
        validate = LabeledDigraph.__post_init__

        def recorded(g):
            built.append(g)
            validate(g)

        monkeypatch.setattr(LabeledDigraph, "__post_init__", recorded)
        table = parse_declarations(CORPUS[name])
        trace = run(table, 3)
        for fmt in FORMATS:
            render(trace.last.graph, fmt)
        assert trace.stats
        assert {id(s.graph) for s in trace.graphs} <= {id(g) for g in built}
        for g in built:
            assert "edges" not in vars(g), g
            # Only the small class graph lists its edges, for the product's
            # edge classes.
            assert "sorted_edges" not in vars(g) or g is table.graph.graph, g
        # Only the exported S_k sorts its labels: the sink check sorts none.
        for s in trace.graphs:
            assert "sorted_vertices" not in vars(s.graph) or s is trace.last, s.graph


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
            if (has_edge(g1, a, c) and b == d) or (a == c and has_edge(g2, b, d))
        }
        assert edge_pairs(product) == frozenset(brute)
        assert len(product.vertices) == 18
        assert len(product.edges) == 30
        # Neighbours come back as tuples in label order, whatever the input order.
        assert predecessors(product, pair_label("p1", "lo")) == (
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
        assert tag_of(product, pair_label("a", "u"), pair_label("b", "u")) is EdgeTag.INHERIT
        assert tag_of(product, pair_label("a", "u"), pair_label("a", "v")) is EdgeTag.COVARIANT

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
        assert disjoint_union(LabeledDigraph.from_edges(), g) == g

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
        assert edge_pairs(closed) == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_closure_of_antichain_is_unchanged(self):
        g = LabeledDigraph.from_edges(vertices=("a", "b", "c"))
        assert reflexive_transitive_closure(g) == g

    def test_closure_of_three_chain(self):
        g = chain("N", "C<?>", "O")
        closed = reflexive_transitive_closure(g)
        assert len(closed.edges) == 3
        assert has_edge(closed, "N", "O")

    def test_reduction_drops_shortcut(self):
        g = LabeledDigraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        assert edge_pairs(transitive_reduction(g)) == {("a", "b"), ("b", "c")}

    def test_reduction_is_idempotent_on_chain(self):
        g = chain("a", "b", "c")
        assert transitive_reduction(g) == g

    def test_closure_reduction_round_trip(self):
        g = chain("N", "C<?>", "O")
        assert transitive_reduction(reflexive_transitive_closure(g)) == g

    @given(dags())
    def test_closure_matches_bruteforce_paths(self, g):
        closed = reflexive_transitive_closure(g)
        assert edge_pairs(closed) == frozenset(closure_pairs_bruteforce(g))

    @given(dags())
    def test_reduction_laws(self, g):
        reduced = transitive_reduction(g)
        # Same reachability, minimal, idempotent.
        assert edge_pairs(reflexive_transitive_closure(reduced)) == (
            edge_pairs(reflexive_transitive_closure(g))
        )
        for edge in reduced.edges:
            without = LabeledDigraph.from_edges(reduced.edges - {edge}, reduced.vertices)
            assert edge[:2] not in edge_pairs(reflexive_transitive_closure(without))
        assert transitive_reduction(reduced) == reduced

    @given(dags())
    def test_reduce_closure_equals_reduce(self, g):
        assert transitive_reduction(reflexive_transitive_closure(g)) == transitive_reduction(g)

    @given(dags())
    def test_close_reduction_equals_closure_pairs(self, g):
        lhs = reflexive_transitive_closure(transitive_reduction(g))
        rhs = reflexive_transitive_closure(g)
        assert equals_ignoring_tags(lhs, rhs)


class TestMergeVertices:
    def test_merge_singleton_cluster_is_identity(self):
        g = chain("a", "b", "c")
        assert merge_vertices(g, {"b"}, "b") == g

    def test_merge_square_sides(self):
        g = LabeledDigraph.from_edges([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        merged = merge_vertices(g, {"b", "c"}, "b")
        assert edge_pairs(merged) == {("a", "b"), ("b", "d")}

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
        assert induced_subgraph(g, ()) == LabeledDigraph.from_edges()

    def test_induced_subgraph_keeps_inner_edges_only(self):
        g = LabeledDigraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        sub = induced_subgraph(g, {"a", "c"})
        assert edge_pairs(sub) == {("a", "c")}

    def test_reachable_is_reflexive(self):
        g = chain("a", "b")
        assert reachable(g, "a", "a")

    def test_reachable_follows_direction(self):
        g = chain("N", "O")
        assert reachable(g, "N", "O")
        assert not reachable(g, "O", "N")

    def test_reachable_unknown_label_is_an_error(self):
        for src, dst in (("a", "zzz"), ("zzz", "a"), ("zzz", "zzz")):
            with pytest.raises(GraphError, match="unknown vertex 'zzz'"):
                reachable(chain("a", "b"), src, dst)

    @given(dags())
    def test_reachable_agrees_with_closure_membership(self, g):
        closed = reflexive_transitive_closure(g)
        for u in g.vertices:
            for v in g.vertices:
                if u != v:
                    assert reachable(g, u, v) == ((u, v) in edge_pairs(closed))


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

    def test_extremes_outside_the_graph_are_rejected(self):
        g = chain("N", "C", "O")
        for top, bottom in (("X", "N"), ("O", "X"), ("X", "Y")):
            with pytest.raises(GraphError, match="unique"):
                BipointedGraph(g, top=top, bottom=bottom)
        with pytest.raises(GraphError, match="unique"):
            BipointedGraph(LabeledDigraph.from_edges(), top="O", bottom="N")
