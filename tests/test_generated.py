"""Generated class tables: the two deciders agree, the covers worked out on
demand equal the materialised graphs, and the paper's laws hold.

Every table is drawn by `conftest.class_tables`; the checks of the rules'
up-set and down-set generator, of the order of `enumerate_types` and of the
labels and parts that `rules._Rules.layers` records, rank by rank, which
`differential_check` reads and `enumerate_types` makes its types from, the
fibre and tag laws of the covers, the comparison of the two-sided search
with the upward one, that of each graph's up-set listing with its
searches and its closure, and that of the Kahn order each graph keeps,
run on the corpus as well.  Each check runs at the largest rank up to
`MAX_RANK` whose approximation has at most `PAIR_CAP` ordered pairs of
vertices, read from `predicted_counts` before anything is built, so the
cost of an example is bounded whatever table is drawn.  Past those ranks,
pairs of ranks 4 to 12, most of them a type and a widening of it, check
the search against both rule deciders at the ranks `query` serves; there
only the search's own limit bounds an example.
"""

from __future__ import annotations

import random
import re
from itertools import islice

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from groundsub import (
    BOTTOM_CLASS,
    TOP_CLASS,
    WILD,
    Con,
    Cov,
    GraphError,
    GroundType,
    InfiniteGraph,
    Inv,
    LabeledDigraph,
    SizeLimitError,
    canonical_label,
    differential_check,
    enumerate_types,
    is_subtype,
    parse_declarations,
    parse_ground_type,
    rank,
    run,
    wildcards_graph,
    wildcards_size,
)
from groundsub import builder, product, rules, subtype_by_graph
from groundsub.builder import predicted_counts, sufficient_depth
from groundsub.cli import main
from groundsub.digraph import EdgeTag
from groundsub.labels import instantiation_label

from conftest import CORPUS, NUMBERS_SOURCE, class_tables
from oracles import (
    contravariant_image,
    covariant_image,
    edge_tag,
    equals_ignoring_tags,
    induced_subgraph,
    reference_differential_check,
    reference_is_subtype,
    reference_normalize_type,
    reference_reaches,
    reflexive_transitive_closure,
    relabeled,
    reversed_graph,
    shape_type,
)

MAX_RANK = 3
PAIR_CAP = 250_000
EXAMPLES = settings(max_examples=60, deadline=None)
# Fewer for the generator check, which asks the slower reference decider
# about every ordered pair.
FEWER_EXAMPLES = settings(max_examples=20, deadline=None)


def checked_rank(table) -> int:
    """The largest k <= MAX_RANK with n_k * n_k <= PAIR_CAP.

    A table without generic classes has one graph, its fixed point, at
    every rank.
    """
    sizes = [n for n, _, _ in islice(predicted_counts(table), MAX_RANK)]
    sizes += sizes[-1:] * (MAX_RANK - len(sizes))
    return max(k for k, n in enumerate(sizes, start=1) if n * n <= PAIR_CAP)


def labels(types):
    return sorted(map(canonical_label, types))


@EXAMPLES
@given(class_tables())
def test_deciders_agree(table):
    report = differential_check(table, checked_rank(table))
    assert report.ok, report.mismatches[:5]


@EXAMPLES
@given(class_tables())
def test_selfcheck_equals_its_all_pairs_reference(table):
    k = checked_rank(table)
    assert differential_check(table, k) == reference_differential_check(table, k)


def assert_generator_agrees_with_both_deciders(table, k):
    """`_Rules.above` and `below` list, once each, exactly the types of rank
    at most k that `_Rules.subtype` and `reference_is_subtype` put above and
    below each type, so only types that `enumerate_types` lists."""
    decider = rules._Rules(table)
    listed = [label for layer in decider.layers(k) for label in layer]
    types = enumerate_types(table, k)
    shapes = [decider.shape(t) for t in types]
    by_rules = [(s1, s2) for s1 in shapes for s2 in shapes if decider.subtype(s1, s2)]
    by_reference = [
        (s1, s2)
        for t1, s1 in zip(types, shapes)
        for t2, s2 in zip(types, shapes)
        if reference_is_subtype(t1, t2, table)
    ]
    assert by_rules == by_reference
    labels = dict(zip(shapes, map(canonical_label, types)))
    up = [(l1, l2) for l1 in listed for l2 in decider.above(l1, k)]
    down = [(l1, l2) for l2 in listed for l1 in decider.below(l2, k)]
    assert len(up) == len(down) == len(by_rules)
    assert set(up) == set(down) == {(labels[s1], labels[s2]) for s1, s2 in by_rules}


@pytest.mark.parametrize("source", [*CORPUS.values(), NUMBERS_SOURCE], ids=[*CORPUS, "numbers"])
def test_generator_agrees_with_both_deciders_on_the_corpus(source):
    table = parse_declarations(source)
    for k in range(1, MAX_RANK + 1):
        assert_generator_agrees_with_both_deciders(table, k)


@FEWER_EXAMPLES
@given(class_tables())
def test_generator_agrees_with_both_deciders(table):
    assert_generator_agrees_with_both_deciders(table, checked_rank(table))


def assert_types_in_label_order(table, k):
    """`enumerate_types`, which spells each label from its bound's, lists
    the types of each rank in the order of their `canonical_label`."""
    types = enumerate_types(table, k)
    assert list(types) == sorted(types, key=lambda t: (rank(t), canonical_label(t)))
    assert len(set(map(canonical_label, types))) == len(types)


def assert_rows_read_off_their_bounds(table, k):
    """The label `_Rules.layers` spells from its bound's is that of the type
    at the same place of `enumerate_types`, and its layer is that type's
    rank.  The parts it records are the type's class, argument kind and
    bound label, and it files a generic type's label under those."""
    decider = rules._Rules(table)
    rows = [(r, label) for r, layer in enumerate(decider.layers(k)) for label in layer]
    types = enumerate_types(table, k)
    assert len(rows) == len(types)
    assert rows == [(rank(t), canonical_label(t)) for t in types]
    for (_, label), t in zip(rows, types):
        kind = None if t.arg is None else type(t.arg)
        bound = getattr(t.arg, "bound", None)
        parts = t.name, kind, None if bound is None else canonical_label(bound)
        assert decider._parts[label] == parts
        if kind is not None:
            assert decider._labels[t.name][kind][parts[2]] == label


@pytest.mark.parametrize("source", [*CORPUS.values(), NUMBERS_SOURCE], ids=[*CORPUS, "numbers"])
def test_types_in_label_order_on_the_corpus(source):
    table = parse_declarations(source)
    for k in range(5):
        assert_types_in_label_order(table, k)


@EXAMPLES
@given(class_tables())
def test_types_in_label_order(table):
    assert_types_in_label_order(table, checked_rank(table))


@pytest.mark.parametrize("source", [*CORPUS.values(), NUMBERS_SOURCE], ids=[*CORPUS, "numbers"])
def test_rows_read_off_their_bounds_on_the_corpus(source):
    table = parse_declarations(source)
    for k in range(1, 5):
        assert_rows_read_off_their_bounds(table, k)


@EXAMPLES
@given(class_tables())
def test_rows_read_off_their_bounds(table):
    assert_rows_read_off_their_bounds(table, checked_rank(table))


@EXAMPLES
@given(class_tables())
def test_infinite_graph_equals_the_materialised_graphs(table):
    assert_covers_law(table, [s.graph for s in run(table, checked_rank(table)).graphs])


@EXAMPLES
@given(class_tables())
def test_laws(table):
    graphs = run(table, checked_rank(table)).graphs
    assert_size_laws(table, graphs)
    assert_edge_law(table, graphs)
    assert_pair_law(table, graphs)
    assert_restriction_law(graphs)
    assert_embedding_law(table, graphs)


@pytest.mark.parametrize("source", [*CORPUS.values(), NUMBERS_SOURCE], ids=[*CORPUS, "numbers"])
def test_up_sets_are_the_descendants_on_the_corpus(source):
    assert_up_sets_are_the_descendants(run(parse_declarations(source), 4).graphs)


@EXAMPLES
@given(class_tables())
def test_up_sets_are_the_descendants(table):
    assert_up_sets_are_the_descendants(run(table, checked_rank(table)).graphs)


@pytest.mark.parametrize("source", [*CORPUS.values(), NUMBERS_SOURCE], ids=[*CORPUS, "numbers"])
def test_kept_order_is_topological_on_the_corpus(source):
    assert_kept_order_is_topological(run(parse_declarations(source), 4).graphs)


@EXAMPLES
@given(class_tables())
def test_kept_order_is_topological(table):
    assert_kept_order_is_topological(run(table, checked_rank(table)).graphs)


@pytest.mark.parametrize("source", [*CORPUS.values(), NUMBERS_SOURCE], ids=[*CORPUS, "numbers"])
def test_successor_map_and_sinks_are_the_vertex_set_on_the_corpus(source):
    assert_successor_map_and_sinks_are_the_vertex_set(run(parse_declarations(source), 4).graphs)


def test_an_implied_edge_breaks_the_edge_law_alone(monkeypatch, tmp_path, capsys):
    # N -> O lies below N -> C<?> -> O: the order, its sizes and its true
    # pairs stay the same, and only the edge count grows.  `run` checks the
    # edge law and refuses, so the graphs are built here the way it builds
    # them, and `run`, `stats` and `build` must each name the law.
    table = parse_declarations(CORPUS["one_generic"])
    cover_edges = product._cover_edges

    def with_implied_edge(pg, g2, rows):
        out = cover_edges(pg, g2, rows)
        out[BOTTOM_CLASS].append((TOP_CLASS, EdgeTag.INHERIT))
        return out

    monkeypatch.setattr(product, "_cover_edges", with_implied_edge)
    graphs = [builder._product_with_arguments(table, LabeledDigraph.from_edges(vertices=("?",)))]
    for _ in range(1, MAX_RANK):
        graphs.append(builder._product_with_arguments(table, wildcards_graph(graphs[-1])))
    assert_size_laws(table, graphs)
    assert_pair_law(table, graphs)
    with pytest.raises(AssertionError):
        assert_edge_law(table, graphs)
    law = r"edge law \|E\(S_k\)\| = e_k fails at k = 1: 3 edges, predicted 2"
    with pytest.raises(GraphError, match=law):
        run(table, MAX_RANK)
    decls, out = tmp_path / "one.decls", tmp_path / "graph.json"
    decls.write_text(CORPUS["one_generic"], encoding="utf-8")
    for argv in (
        ["stats", "--decls", str(decls), "--iterations", "3"],
        ["build", "--decls", str(decls), "--iterations", "3", "--format", "json", "--out", str(out)],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {law}\n", captured.err)
    assert not out.exists()


def assert_up_sets_are_the_descendants(graphs):
    """`up_sets` lists every vertex of each graph once, and each vertex's
    tuple holds, once each, its `descendants_of` set, which is also its
    successors in the closure the oracles build bottom-up on their own."""
    for k, s in enumerate(graphs, start=1):
        g = s.graph
        ups, closed = g.up_sets(), reflexive_transitive_closure(g)
        assert ups.keys() == g.vertices, k
        for v, up in ups.items():
            assert type(up) is tuple and len(up) == len(set(up)), (k, v)
            assert set(up) == g.descendants_of(v) == set(closed.successors(v)), (k, v)


def assert_kept_order_is_topological(graphs):
    """The Kahn order each S_k and W(S_k) keeps, which `up_sets` reads
    backwards, is a permutation of its vertices in which every edge points
    forward."""
    for k, s in enumerate(graphs, start=1):
        for g in (s.graph, wildcards_graph(s)):
            position = {v: i for i, v in enumerate(g._order)}
            assert len(position) == len(g._order) and position.keys() == g.vertices, k
            for v in g.vertices:
                assert all(position[v] < position[w] for w in g.successors(v)), (k, v)


def assert_successor_map_and_sinks_are_the_vertex_set(graphs):
    """Each S_k and W(S_k) keys its successor map by exactly its vertices,
    in the order it was built in, so sorting the keys sorts the vertices;
    and the sink set validation kept is the vertices with no successor."""
    for k, s in enumerate(graphs, start=1):
        for g in (s.graph, wildcards_graph(s)):
            assert set(g._out) == g.vertices, k
            assert g.sorted_vertices == tuple(sorted(g.vertices)), k
            assert g.sinks == tuple(sorted(v for v, targets in g._out.items() if not targets)), k


def assert_size_laws(table, graphs):
    """|S_1| is the number of classes and each next size follows the vertex
    recurrence n_k+1 = |plain| + |generic| * 3(n_k - 1), restated rather
    than read from `predicted_counts`; W(S_k) has 3(n_k - 1) vertices."""
    plain = len(table.classes) - len(table.generic)
    n = len(table.classes)
    for k, s in enumerate(graphs, start=1):
        assert len(s.vertices) == n, k
        assert len(wildcards_graph(s).vertices) == wildcards_size(n) == 3 * (n - 1), k
        n = plain + len(table.generic) * 3 * (n - 1)


def assert_edge_law(table, graphs):
    """|E(S_1)| = pp + pn + np + nn, counting the class graph's edges from a
    generic or plain class (first letter) to a generic or plain one; W(S_k)
    has 2e_k + 2(n_k - 2) edges; and, with g generic classes,
    e_k+1 = pp * 3(n_k - 1) + g * (2e_k + 2(n_k - 2)) + pn + np * n_k + nn:
    a copy of each pp edge per argument and of W(S_k) per generic class,
    each pn edge out of the sink `?` and each np edge into the n_k exact
    arguments, the sources of W(S_k)."""
    ends = [(sub in table.generic, sup in table.generic) for sub, sup in table.extends_edges]
    pp, pn, np, nn = map(ends.count, ((True, True), (True, False), (False, True), (False, False)))
    g = len(table.generic)
    e = pp + pn + np + nn
    for k, s in enumerate(graphs, start=1):
        n = len(s.vertices)
        assert s.graph.edge_count == e, k
        assert wildcards_graph(s).edge_count == 2 * e + 2 * (n - 2), k
        e = pp * 3 * (n - 1) + g * (2 * e + 2 * (n - 2)) + pn + np * n + nn


def assert_pair_law(table, graphs):
    """S_k has P_k true pairs s <= t, s = t included, where
    P_1 = 2n_1 - 1 + A + B + G and
    P_k+1 = 2n_k+1 - 1 + A + B * 3(n_k - 1) + G * (4P_k - 2n_k - 3),
    restated rather than read from `builder.predicted_counts`, which must
    agree.  A, B and G count the pairs P ⊑ Q, Q not the top, of plain
    classes with P not the bottom, of a generic P and a plain Q, and of
    generic classes: each class is paired with itself and its ancestors."""
    a = b = g = 0
    for name in table.superclass:
        ancestors = [name]
        while (parent := table.superclass[ancestors[-1]]) != TOP_CLASS:
            ancestors.append(parent)
        plain = sum(c not in table.generic for c in ancestors)
        if name in table.generic:
            b, g = b + plain, g + len(ancestors) - plain
        else:
            a += plain
    predicted = builder.predicted_counts(table)
    for k, s in enumerate(graphs, start=1):
        size = len(s.vertices)
        if k == 1:
            pairs = 2 * size - 1 + a + b + g
        else:
            pairs = 2 * size - 1 + a + b * 3 * (n - 1) + g * (4 * pairs - 2 * n - 3)
        n = size
        assert sum(len(s.graph.descendants_of(v)) + 1 for v in s.graph.vertices) == pairs, k
        assert next(predicted)[2] == pairs, k


def assert_restriction_law(graphs):
    """Each S_k is the restriction of S_k+1 to its own vertices: the closure
    of S_k+1 induced on them is the closure of S_k."""
    closures = [reflexive_transitive_closure(s.graph) for s in graphs]
    for k, (s, closed, closed_next) in enumerate(zip(graphs, closures, closures[1:]), start=1):
        assert equals_ignoring_tags(induced_subgraph(closed_next, s.graph.vertices), closed), k


def assert_embedding_law(table, graphs):
    """Each generic class C embeds S_k in S_k+1 covariantly through its
    upper-bounded arguments and contravariantly through its lower-bounded
    ones: u reaches v in S_k exactly when C's covariant image of u reaches
    that of v, and C's contravariant image of v reaches that of u.  Each
    vertex is searched once, as `reachable(g, u, v)` is u == v or v among
    `g.descendants_of(u)`."""

    def up(g, u):
        return g.descendants_of(u) | {u}

    for current, nxt in zip(graphs, graphs[1:]):
        g, h = current.graph, nxt.graph
        vertices = g.sorted_vertices
        ups = {u: up(g, u) for u in vertices}
        for cls in sorted(table.generic):
            cov = {u: covariant_image(cls, u) for u in vertices}
            con = {u: contravariant_image(cls, u) for u in vertices}
            for u in vertices:
                cov_up, con_up = up(h, cov[u]), up(h, con[u])
                for v in vertices:
                    assert (cov[v] in cov_up) == (v in ups[u]), (cls, u, v)
                    assert (con[v] in con_up) == (u in ups[v]), (cls, v, u)


def assert_covers_law(table, graphs):
    """`InfiniteGraph` worked out on demand is each materialised graph: at
    depth k its vertices, and each one's covers up and down, are those of
    the k-th of `graphs`, in label order."""
    infinite = InfiniteGraph(table)
    for k, g in enumerate(graphs, start=1):
        assert labels(map(shape_type, infinite._vertices_of(k))) == list(g.sorted_vertices), k
        below = reversed_graph(g)
        for v in g.sorted_vertices:
            shape = infinite._vertex(parse_ground_type(v, table), k)
            up, down = infinite._covers_up(shape, k), infinite._covers_down(shape, k)
            assert labels(map(shape_type, up)) == list(g.successors(v)), (k, v)
            assert labels(map(shape_type, down)) == list(below.successors(v)), (k, v)


def assert_fibre_law(table, k):
    """For each generic class C and each j < k, the subgraph of S_j+1
    induced on the C<·> vertices is W(S_j) relabelled by C<·>, tags
    included: each cover inside a fibre is a cover of the argument graph."""
    graphs = run(table, k).graphs
    for current, nxt in zip(graphs, graphs[1:]):
        arguments = wildcards_graph(current)
        for cls in sorted(table.generic):
            fibre = [v for v in nxt.graph.vertices if v.startswith(f"{cls}<")]
            expected = relabeled(arguments, lambda a: instantiation_label(cls, a))
            assert induced_subgraph(nxt.graph, fibre) == expected, (cls, len(current.vertices))


def assert_tag_law(table, k):
    """Every edge of S_1 … S_k carries the tag `edge_tag` gives its two
    endpoints, each parsed back from its label."""
    for s in run(table, k).graphs:
        types = {v: parse_ground_type(v, table) for v in s.graph.vertices}
        for e in s.graph.sorted_edges:
            assert e.tag == edge_tag(types[e.src], types[e.dst]), e


@pytest.mark.parametrize("source", [*CORPUS.values(), NUMBERS_SOURCE], ids=[*CORPUS, "numbers"])
def test_fibre_law_on_the_corpus(source):
    assert_fibre_law(parse_declarations(source), MAX_RANK)


@EXAMPLES
@given(class_tables())
def test_fibre_law(table):
    assert_fibre_law(table, checked_rank(table))


@pytest.mark.parametrize("source", [*CORPUS.values(), NUMBERS_SOURCE], ids=[*CORPUS, "numbers"])
def test_tag_law_on_the_corpus(source):
    assert_tag_law(parse_declarations(source), MAX_RANK)


@EXAMPLES
@given(class_tables())
def test_tag_law(table):
    assert_tag_law(table, checked_rank(table))


# Pairs are drawn from the types of rank at most `SEARCH_RANK` in a graph
# of at most `SEARCH_TYPES` vertices, and each is also compared deepened by
# one, two and three generic wrappers.  The upward search costs most: it
# asks the public covers, which check and rebuild every type they see.
SEARCH_RANK = 4
SEARCH_TYPES = 2_000


def wrapped(rng, table, t1, t2):
    """Both types under one more generic class each.  Half of the time
    both go under one class, `t1` exact or upper-bounded and `t2`
    upper-bounded, which keeps a true verdict true; otherwise each goes
    under a class and a kind of argument drawn apart."""
    generic = sorted(table.generic)
    if rng.random() < 0.5:
        c = rng.choice(generic)
        heads = [(c, rng.choice((Inv, Cov))), (c, Cov)]
    else:
        heads = [(rng.choice(generic), rng.choice((Inv, Cov, Con))) for _ in range(2)]
    return tuple(reference_normalize_type(GroundType(c, kind(t))) for (c, kind), t in zip(heads, (t1, t2)))


def drawn_pair(rng, table, types):
    """Two types, the second drawn half of the time from those of a small
    sample that lie above the first, so that true verdicts are not rare."""
    t1, t2 = rng.choice(types), rng.choice(types)
    if rng.random() < 0.5:
        sample = rng.sample(types, min(len(types), 40))
        above = [t for t in sample if t != t1 and is_subtype(t1, t, table)]
        t2 = rng.choice(above) if above else t2
    return t1, t2


def assert_two_sided_search_agrees(table, seed, pairs):
    """`InfiniteGraph.reaches` and the upward search it replaced,
    `oracles.reference_reaches`, give `is_subtype`'s verdict wherever they
    answer, and the two-sided search answers every pair the upward one
    does."""
    counts = islice(predicted_counts(table), SEARCH_RANK)
    r = max(k for k, (n, _, _) in enumerate(counts, start=1) if k == 1 or n <= SEARCH_TYPES)
    types = enumerate_types(table, r)
    rng = random.Random(seed)
    graph, reference = InfiniteGraph(table), InfiniteGraph(table)
    for _ in range(pairs):
        t1, t2 = drawn_pair(rng, table, types)
        for depth in range(4):
            if depth:
                if not table.generic:
                    break
                t1, t2 = wrapped(rng, table, t1, t2)
            k = sufficient_depth(t1, t2)
            expected = is_subtype(t1, t2, table)
            try:
                upward = reference_reaches(reference, t1, t2, k)
            except SizeLimitError:
                upward = None
            assert upward in (None, expected), (canonical_label(t1), canonical_label(t2))
            try:
                assert graph.reaches(t1, t2, k) == expected, (canonical_label(t1), canonical_label(t2))
            except SizeLimitError:
                assert upward is None, (canonical_label(t1), canonical_label(t2))


@pytest.mark.parametrize("source", [*CORPUS.values(), NUMBERS_SOURCE], ids=[*CORPUS, "numbers"])
def test_two_sided_search_agrees_on_the_corpus(source):
    assert_two_sided_search_agrees(parse_declarations(source), seed=1, pairs=25)


@FEWER_EXAMPLES
@given(class_tables(), st.integers(min_value=0, max_value=2**32))
def test_two_sided_search_agrees(table, seed):
    assert_two_sided_search_agrees(table, seed, pairs=6)


# Deep pairs: a type of rank 4 to 12, and most often a widening of it as
# the other, so that true verdicts are common and the search seldom pays
# for a deep type against a shallow wildcard type.
DEEP_RANKS = st.integers(min_value=4, max_value=12)


def types_of_rank(table, r):
    """Strategy for normalised types of rank exactly `r` over `table`,
    which must have a generic class when r >= 1."""
    if r == 0:
        return st.sampled_from(sorted(set(table.classes) - table.generic)).map(GroundType)
    generic = st.sampled_from(sorted(table.generic))
    if r == 1:
        return generic.map(lambda c: GroundType(c, WILD))
    bounds = types_of_rank(table, r - 1)
    if r == 2:
        bounds = st.one_of(types_of_rank(table, 0), bounds)
    return st.builds(instantiated, generic, st.sampled_from((Inv, Cov, Con)), bounds)


def instantiated(name, kind, bound):
    """`name<kind(bound)>` in normal form.  `? <: O` and `? :> N` are `?`,
    of rank 1, so those two are drawn exact instead."""
    if (kind, bound) in ((Cov, GroundType(TOP_CLASS)), (Con, GroundType(BOTTOM_CLASS))):
        kind = Inv
    return reference_normalize_type(GroundType(name, kind(bound)))


def moved(draw, table, t, up):
    """A supertype of `t` when `up`, else a subtype.  Going up, a generic
    head may move to its generic superclass, and an exact argument may
    become bounded; going down, a bounded argument may become exact.  Past
    that, an upper bound moves the same way and a lower bound the other."""
    parent = table.superclass.get(t.name)
    if up and parent in table.generic and draw(st.integers(0, 3)) == 0:
        return moved(draw, table, GroundType(parent, t.arg), up)
    match t.arg:
        case Inv(bound) if up:
            kind, deeper = draw(st.sampled_from(((Cov, False), (Con, False), (Cov, True), (Con, True))))
            arg = kind(moved(draw, table, bound, kind is Cov) if deeper else bound)
        case Cov(bound) | Con(bound) if not up and draw(st.booleans()):
            arg = Inv(bound)
        case Cov(bound):
            arg = Cov(moved(draw, table, bound, up))
        case Con(bound):
            arg = Con(moved(draw, table, bound, not up))
        case _:
            return t
    return reference_normalize_type(GroundType(t.name, arg))


@st.composite
def deep_pairs(draw, table):
    """A type of rank 4 to 12 and, 31 times in 32, a widening of it, in
    either order; otherwise a second type of rank 4 to 12 drawn apart."""
    t1 = draw(DEEP_RANKS.flatmap(lambda r: types_of_rank(table, r)))
    if draw(st.integers(0, 31)) == 0:
        return t1, draw(DEEP_RANKS.flatmap(lambda r: types_of_rank(table, r)))
    t2 = moved(draw, table, t1, up=True)
    return (t2, t1) if draw(st.booleans()) else (t1, t2)


@settings(max_examples=200, deadline=None)
@given(class_tables().filter(lambda table: table.generic).flatmap(
    lambda table: st.tuples(st.just(table), deep_pairs(table))))
def test_deep_pairs_agree(drawn):
    table, (t1, t2) = drawn
    expected = reference_is_subtype(t1, t2, table)
    assert is_subtype(t1, t2, table) == expected, (canonical_label(t1), canonical_label(t2))
    try:
        verdict = subtype_by_graph(table, t1, t2)
    except SizeLimitError:
        event("refused")
        return
    event(f"verdict {verdict}")
    assert verdict == expected, (canonical_label(t1), canonical_label(t2))
