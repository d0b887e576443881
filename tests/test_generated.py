"""Generated class tables: the two deciders agree, the covers worked out on
demand equal the materialised graphs, and the paper's laws hold.

Every table is drawn by `conftest.class_tables`; the checks of the rules'
up-set and down-set generator, of the order of `enumerate_types` and of the
rows that `rules._layers` makes, rank by rank, for it and for
`differential_check` run on the corpus as well.  Each check runs
at the largest rank up to `MAX_RANK` whose approximation has at most
`PAIR_CAP` ordered pairs of vertices, read from `predicted_sizes` before
anything is built, so the cost of an example is bounded whatever table is
drawn.
"""

from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import given, settings

from groundsub import (
    InfiniteGraph,
    canonical_label,
    differential_check,
    enumerate_types,
    parse_declarations,
    parse_ground_type,
    rank,
    reachable,
    run,
    wildcards_graph,
    wildcards_size,
)
from groundsub import rules
from groundsub.builder import predicted_sizes

from conftest import CORPUS, NUMBERS_SOURCE, class_tables
from oracles import (
    contravariant_image,
    covariant_image,
    equals_ignoring_tags,
    induced_subgraph,
    reference_differential_check,
    reference_is_subtype,
    reflexive_transitive_closure,
    reversed_graph,
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
    sizes = list(islice(predicted_sizes(table), MAX_RANK))
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
    up = [(s1, s2) for s1 in shapes for s2 in decider.above(s1, k)]
    down = [(s1, s2) for s2 in shapes for s1 in decider.below(s2, k)]
    assert len(up) == len(down) == len(by_rules)
    assert set(up) == set(down) == set(by_rules)


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
    """The label and shape `rules._layers` makes for each type from its
    bound's row are the type's own, and its layer is the type's rank."""
    decider = rules._Rules(table)
    rows = [(r, row) for r, layer in enumerate(rules._layers(table, k)) for row in layer]
    expected = [(rank(t), (canonical_label(t), t, decider.shape(t))) for _, (_, t, _) in rows]
    assert rows == expected


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
    trace = run(table, checked_rank(table))
    graph = InfiniteGraph(table)
    for k, s in enumerate(trace.graphs, start=1):
        assert labels(graph.vertices(k)) == list(s.graph.sorted_vertices)
        below = reversed_graph(s.graph)
        for v in s.graph.sorted_vertices:
            t = parse_ground_type(v, table)
            assert labels(graph.covers_up(t, k)) == list(s.graph.successors(v)), (k, v)
            assert labels(graph.covers_down(t, k)) == list(below.successors(v)), (k, v)


@EXAMPLES
@given(class_tables())
def test_laws(table):
    trace = run(table, checked_rank(table))
    plain = len(table.classes) - len(table.generic)
    n = len(table.classes)
    for current in trace.graphs:
        # The vertex recurrence, restated rather than read from
        # `predicted_sizes`, and the size law of the argument graph.
        assert len(current.vertices) == n
        assert len(wildcards_graph(current).vertices) == wildcards_size(n) == 3 * (n - 1)
        n = plain + len(table.generic) * 3 * (n - 1)
    for current, nxt in zip(trace.graphs, trace.graphs[1:]):
        # S_k is the restriction of S_k+1 to its own vertices.
        restricted = induced_subgraph(
            reflexive_transitive_closure(nxt.graph), current.graph.vertices
        )
        assert equals_ignoring_tags(restricted, reflexive_transitive_closure(current.graph))
        # Each generic class embeds S_k in S_k+1 covariantly through its
        # upper-bounded arguments and contravariantly through its
        # lower-bounded ones.
        for cls in sorted(table.generic):
            for u in current.graph.vertices:
                for v in current.graph.vertices:
                    expected = reachable(current.graph, u, v)
                    cov = covariant_image(cls, u), covariant_image(cls, v)
                    assert reachable(nxt.graph, *cov) == expected
                    con = contravariant_image(cls, v), contravariant_image(cls, u)
                    assert reachable(nxt.graph, *con) == expected
