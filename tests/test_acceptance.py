"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Everything here is exact: vertex counts, graph equalities and
verdicts admit no tolerance.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from groundsub import (
    PartitionedGraph,
    differential_check,
    initial_approximation,
    initial_wildcards,
    is_subtype,
    parse_declarations,
    parse_ground_type,
    partial_product,
    reachable,
    run,
    subtype_by_graph,
    wildcards_graph,
    wildcards_size,
)
from groundsub.labels import instantiation_label

from conftest import ALL_PLAIN_SOURCE, NUMBERS_SOURCE, random_reduced_dag
from oracles import (
    cartesian_product,
    contravariant_image,
    covariant_image,
    induced_subgraph,
    partial_product_via_merge,
    reflexive_transitive_closure,
    relabeled,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({title}): FAIL")
        raise
    print(f"criterion {number:2d} ({title}): PASS")


def test_criterion_01_single_generic_vertex_counts(traces):
    with criterion(1, "vertex counts 3, 8, 23"):
        assert [v for v, _ in traces["one_generic"].stats] == [3, 8, 23]


def test_criterion_02_argument_graph_size_law(traces):
    with criterion(2, "argument graph size 3(n-1)"):
        for trace in traces.values():
            for s in trace.graphs:
                n = len(s.graph.vertices)
                assert len(wildcards_graph(s).vertices) == wildcards_size(n)


def test_criterion_03_base_case(tables):
    with criterion(3, "base case and first product"):
        start = initial_wildcards()
        assert start.sorted_vertices == ("?",)
        assert not start.edges
        for table in tables.values():
            expected = relabeled(
                table.graph.graph,
                lambda c: instantiation_label(c, "?") if table.is_generic(c) else c,
            )
            assert initial_approximation(table).graph == expected


def test_criterion_04_degenerate_product_is_left_factor():
    with criterion(4, "no generics gives the subclassing graph"):
        table = parse_declarations(ALL_PLAIN_SOURCE)
        trace = run(table, 3)
        assert trace.depth == 1
        assert trace.reached_fixed_point
        assert trace.last.graph == table.graph.graph


def test_criterion_05_full_partition_equals_cartesian_product():
    with criterion(5, "full partition matches plain product"):
        rng = random.Random(20240811)
        for _ in range(110):
            g1 = random_reduced_dag(rng, "a")
            g2 = random_reduced_dag(rng, "b")
            pg = PartitionedGraph(g1, g1.vertices)
            assert partial_product(pg, g2) == cartesian_product(g1, g2)


def test_criterion_06_direct_and_merge_paths_agree(tables, traces):
    with criterion(6, "direct rules match the merge path"):
        for name, table in tables.items():
            pg = PartitionedGraph(table.graph.graph, table.generic)
            for s in traces[name].graphs:
                arguments = wildcards_graph(s)
                direct = partial_product(pg, arguments, combine=instantiation_label)
                merged = partial_product_via_merge(pg, arguments, combine=instantiation_label)
                assert direct.equals_ignoring_tags(merged), name
        rng = random.Random(20240812)
        for _ in range(110):
            g1 = random_reduced_dag(rng, "a")
            g2 = random_reduced_dag(rng, "b")
            subset = frozenset(v for v in g1.vertices if rng.random() < 0.5)
            pg = PartitionedGraph(g1, subset)
            direct = partial_product(pg, g2)
            merged = partial_product_via_merge(pg, g2)
            assert direct.equals_ignoring_tags(merged)


def test_criterion_07_differential_equivalence(tables):
    with criterion(7, "construction matches decision rules"):
        expected_pairs = {
            "one_generic": 23 * 23,
            "plain_and_generic": 36 * 36,
            "two_generics": 116 * 116,
            "passthrough": 116 * 116,
            "mixed_hierarchy": 62 * 62,
        }
        for name, table in tables.items():
            report = differential_check(table, 3)
            assert report.pair_count == expected_pairs[name], name
            assert report.mismatches == (), name
        deep = differential_check(tables["one_generic"], 4)
        assert deep.pair_count == 68 * 68
        assert deep.mismatches == ()


def test_criterion_08_second_step_vertex_counts(traces):
    with criterion(8, "second-step vertex counts"):
        expected = {
            "plain_and_generic": 12,
            "two_generics": 20,
            "passthrough": 20,
            "mixed_hierarchy": 20,
        }
        for name, count in expected.items():
            assert traces[name].stats[1][0] == count, name


def test_criterion_09_self_similar_embeddings(tables, traces):
    with criterion(9, "variance embeddings between steps"):
        for name, trace in traces.items():
            table = tables[name]
            for current, nxt in zip(trace.graphs, trace.graphs[1:]):
                vertices = sorted(current.graph.vertices)
                for cls in sorted(table.generic):
                    for u in vertices:
                        for v in vertices:
                            expected = reachable(current.graph, u, v)
                            assert expected == reachable(
                                nxt.graph, covariant_image(cls, u), covariant_image(cls, v)
                            ), (name, cls, u, v)
                            assert expected == reachable(
                                nxt.graph,
                                contravariant_image(cls, v),
                                contravariant_image(cls, u),
                            ), (name, cls, u, v)


def test_criterion_10_variance_rule_triples_both_paths():
    with criterion(10, "variance rule triples via both deciders"):
        table = parse_declarations(NUMBERS_SOURCE)
        trace = run(table, 2)
        cases = [
            ("List<? extends Integer>", "List<? extends Number>", True),
            ("List<? super Number>", "List<? super Integer>", True),
            ("List<Integer>", "List<Number>", False),
            ("List<Number>", "List<Integer>", False),
        ]
        for left, right, expected in cases:
            t1 = parse_ground_type(left, table)
            t2 = parse_ground_type(right, table)
            assert subtype_by_graph(trace, t1, t2) is expected, (left, right)
            assert is_subtype(t1, t2, table) is expected, (left, right)


def test_criterion_11_monotone_approximation(traces):
    with criterion(11, "later steps restrict to earlier ones"):
        for name, trace in traces.items():
            for current, nxt in zip(trace.graphs[:2], trace.graphs[1:3]):
                restricted = induced_subgraph(
                    reflexive_transitive_closure(nxt.graph), current.graph.vertices
                )
                closed = reflexive_transitive_closure(current.graph)
                assert restricted.equals_ignoring_tags(closed), name
