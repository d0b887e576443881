"""Every small class table, checked exhaustively: a bounded guarantee where
the drawn tests in `test_generated.py` give a sample."""

from __future__ import annotations

import pytest

from groundsub import InfiniteGraph, canonical_label, differential_check, run

from conftest import small_class_tables, table_form
from oracles import reversed_graph
from test_generated import assert_fibre_law, assert_tag_law


def test_small_tables_are_counted_once_up_to_renaming():
    counts = [len(small_class_tables(n)) for n in range(7)]
    assert counts == [1, 2, 6, 18, 58, 189, 641]
    for n in range(7):
        forms = [table_form(table) for table in small_class_tables(n)]
        assert len(set(forms)) == len(forms), n
        assert all(len(table.superclass) == n for table in small_class_tables(n)), n


@pytest.mark.parametrize("n", range(6))
def test_the_deciders_agree_on_every_small_table(n):
    for table in small_class_tables(n):
        assert differential_check(table, 3).ok, table_form(table)


def labels(types):
    return sorted(map(canonical_label, types))


@pytest.mark.parametrize("n", range(5))
def test_infinite_graph_is_the_materialised_graph_on_every_small_table(n):
    for table in small_class_tables(n):
        trace, graph = run(table, 3), InfiniteGraph(table)
        for k in range(1, 4):
            # A table without generic classes stops at S_1, its fixed point.
            s = trace.graphs[min(k, trace.depth) - 1].graph
            below = reversed_graph(s)
            where = (table_form(table), k)
            assert labels(graph.vertices(k)) == list(s.sorted_vertices), where
            for t in graph.vertices(k):
                v = canonical_label(t)
                assert labels(graph.covers_up(t, k)) == list(s.successors(v)), (*where, v)
                assert labels(graph.covers_down(t, k)) == list(below.successors(v)), (*where, v)


@pytest.mark.parametrize("n", range(5))
def test_fibre_and_tag_laws_on_every_small_table(n):
    for table in small_class_tables(n):
        assert_fibre_law(table, 3)
        assert_tag_law(table, 3)
