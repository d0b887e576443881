"""Every small class table, checked exhaustively: a bounded guarantee where
the drawn tests in `test_generated.py` give a sample."""

from __future__ import annotations

import pytest

from groundsub import differential_check, run

from conftest import small_class_tables, table_form
from test_generated import (
    assert_covers_law,
    assert_edge_law,
    assert_embedding_law,
    assert_fibre_law,
    assert_pair_law,
    assert_restriction_law,
    assert_size_laws,
    assert_tag_law,
)


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


@pytest.mark.parametrize("n", range(5))
def test_infinite_graph_is_the_materialised_graph_on_every_small_table(n):
    for table in small_class_tables(n):
        trace = run(table, 3)
        # A table without generic classes stops at S_1, its fixed point.
        graphs = [trace.graphs[min(k, trace.depth) - 1].graph for k in range(1, 4)]
        assert_covers_law(table, graphs)


@pytest.mark.parametrize("n", range(5))
def test_fibre_and_tag_laws_on_every_small_table(n):
    for table in small_class_tables(n):
        assert_fibre_law(table, 3)
        assert_tag_law(table, 3)


@pytest.mark.parametrize("n", range(5))
def test_size_embedding_and_restriction_laws_on_every_small_table(n):
    for table in small_class_tables(n):
        graphs = run(table, 3).graphs
        assert_size_laws(table, graphs)
        assert_embedding_law(table, graphs)
        # The restriction law's closures would cost about 1.7 s more on the
        # 58 four-class tables.
        if n <= 3:
            assert_restriction_law(graphs)


@pytest.mark.parametrize("n", range(5))
def test_edge_and_pair_laws_on_every_small_table(n):
    for table in small_class_tables(n):
        graphs = run(table, 3).graphs
        assert_edge_law(table, graphs)
        assert_pair_law(table, graphs)
