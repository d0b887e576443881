"""Shared fixtures: the corpus of small programs, and generators of graphs
and of class tables."""

from __future__ import annotations

import random
from functools import cache

import pytest
from hypothesis import strategies as st

from groundsub import (
    BOTTOM_CLASS,
    TOP_CLASS,
    ClassTable,
    EdgeTag,
    LabeledDigraph,
    parse_declarations,
    run,
    transitive_reduction,
)

# Small programs covering the interesting shapes: a lone generic class, a
# generic beside a plain class, two unrelated generics, a generic subclass
# passing its parameter through, and a plain hierarchy with one generic leaf.
CORPUS = {
    "one_generic": "class C<T> {}",
    "plain_and_generic": "class C {}  // class C is non-generic\nclass D<T> {}",
    "two_generics": "class C<T> {}\nclass D<T> {}",
    "passthrough": "class C<T> {}\nclass E<T> extends C<T> {}",
    "mixed_hierarchy": (
        "class C {}\nclass E extends C {}\nclass D {}\nclass F<T> extends D {}"
    ),
}

NUMBERS_SOURCE = "class Number {}\nclass Integer extends Number {}\nclass List<T> {}"

ALL_PLAIN_SOURCE = "class C {}\nclass E extends C {}\nclass D {}\nclass F extends D {}"


@pytest.fixture(scope="session")
def tables():
    return {name: parse_declarations(src) for name, src in CORPUS.items()}


@pytest.fixture(scope="session")
def traces(tables):
    """Depth-3 construction for every corpus program, built once."""
    return {name: run(table, 3) for name, table in tables.items()}


@pytest.fixture(scope="session")
def numbers_table():
    return parse_declarations(NUMBERS_SOURCE)


def random_reduced_dag(rng: random.Random, prefix: str, max_vertices: int = 8) -> LabeledDigraph:
    """Seeded random DAG in Hasse form with tagged edges."""
    n = rng.randint(1, max_vertices)
    labels = [f"{prefix}{i}" for i in range(n)]
    tags = list(EdgeTag)
    edges = [
        (labels[i], labels[j], rng.choice(tags))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    return transitive_reduction(LabeledDigraph.from_edges(edges, vertices=labels))


@st.composite
def dags(draw, max_vertices: int = 7, reduced: bool = False):
    """Hypothesis strategy for DAGs over a fixed topological order."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    labels = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                tag = draw(st.sampled_from(list(EdgeTag)))
                edges.append((labels[i], labels[j], tag))
    g = LabeledDigraph.from_edges(edges, vertices=labels)
    return transitive_reduction(g) if reduced else g


@st.composite
def class_tables(draw, max_classes: int = 6):
    """Hypothesis strategy for class tables, rendered as source and parsed.

    Up to `max_classes` user classes in a single-inheritance forest, each
    extending an earlier class or the top.  A class is generic with
    probability 1/2, except that a subclass of a generic class must be
    generic and pass its parameter through.
    """
    n = draw(st.integers(min_value=0, max_value=max_classes))
    names = [f"K{i}" for i in range(n)]
    generic: set[str] = set()
    lines = []
    for i, name in enumerate(names):
        parent = draw(st.sampled_from([None, *names[:i]]))
        if parent in generic or draw(st.booleans()):
            generic.add(name)
        head = f"class {name}<T>" if name in generic else f"class {name}"
        if parent is None:
            extends = draw(st.sampled_from(["", " extends Object"]))
        else:
            extends = f" extends {parent}<T>" if parent in generic else f" extends {parent}"
        lines.append(f"{head}{extends} {{}}")
    return parse_declarations("\n".join(lines))


def table_form(table: ClassTable) -> tuple:
    """The canonical form of a class table: the sorted tuple of the forms of
    the classes that extend the top, where a class's form is the pair of
    whether it is generic and the sorted tuple of the forms of the classes
    that extend it.  Two tables have the same form exactly when one is the
    other with its user classes renamed."""

    def below(parent: str) -> tuple:
        subs = (c for c, sup in table.superclass.items() if sup == parent)
        return tuple(sorted((c in table.generic, below(c)) for c in subs))

    return below(TOP_CLASS)


@cache
def _forms(n: int, under_generic: bool, least: tuple = ()) -> tuple[tuple, ...]:
    """The forms of `n` classes under one parent, generic or not, whose
    trees are all at least `least`: each multiset of trees once, sorted."""
    if n == 0:
        return ((),)
    found = []
    for size in range(1, n + 1):
        for generic in (True,) if under_generic else (False, True):
            for subs in _forms(size - 1, generic):
                tree = (generic, subs)
                if tree >= least:
                    found += [(tree, *rest) for rest in _forms(n - size, under_generic, tree)]
    return tuple(found)


def _table_of_form(form: tuple) -> ClassTable:
    """The table of a form, its classes named K0, K1, ... in preorder."""
    classes, generic, superclass = [TOP_CLASS], set(), {}

    def place(trees: tuple, parent: str) -> None:
        for is_generic, subs in trees:
            name = f"K{len(classes) - 1}"
            classes.append(name)
            superclass[name] = parent
            if is_generic:
                generic.add(name)
            place(subs, name)

    place(form, TOP_CLASS)
    return ClassTable((*classes, BOTTOM_CLASS), generic, superclass)


@cache
def small_class_tables(n: int) -> tuple[ClassTable, ...]:
    """Every class table of exactly `n` user classes, once up to renaming.

    A table is a single-inheritance forest under the top: each class
    extends an earlier class or the top, is generic or not, and a subclass
    of a generic class is generic (and passes its parameter through).
    """
    return tuple(map(_table_of_form, _forms(n, False)))
