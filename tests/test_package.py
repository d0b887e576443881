"""What the package exports, and what the benchmark's tracer looks up in it.

`bench/tracer.py` replaces module-level names of the package with timing
wrappers.  Loading it here, unchanged, makes a renamed or removed name fail
this suite instead of only a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import groundsub
from groundsub import (
    LabeledDigraph,
    builder,
    cli,
    digraph,
    errors,
    export,
    labels,
    parse_declarations,
    product,
    rules,
    run,
    typelang,
    wildcards,
)

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

EXPORTED = {
    "BOTTOM_CLASS", "BipointedGraph", "ClassTable", "Con", "Cov", "DeclarationError",
    "DifferentialReport", "Edge", "EdgePartition", "EdgeTag", "FORMATS", "GraphError",
    "GroundType", "GroundsubError", "Inv", "IterationTrace", "LabeledDigraph", "Mismatch",
    "ParseError", "PartitionedGraph", "QueryError", "SizeLimitError", "TOP_CLASS",
    "TypeArg", "WILD", "WILDCARD", "Wild", "argument_label", "canonical_label",
    "contains_argument", "differential_check", "enumerate_types", "initial_approximation",
    "initial_wildcards", "is_subtype", "normalize_argument", "normalize_type", "pair_label",
    "parse_declarations", "parse_ground_type", "partial_product", "rank", "reachable",
    "render", "run", "step", "subtype_by_graph", "sufficient_depth", "to_dot",
    "to_graphml", "to_json", "transitive_reduction", "wildcards_graph", "wildcards_size",
}

# Reference implementations that live in tests/oracles.py, not in the package.
ORACLES = (
    "cartesian_product", "merge_vertices", "_coalesce", "disjoint_union",
    "induced_subgraph", "reflexive_transitive_closure", "order_isomorphic",
    "reversed_graph", "relabeled", "partial_product_via_merge", "covariant_image",
    "contravariant_image",
)


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("groundsub_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exports_are_pinned():
    assert set(groundsub.__all__) == EXPORTED
    assert all(hasattr(groundsub, name) for name in groundsub.__all__)


@pytest.mark.parametrize("name", ORACLES)
def test_oracles_are_not_in_the_package(name):
    modules = (builder, cli, digraph, errors, export, labels, product, rules, typelang, wildcards)
    for owner in (groundsub, *modules, LabeledDigraph):
        assert not hasattr(owner, name), (owner, name)


def test_graphs_store_no_test_only_index():
    g = run(parse_declarations("class C<T> {}"), 2).last.graph
    assert not hasattr(g, "_tag_by_pair")
    assert not hasattr(g, "_pred")


def test_every_wrapped_name_resolves(tracer):
    for owner, attr, _ in tracer.WRAPPED:
        assert callable(getattr(owner, attr, None)), (owner, attr)


def test_tracer_installs_and_uninstalls_cleanly(tracer):
    before = [getattr(owner, attr) for owner, attr, _ in tracer.WRAPPED]
    with tracer.Tracer() as t:
        assert all(
            getattr(owner, attr) is not original
            for (owner, attr, _), original in zip(tracer.WRAPPED, before)
        )
        assert cli.main(["stats", "--decls", "/nonexistent.decls", "--iterations", "1"]) == 1
    assert [getattr(owner, attr) for owner, attr, _ in tracer.WRAPPED] == before
    assert t.calls["cli.main"] == 1
