"""What the package exports and imports, and what the benchmark's tracer
looks up in it.

`bench/tracer.py` replaces module-level names of the package with timing
wrappers.  Loading it here, unchanged, makes a renamed or removed name fail
this suite instead of only a traced benchmark run.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groundsub
from groundsub import (
    Edge,
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
SRC = Path(groundsub.__file__).resolve().parent

EXPORTED = {
    "BOTTOM_CLASS", "BipointedGraph", "ClassTable", "Con", "Cov", "DeclarationError",
    "DifferentialReport", "Edge", "EdgePartition", "EdgeTag", "FORMATS", "GraphError",
    "GroundType", "GroundsubError", "InfiniteGraph", "Inv", "IterationTrace",
    "LabeledDigraph", "Mismatch", "ParseError", "PartitionedGraph", "SizeLimitError", "TOP_CLASS",
    "TypeArg", "WILD", "WILDCARD", "Wild", "argument_label", "canonical_label",
    "differential_check", "enumerate_types", "initial_approximation", "initial_wildcards",
    "is_subtype", "normalize_argument", "normalize_type", "pair_label", "parse_declarations",
    "parse_ground_type", "partial_product", "rank", "reachable", "render", "run",
    "subtype_by_graph", "sufficient_depth", "to_dot", "to_graphml", "to_json",
    "transitive_reduction", "wildcards_graph", "wildcards_size",
}

# Reference implementations that live in tests/oracles.py, not in the package.
ORACLES = (
    "cartesian_product", "merge_vertices", "_coalesce", "disjoint_union",
    "induced_subgraph", "reflexive_transitive_closure", "order_isomorphic",
    "reversed_graph", "relabeled", "partial_product_via_merge", "covariant_image",
    "contravariant_image", "has_edge", "tag_of", "predecessors", "edge_pairs",
    "equals_ignoring_tags", "reference_is_subtype", "reference_contains_argument",
    "subtype_by_trace", "reference_inherits", "reference_json", "checked_product_labels",
    "reference_differential_check",
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


def test_import_loads_no_network_stack():
    # Measured in a fresh interpreter against what it had loaded before the
    # import, so that modules `site` loads do not count.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import groundsub\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(groundsub.__file__).parents[1])}
    added = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        check=True, timeout=60,
    ).stdout.split()
    assert "groundsub" in added
    heavy = ("xml", "urllib.request", "http", "email", "ssl")
    assert [m for m in added if any(m == h or m.startswith(h + ".") for h in heavy)] == []


def test_edges_are_plain_tuples():
    assert issubclass(Edge, tuple)
    assert not hasattr(Edge, "pair")


def test_graphs_store_no_test_only_index():
    g = run(parse_declarations("class C<T> {}"), 2).last.graph
    assert not hasattr(g, "_tag_by_pair")
    assert not hasattr(g, "_pred")


def test_graphs_have_one_constructor_and_one_edge_list_front_end():
    # `LabeledDigraph(vertices, successors)` and `from_edges`; readers use `_out`.
    assert not hasattr(LabeledDigraph, "_from_successors")
    assert not hasattr(LabeledDigraph, "out_edges")
    assert isinstance(vars(LabeledDigraph)["from_edges"], classmethod)


def test_containment_is_asked_as_subtyping_and_run_is_the_only_iteration():
    # `is_subtype(C<a>, C<b>)` decides containment; `run(table, k).graphs`
    # holds every S_j.
    assert not hasattr(rules, "contains_argument")
    assert not hasattr(rules, "_ARGUMENT_HEAD")
    assert not hasattr(rules._Rules, "applied")
    assert not hasattr(builder, "step")


def test_types_are_enumerated_once():
    # `_layers` makes every type with its label and shape, and
    # `typelang.SPELL_BOUND` is the one spelling of an argument's bound.
    assert not hasattr(rules, "_rows")
    assert not hasattr(rules, "_SPELL")


def test_every_wrapped_name_resolves(tracer):
    # Tier-1 does not run `bench/tests`, so this is where a refactor of the
    # package learns that it broke a traced benchmark run.
    for owner, attr, _ in tracer.WRAPPED:
        assert callable(getattr(owner, attr, None)), (owner, attr)
        source = Path(inspect.getsourcefile(getattr(owner, attr))).resolve()
        assert source.is_relative_to(SRC), (owner, attr, source)


def test_traced_build_counts_the_graphs_it_wraps(tracer, tmp_path):
    # The tracer's counters read the package's graphs too.
    decls = tmp_path / "two.decls"
    decls.write_text("class C<T> {}\nclass D<T> {}\n", encoding="utf-8")
    out = tmp_path / "s3.json"
    argv = ["build", "--decls", str(decls), "--iterations", "3", "--format", "json"]
    argv += ["--out", str(out)]
    with tracer.Tracer() as t:
        assert cli.main(argv) == 0
    metrics = t.metrics()
    last = run(parse_declarations(decls.read_text(encoding="utf-8")), 3).last.graph
    assert metrics["builder.steps"] == 3
    assert metrics["builder.vertices_final"] == len(last.vertices)
    assert metrics["builder.edges_final"] == last.edge_count
    assert metrics["export.bytes"] == out.stat().st_size
    assert metrics["product.edges_out"] > metrics["builder.edges_final"]
    assert metrics["digraph.graphs_built"] > 3


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


def _unread_imports(path: Path) -> set[str]:
    """Names the module's top-level imports bind that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bound - read


def test_src_imports_only_what_it_uses(tracer):
    # `__init__.py` only re-exports, which `test_exports_are_pinned` covers.
    # A name the tracer wraps in a module may be imported there for it alone.
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    for path in modules:
        module = f"groundsub.{path.stem}"
        wrapped = {attr for owner, attr, _ in tracer.WRAPPED if owner.__name__ == module}
        unread = _unread_imports(path) - wrapped
        assert not unread, (path.name, sorted(unread))
