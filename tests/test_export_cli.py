"""Serializers and the command-line frontend."""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape
from pathlib import Path

import pytest

import groundsub
from groundsub import (
    EdgeTag,
    LabeledDigraph,
    parse_declarations,
    render,
    run,
)
from groundsub.cli import _build_parser, _UsageError, main
from groundsub.export import FORMATS

from conftest import ALL_PLAIN_SOURCE, CORPUS
from oracles import reference_json, relabeled

THREE_GENERICS = "class A<T> {}\nclass B<T> {}\nclass C<T> {}\n"

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture
def first_graph(tables):
    return run(tables["one_generic"], 1).last.graph


@pytest.fixture
def second_graph(tables):
    return run(tables["one_generic"], 2).last.graph


def dot_multisets(text):
    nodes = set(re.findall(r'^  "((?:[^"\\]|\\.)*)";$', text, flags=re.M))
    edges = set(re.findall(r'^  "((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)"', text, flags=re.M))
    unescape = lambda s: s.replace('\\"', '"').replace("\\\\", "\\")
    return {unescape(n) for n in nodes}, {(unescape(a), unescape(b)) for a, b in edges}


def graphml_multisets(text):
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    root = ET.fromstring(text)
    labels = {}
    for node in root.findall(".//g:node", ns):
        labels[node.get("id")] = node.find("g:data", ns).text
    edges = {
        (labels[e.get("source")], labels[e.get("target")])
        for e in root.findall(".//g:edge", ns)
    }
    return set(labels.values()), edges


class TestExports:
    def test_json_schema(self, first_graph):
        payload = json.loads(render(first_graph, "json"))
        assert payload["vertices"] == ["C<?>", "N", "O"]
        assert payload["edges"] == [
            {"from": "C<?>", "to": "O", "tag": "inherit"},
            {"from": "N", "to": "C<?>", "tag": "inherit"},
        ]

    def test_dot_colors_variance_edges(self, second_graph):
        text = render(second_graph, "dot")
        assert '"C<? <: C<?>>" -> "C<?>" [color=green];' in text
        assert '"C<? :> C<?>>" -> "C<?>" [color=red];' in text
        assert '"C<?>" -> "O";' in text
        assert "rankdir=BT" in text

    def test_formats_agree_on_vertex_and_edge_sets(self, second_graph):
        payload = json.loads(render(second_graph, "json"))
        json_nodes = set(payload["vertices"])
        json_edges = {(e["from"], e["to"]) for e in payload["edges"]}
        assert dot_multisets(render(second_graph, "dot")) == (json_nodes, json_edges)
        assert graphml_multisets(render(second_graph, "graphml")) == (json_nodes, json_edges)

    def test_rendering_is_deterministic(self, second_graph):
        for fmt in ("dot", "graphml", "json"):
            assert render(second_graph, fmt) == render(second_graph, fmt)

    @pytest.mark.parametrize(
        "graph",
        [
            LabeledDigraph.from_edges(),
            LabeledDigraph.from_edges(vertices=("b", "a", "c")),
            LabeledDigraph.from_edges(
                [('say "hi"', "back\\slash", EdgeTag.COVARIANT),
                 ("tab\there", "Zeilenumbr\u00fcche\n", EdgeTag.CONTRAVARIANT),
                 ("\x00\x1f\x7f", "\u2203 \U0001d54a\u2096", EdgeTag.INV_LINK),
                 ('say "hi"', "\u2203 \U0001d54a\u2096", EdgeTag.INHERIT)],
                vertices=("\ud800 lone surrogate", ""),
            ),
        ],
        ids=["empty", "no-edges", "escapes"],
    )
    def test_json_bytes_equal_json_dumps(self, graph):
        assert render(graph, "json").encode("utf-8") == reference_json(graph).encode("utf-8")

    def test_json_bytes_equal_json_dumps_on_the_corpus(self, traces):
        for trace in traces.values():
            for s in trace.graphs:
                assert render(s.graph, "json") == reference_json(s.graph)

    def test_graphml_escapes_like_saxutils(self):
        labels = ["a & b", "<tag>", "x > y", 'say "hi"', "it's", "&amp; <&>"]
        pairs = {("a & b", "<tag>"), ("<tag>", "it's")}
        graph = LabeledDigraph.from_edges(
            [(a, b, EdgeTag.INHERIT) for a, b in sorted(pairs)], vertices=labels
        )
        text = render(graph, "graphml")
        for label in labels:
            assert f'<data key="label">{escape(label)}</data>' in text
        assert graphml_multisets(text) == (set(labels), pairs)

    def test_rendering_hashes_no_tag_and_reads_no_value(self, traces, monkeypatch):
        # The writers key tags by their `_value_` strings: with the `EdgeTag`
        # hash and `value` property raising, every S_3 renders the same bytes.
        def render_all():
            return {
                (name, fmt): render(trace.last.graph, fmt)
                for name, trace in traces.items()
                for fmt in FORMATS
            }

        def refuse(*_):
            raise AssertionError("an export hashed an EdgeTag or read its value")

        expected = render_all()
        monkeypatch.setattr(EdgeTag, "__hash__", refuse)
        # Reading `value` off the class raises, so there is no old value to save.
        monkeypatch.setattr(EdgeTag, "value", property(refuse), raising=False)
        with pytest.raises(AssertionError, match="hashed an EdgeTag"):
            hash(EdgeTag.INHERIT)
        with pytest.raises(AssertionError, match="read its value"):
            EdgeTag.INHERIT.value
        assert render_all() == expected

    def test_unknown_format_is_rejected(self, first_graph):
        with pytest.raises(ValueError, match="unknown format"):
            render(first_graph, "svg")

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_block_boundaries_change_no_byte(self, traces, monkeypatch, block):
        # The corpus graphs fit in one block.  In `leading_sinks` the first
        # blocks hold only vertices without out-edges (a, b, c), so the JSON
        # edge list opens in a later block; `no-edges` gives `"edges": []`.
        import groundsub.export as export_module

        leading_sinks = LabeledDigraph.from_edges(
            [("d", "e", EdgeTag.COVARIANT), ("g", "a", EdgeTag.INHERIT)], vertices=("a", "b", "c")
        )
        graphs = [s.graph for trace in traces.values() for s in trace.graphs]
        graphs += [
            leading_sinks,
            LabeledDigraph.from_edges(),
            LabeledDigraph.from_edges(vertices=("b", "a", "c")),
            LabeledDigraph.from_edges(
                [('say "hi"', "a & <b>", EdgeTag.CONTRAVARIANT), ("tab\there", "x", EdgeTag.INV_LINK)]
            ),
        ]
        assert max(len(g.vertices) for g in graphs) < export_module._BLOCK
        whole = [render(g, fmt) for g in graphs for fmt in FORMATS]
        monkeypatch.setattr(export_module, "_BLOCK", block)
        assert [render(g, fmt) for g in graphs for fmt in FORMATS] == whole
        assert len(list(export_module.chunks(leading_sinks, "json"))) > 4
        for g in graphs:
            assert render(g, "json") == reference_json(g)


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's `bench/workloads.py`, loaded read-only."""
    spec = importlib.util.spec_from_file_location("groundsub_bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_exports_match_the_benchmark_digests(workloads):
    # Every build the benchmark checks, run in-process: the same per-step
    # counts and the same export bytes as its committed expected.json.
    expected = workloads.load_expected()["build"]
    assert len(expected) == 9
    for key, record in expected.items():
        program, spec = key.split("@")
        depth, fmt = spec.split(".")
        trace = run(parse_declarations(workloads.declarations(program)), int(depth))
        assert [list(s) for s in trace.stats] == record["steps"], key
        text = render(trace.last.graph, fmt)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == record["sha256"], key


def test_the_written_file_is_the_rendered_text(workloads, tmp_path, capsys):
    # `build` writes the chunks itself; the file must still hold exactly the
    # text `render` returns, with the benchmark's digests.
    builds = []
    for key, record in workloads.load_expected()["build"].items():
        program, spec = key.split("@")
        depth, fmt = spec.split(".")
        builds.append((key, workloads.declarations(program), int(depth), fmt, record["sha256"]))
    assert len(builds) == 9
    builds += [(name, source, 3, fmt, None) for name, source in CORPUS.items() for fmt in FORMATS]
    for name, source, depth, fmt, sha256 in builds:
        decls, out = tmp_path / "program.decls", tmp_path / f"out.{fmt}"
        decls.write_text(source, encoding="utf-8")
        argv = ["build", "--decls", str(decls), "--iterations", str(depth), "--format", fmt]
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        written = out.read_bytes()
        if sha256 is not None:
            assert hashlib.sha256(written).hexdigest() == sha256, name
        text = render(run(parse_declarations(source), depth).last.graph, fmt)
        assert written == text.encode("utf-8"), (name, fmt)


@pytest.mark.parametrize("program, fmt", [("two_generics", "json"), ("passthrough", "graphml")])
def test_build_never_holds_the_whole_text(tmp_path, capsys, monkeypatch, program, fmt):
    # Each chunk is one block of vertices or of their out-edges: S_5 has
    # 4,148 vertices, so no chunk comes near the 1.4-1.6 MB file.  And each
    # chunk is in the file, but for what the file object buffers, before
    # the next one is made.
    import groundsub.cli as cli_module

    sizes, lags, chunks = [], [], cli_module.chunks
    decls, out = tmp_path / "program.decls", tmp_path / f"s5.{fmt}"

    def recorded(g, fmt):
        for chunk in chunks(g, fmt):
            sizes.append(len(chunk))
            yield chunk
            lags.append(sum(sizes) - out.stat().st_size)

    monkeypatch.setattr(cli_module, "chunks", recorded)
    decls.write_text(CORPUS[program], encoding="utf-8")
    argv = ["build", "--decls", str(decls), "--iterations", "5", "--format", fmt]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("5 4148 ")
    assert sum(sizes) == out.stat().st_size > 1_000_000
    assert len(sizes) > 1 and max(sizes) <= out.stat().st_size // 4
    assert len(lags) == len(sizes) and max(lags) < max(sizes)


# Argvs on which `main`'s routing and the top-level parser must agree.
ROUTED_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["--decls", "f", "query"],
    ["--", "query", "--decls", "f", "A", "B"],
    ["--help", "query"],
    *([command, "--help"] for command in ("build", "query", "stats", "selfcheck")),
    ["query", "-h"],
    ["query", "--help=x"],
    ["build"],
    ["selfcheck"],
    ["query", "--decls"],
    ["query", "--decls", "f", "A"],
    ["stats", "--decls", "f"],
    ["query", "--decls", "f", "A", "B", "C"],
    ["stats", "--decls", "f", "--iterations", "1", "extra"],
    ["stats", "--decls", "f", "--iterations", "x"],
    ["build", "--decls", "f", "--iterations", "1", "--format", "png", "--out", "o"],
    ["query", "--decls", "f", "A", "B"],
    ["query", "--decls=f", "A", "B"],
    ["stats", "--dec", "f", "--it", "2"],
    ["stats", "--d", "f", "--iterations", "2"],
    ["stats", "--decls", "f", "--decls", "g", "--iterations", "1"],
    ["query", "--decls", "f", "--", "A", "B"],
    ["query", "--", "--decls", "f", "A", "B"],
    ["query", "--decls", "f", "-A", "B"],
    ["query", "--decls", "f", "--", "-A", "B"],
    ["query", "--decls", "f", "-1", "B"],
    ["query", "A", "B", "--decls", "f"],
    ["query", "A", "--decls", "f", "B"],
    ["build", "--out", "o", "--format", "json", "--iterations", "2", "--decls", "f"],
    ["selfcheck", "--max-rank", "2", "--decls", "f", "--max-rank", "3"],
]


@pytest.fixture
def decls_path(tmp_path):
    path = tmp_path / "program.decls"
    path.write_text(CORPUS["one_generic"] + "\n", encoding="utf-8")
    return path


class TestCli:
    def test_build_writes_graph_and_prints_stats(self, decls_path, tmp_path, capsys):
        out = tmp_path / "graph.dot"
        code = main(
            ["build", "--decls", str(decls_path), "--iterations", "2",
             "--format", "dot", "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["1 3 2", "2 8 10"]
        nodes, _ = dot_multisets(out.read_text(encoding="utf-8"))
        assert len(nodes) == 8

    def test_build_single_iteration_json(self, decls_path, tmp_path, capsys):
        out = tmp_path / "graph.json"
        code = main(
            ["build", "--decls", str(decls_path), "--iterations", "1",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["vertices"]) == 3
        assert len(payload["edges"]) == 2

    def test_build_without_generics_reproduces_subclassing(self, tmp_path, capsys):
        decls = tmp_path / "plain.decls"
        decls.write_text(ALL_PLAIN_SOURCE, encoding="utf-8")
        out = tmp_path / "plain.json"
        code = main(
            ["build", "--decls", str(decls), "--iterations", "1",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        table = parse_declarations(ALL_PLAIN_SOURCE)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload["vertices"]) == set(table.classes)
        assert {(e["from"], e["to"]) for e in payload["edges"]} == set(table.extends_edges)

    def test_build_is_byte_deterministic(self, decls_path, tmp_path, capsys):
        outputs = []
        for name in ("a.graphml", "b.graphml"):
            out = tmp_path / name
            assert main(
                ["build", "--decls", str(decls_path), "--iterations", "2",
                 "--format", "graphml", "--out", str(out)]
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_query_agreement(self, tmp_path, capsys):
        decls = tmp_path / "numbers.decls"
        decls.write_text(
            "class Number {}\nclass Integer extends Number {}\nclass List<T> {}\n",
            encoding="utf-8",
        )
        code = main(
            ["query", "--decls", str(decls),
             "List<? extends Integer>", "List<? extends Number>"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["graph: true", "oracle: true"]

        code = main(["query", "--decls", str(decls), "List<Integer>", "List<Number>"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["graph: false", "oracle: false"]

    def test_query_bottom_under_nested_type(self, decls_path, capsys):
        code = main(["query", "--decls", str(decls_path), "N", "C<? <: C<?>>"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["graph: true", "oracle: true"]

    def test_stats_command(self, decls_path, capsys):
        assert main(["stats", "--decls", str(decls_path), "--iterations", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1 3 2", "2 8 10", "3 23 41"]

    def test_selfcheck_passes(self, decls_path, capsys):
        assert main(["selfcheck", "--decls", str(decls_path), "--max-rank", "3"]) == 0
        out = capsys.readouterr().out
        assert "529 ordered pairs over 23 types" in out

    def test_parse_error_exits_one(self, tmp_path, capsys):
        decls = tmp_path / "bad.decls"
        decls.write_text("class {}", encoding="utf-8")
        assert main(["stats", "--decls", str(decls), "--iterations", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_declarations_exit_one(self, tmp_path, capsys):
        decls = tmp_path / "latin1.decls"
        decls.write_bytes(b"class C\xff {}")
        assert main(["stats", "--decls", str(decls), "--iterations", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err
        assert err.count("\n") == 1

    def test_deeply_nested_type_exits_one(self, decls_path, capsys):
        deep = "C<" * 500 + "?" + ">" * 500
        assert main(["query", "--decls", str(decls_path), deep, "O"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested deeper" in err
        assert err.count("\n") == 1

    def test_oversized_query_exits_one_before_building(self, decls_path, capsys, monkeypatch):
        # Under a limit of 2 vertices, N's covers in S_2, one per vertex of
        # S_1, are refused before they are listed, and the downward side's
        # first vertex would pass the limit: the first refusal is reported.
        import groundsub.builder as builder_module

        def refuse(*args, **kwargs):
            pytest.fail("built a graph although the predicted size is over the limit")

        monkeypatch.setattr(builder_module, "partial_product", refuse)
        monkeypatch.setattr(builder_module, "MAX_VERTICES", 2)
        assert main(["query", "--decls", str(decls_path), "N", "C<? <: C<?>>"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: approximation 1 would have 3 vertices, over the limit of 2\n"
        assert "Traceback" not in captured.err

    def test_query_past_an_oversized_enumeration_answers(self, decls_path, capsys, monkeypatch):
        # In S_13 of one generic class, N's covers are C<t> for every t of
        # S_12, which has 442,868 vertices: the upward side stops there.
        # The downward side reaches N from the exact argument below the
        # lower-bounded one.
        import groundsub.builder as builder_module

        def refuse(*args, **kwargs):
            pytest.fail("built a graph to answer a query")

        monkeypatch.setattr(builder_module, "partial_product", refuse)
        deep = "C<? :> " + "C<" * 12 + "?" + ">" * 13
        assert main(["query", "--decls", str(decls_path), "N", deep]) == 0
        assert capsys.readouterr().out.splitlines() == ["graph: true", "oracle: true"]

    def test_deep_two_generic_query_answers(self, tmp_path, capsys, monkeypatch):
        # The first step up from C<? :> C<?>> in S_9 lists C<? :> u> for
        # each of the 49,768 covers u of N in S_7, and the upward search
        # alone visited most of S_8.  The downward side below the exact
        # D<…> runs out at N.
        import groundsub.builder as builder_module

        def refuse(*args, **kwargs):
            pytest.fail("built an approximation to answer a query")

        monkeypatch.setattr(builder_module, "partial_product", refuse)
        decls = tmp_path / "two.decls"
        decls.write_text(CORPUS["two_generics"], encoding="utf-8")
        deep = "D<" * 8 + "C<?>" + ">" * 8
        started = time.perf_counter()
        assert main(["query", "--decls", str(decls), "C<? :> C<?>>", deep]) == 0
        assert time.perf_counter() - started < 5
        assert capsys.readouterr().out.splitlines() == ["graph: false", "oracle: false"]

    def test_query_past_the_search_budget_exits_one(self, decls_path, capsys, monkeypatch):
        # The downward side stops first, holding 31 of the 100 vertices, and
        # gives them back; the upward side then passes the limit alone, as
        # the upward search does.
        import groundsub.builder as builder_module

        def refuse(*args, **kwargs):
            pytest.fail("built an approximation to answer a query")

        monkeypatch.setattr(builder_module, "partial_product", refuse)
        monkeypatch.setattr(builder_module, "MAX_VERTICES", 100)
        deep = "C<? :> C<C<? :> C<? <: C<C<?>>>>>>"
        assert main(["query", "--decls", str(decls_path), "C<N>", deep]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the search between C<N> and {deep} in approximation 6 "
            "passed the limit of 100 vertices\n"
        )
        assert "Traceback" not in captured.err

    def test_rank_twenty_query_answers(self, decls_path, capsys):
        deep = "C<" * 20 + "?" + ">" * 20
        bound = "C<? extends " + "C<" * 19 + "?" + ">" * 20
        assert main(["query", "--decls", str(decls_path), deep, bound]) == 0
        assert capsys.readouterr().out.splitlines() == ["graph: true", "oracle: true"]

    def test_query_builds_nothing(self, tmp_path, capsys, monkeypatch, workloads):
        # The benchmark's query streams for seeds 1-3 cover every corpus
        # program; each query must print exactly the verdicts it expects.
        import groundsub.builder as builder_module
        import groundsub.digraph as digraph_module

        def refuse(*args, **kwargs):
            pytest.fail("built an approximation to answer a query")

        def refuse_graph(*args, **kwargs):
            pytest.fail("built a graph, the class graph included, to answer a query")

        for name in ("run", "partial_product", "wildcards_graph"):
            monkeypatch.setattr(builder_module, name, refuse)
        monkeypatch.setattr(digraph_module.LabeledDigraph, "__post_init__", refuse_graph)
        workloads.write_declarations(tmp_path, workloads.QUERY_PROGRAMS)
        for seed in (1, 2, 3):
            ops = workloads.make_ops("query-stream", seed)
            assert {op.program for op in ops} == set(CORPUS)
            for op in ops:
                code = main(op.argv(tmp_path))
                captured = capsys.readouterr()
                assert op.check(code, captured.out, tmp_path) == [], (seed, op)
                assert captured.err == ""

    def test_selfcheck_without_generics_stops_at_the_fixed_point(self, tmp_path, capsys):
        decls = tmp_path / "plain.decls"
        decls.write_text(ALL_PLAIN_SOURCE, encoding="utf-8")
        # 10**20 is past sys.maxsize.
        for max_rank in ("1000000000", "100000000000000000000"):
            assert main(["selfcheck", "--decls", str(decls), "--max-rank", max_rank]) == 0
            captured = capsys.readouterr()
            assert captured.out.startswith("checked 36 ordered pairs over 6 types")
            assert "Traceback" not in captured.err

    def test_iterations_past_sys_maxsize(self, decls_path, tmp_path, capsys, monkeypatch):
        import groundsub.builder as builder_module

        huge = "100000000000000000000"
        plain = tmp_path / "plain.decls"
        plain.write_text(ALL_PLAIN_SOURCE, encoding="utf-8")
        assert main(["stats", "--decls", str(plain), "--iterations", huge]) == 0
        assert capsys.readouterr().out.startswith("1 6 ")

        def refuse(*args, **kwargs):
            pytest.fail("built a graph although the predicted size is over the limit")

        monkeypatch.setattr(builder_module, "partial_product", refuse)
        out = str(tmp_path / "graph.json")
        for command in (["stats"], ["build", "--format", "json", "--out", out]):
            assert main([*command, "--decls", str(decls_path), "--iterations", huge]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "approximation 12 would have 442868" in err
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_oversized_selfcheck_exits_one_before_building(self, tmp_path, capsys, monkeypatch):
        # `run` refuses an approximation past `MAX_VERTICES` before it builds
        # or the check enumerates anything: three generic classes have
        # 243,578 types of rank at most 6.
        import groundsub.builder as builder_module
        import groundsub.rules as rules_module

        def refuse(*args, **kwargs):
            pytest.fail("built or enumerated although the predicted size is over the limit")

        monkeypatch.setattr(builder_module, "partial_product", refuse)
        monkeypatch.setattr(rules_module, "enumerate_types", refuse)
        monkeypatch.setattr(rules_module._Rules, "layers", refuse)
        decls = tmp_path / "three.decls"
        decls.write_text(THREE_GENERICS, encoding="utf-8")
        one = tmp_path / "one.decls"
        one.write_text("class C<T> {}\n", encoding="utf-8")
        # 10**20 is past sys.maxsize.
        for path, max_rank, expected in (
            (decls, "6", "approximation 6 would have 243578 vertices"),
            (one, "100000000000000000000", "approximation 12 would have 442868 vertices"),
        ):
            assert main(["selfcheck", "--decls", str(path), "--max-rank", max_rank]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and expected in err
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_selfcheck_over_the_pair_limit_exits_one_before_the_last_row(
        self, decls_path, capsys, monkeypatch
    ):
        # One generic class has 68 types up to rank 4 and 670 true pairs.
        # Each row is listed by one call of `_Rules.above` at the full rank;
        # the count is predicted from the table, so no row is listed.
        import groundsub.rules as rules_module

        rows = []
        real = rules_module._Rules.above

        def spy(self, s, k):
            if k == 4:
                rows.append(s)
            return real(self, s, k)

        monkeypatch.setattr(rules_module._Rules, "above", spy)
        monkeypatch.setattr(rules_module, "MAX_PAIRS", 100)
        assert main(["selfcheck", "--decls", str(decls_path), "--max-rank", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the types up to rank 4 have over the limit of 100 true pairs\n"
        )
        assert rows == []

    def test_selfcheck_refuses_a_graph_off_the_rank_law(self, tmp_path, capsys, monkeypatch):
        # S_2 with one vertex renamed no longer holds exactly the types of
        # rank at most 2.  The row of `B<N>` comes before that of `D<N>` and
        # reaches it, so without the law it would meet a label it cannot place.
        import dataclasses
        from types import SimpleNamespace

        import groundsub.builder as builder_module

        source = "class D<T> {}\nclass B<T> extends D<T> {}\n"
        real = run(parse_declarations(source), 2)
        renamed = relabeled(real.graphs[1].graph, lambda v: "X" if v == "D<N>" else v)
        trace = dataclasses.replace(real, graphs=(real.graphs[0], SimpleNamespace(graph=renamed)))
        monkeypatch.setattr(builder_module, "run", lambda table, iterations: trace)
        decls = tmp_path / "sub.decls"
        decls.write_text(source, encoding="utf-8")
        assert main(["selfcheck", "--decls", str(decls), "--max-rank", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: approximation 2 does not hold the types of rank at most 2\n"
        )

    def test_selfcheck_of_three_generics_at_rank_five(self, tmp_path, capsys):
        # 27,065 types and 457,272 true pairs, under the pair limit.
        decls = tmp_path / "three.decls"
        decls.write_text(THREE_GENERICS, encoding="utf-8")
        assert main(["selfcheck", "--decls", str(decls), "--max-rank", "5"]) == 0
        assert capsys.readouterr().out == (
            "checked 732514225 ordered pairs over 27065 types (max rank 5)\n"
        )

    def test_shared_parser_carries_nothing_between_calls(self, decls_path, tmp_path, capsys):
        # One process, many commands: each must print and exit as it does
        # when it is the only command the process runs.
        assert _build_parser() is _build_parser()
        query = ["query", "--decls", str(decls_path), "C<? <: C<?>>", "O"]
        argvs = [
            ["query", "--decls", str(decls_path), "N"],
            query,
            ["stats", "--decls", str(decls_path), "--iterations", "2"],
            ["build", "--decls", str(decls_path), "--iterations", "2",
             "--format", "graphml", "--out", str(tmp_path / "graph.graphml")],
            query,
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(groundsub.__file__).parents[1])}
        results = []
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
            alone = subprocess.run(
                [sys.executable, "-m", "groundsub", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert results[-1] == (alone.returncode, alone.stdout, alone.stderr), argv
        code, out, err = results[0]
        assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert results[1] == results[4] == (0, "graph: true\noracle: true\n", "")

    @pytest.mark.parametrize("argv", ROUTED_ARGVS, ids=lambda argv: " ".join(argv) or "no argv")
    def test_routing_parses_as_the_top_level_parser(self, argv, capsys, monkeypatch):
        # `main` hands an argv that starts with a command straight to that
        # command's parser; each must end as the top-level parser ends it.
        import groundsub.cli as cli_module

        parsed = []
        for name in list(cli_module._COMMANDS):
            monkeypatch.setitem(cli_module._COMMANDS, name, lambda args: parsed.append(args) or 0)

        def routed():
            return parsed.pop() if main(argv) == 0 else 1

        def top_level():
            try:
                return _build_parser().parse_args(argv)
            except _UsageError as err:
                print(f"error: {err}", file=sys.stderr)
                return 1

        outcomes = []
        for parse in (routed, top_level):
            try:
                result = parse()
            except SystemExit as exit_info:
                result = ("exit", exit_info.code)
            outcomes.append((result, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert not parsed

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--decls", "{decls}", "C<?>", "O"],
            ["stats", "--decls", "{decls}", "--iterations", "1"],
            ["selfcheck", "--decls", "{decls}", "--max-rank", "1"],
            ["build", "--decls", "{decls}", "--iterations", "1", "--format", "json",
             "--out", "{out}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_command_runs_one_parse(self, argv, decls_path, tmp_path, capsys, monkeypatch):
        import groundsub.cli as cli_module

        parses = []
        parse_known_args = cli_module._Parser.parse_known_args

        def counted(parser, *args, **kwargs):
            parses.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(cli_module._Parser, "parse_known_args", counted)
        fields = {"decls": str(decls_path), "out": str(tmp_path / "graph.json")}
        assert main([arg.format(**fields) for arg in argv]) == 0
        assert parses == [f"groundsub {argv[0]}"]

    def test_decls_naming_a_directory_exits_one(self, tmp_path, capsys):
        assert main(["stats", "--decls", str(tmp_path), "--iterations", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "source, command, message",
        [
            ("klass C {}", ["stats", "--iterations", "1"], "expected 'class', found 'klass'"),
            ("class extends {}", ["stats", "--iterations", "1"], "'extends' is a keyword"),
            ("class C<class> {}", ["stats", "--iterations", "1"], "'class' cannot be a type"),
            ("class C<O> {}", ["stats", "--iterations", "1"], "'O' cannot be a type parameter"),
            ("class C extends class {}", ["stats", "--iterations", "1"], "'class' is a keyword"),
            (
                "class C {} class D extends C<T> {}",
                ["stats", "--iterations", "1"],
                "non-generic class 'D' cannot pass a type argument to 'C'",
            ),
            (CORPUS["one_generic"], ["query", "extends", "O"], "'extends' is a keyword"),
            (
                CORPUS["one_generic"],
                ["build", "--iterations", "0", "--format", "json", "--out", "unused.json"],
                "--iterations must be at least 1",
            ),
        ],
    )
    def test_bad_input_exits_one_with_one_error_line(
        self, tmp_path, capsys, source, command, message
    ):
        decls = tmp_path / "program.decls"
        decls.write_text(source, encoding="utf-8")
        assert main([command[0], "--decls", str(decls), *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_first_of_several_cycles_is_the_same_under_any_hash_seed(self, tmp_path):
        # The table keeps its edges in a set; the cycle check must still
        # walk the classes in declaration order.
        decls = tmp_path / "cycles.decls"
        cycles = (f"class A{i} extends B{i} {{}} class B{i} extends A{i} {{}}\n" for i in range(8))
        decls.write_text("".join(cycles), encoding="utf-8")
        stderrs = set()
        for seed in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONPATH": str(Path(groundsub.__file__).parents[1]),
                "PYTHONHASHSEED": seed,
            }
            done = subprocess.run(
                [sys.executable, "-m", "groundsub", "stats", "--decls", str(decls),
                 "--iterations", "1"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == 1
            stderrs.add(done.stderr)
        assert stderrs == {"error: inheritance cycle through 'A0'\n"}

    @pytest.mark.parametrize("out", ["missing/graph.json", "."])
    def test_unwritable_out_exits_one_with_one_error_line(self, decls_path, tmp_path, capsys, out):
        # A path into a missing directory, and a path that names a directory.
        argv = ["build", "--decls", str(decls_path), "--iterations", "2", "--format", "json"]
        assert main([*argv, "--out", str(tmp_path / out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not (tmp_path / "missing").exists()

    def test_refused_build_writes_no_file(self, decls_path, tmp_path, capsys, monkeypatch):
        # `--out` is opened only after `run` succeeds (the size-law case is
        # `test_builder.py::TestRun::test_size_law_of_each_step_is_checked`).
        import groundsub.builder as builder_module

        monkeypatch.setattr(builder_module, "MAX_VERTICES", 7)
        out = tmp_path / "graph.json"
        argv = ["build", "--decls", str(decls_path), "--iterations", "2", "--format", "json"]
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "over the limit of 7" in captured.err
        assert captured.err.count("\n") == 1 and not out.exists()

    def test_missing_file_exits_one(self, capsys):
        assert main(["stats", "--decls", "/nonexistent.decls", "--iterations", "1"]) == 1

    def test_usage_error_exits_one(self, capsys):
        assert main(["build"]) == 1
        assert main(["frobnicate"]) == 1

    def test_nonpositive_iterations_exit_one(self, decls_path, capsys):
        assert main(["stats", "--decls", str(decls_path), "--iterations", "0"]) == 1
        assert main(["selfcheck", "--decls", str(decls_path), "--max-rank", "0"]) == 1

    def test_query_disagreement_exits_two(self, decls_path, capsys, monkeypatch):
        # The deciders never actually disagree, so force one verdict to flip
        # to pin down the exit-code contract.
        import groundsub.cli as cli_module

        monkeypatch.setattr(cli_module, "is_subtype", lambda *_: False)
        assert main(["query", "--decls", str(decls_path), "N", "O"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out == ["graph: true", "oracle: false"]

    def test_selfcheck_mismatch_exits_two(self, decls_path, capsys, monkeypatch):
        from groundsub import DifferentialReport, Mismatch
        import groundsub.cli as cli_module

        fake = DifferentialReport(1, 3, (Mismatch("N", "O", True, False),))
        monkeypatch.setattr(cli_module, "differential_check", lambda *_: fake)
        assert main(["selfcheck", "--decls", str(decls_path), "--max-rank", "1"]) == 2
        assert "mismatch: N <: O" in capsys.readouterr().out


@pytest.fixture
def collections():
    """The collections the cyclic garbage collector starts, as a list that
    the test may clear; the collector's own setting is restored after."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.callbacks.append(record)
    try:
        yield started
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    """`main` runs each command with the cyclic collector paused, and what
    a command leaves behind is freed by reference counting alone."""

    @staticmethod
    def commands(tmp_path):
        for name, source in CORPUS.items():
            decls = tmp_path / f"{name}.decls"
            decls.write_text(source, encoding="utf-8")
            top, *_, last = run(parse_declarations(source), 2).last.graph.sorted_vertices
            for fmt in FORMATS:
                yield ["build", "--decls", str(decls), "--iterations", "3",
                       "--format", fmt, "--out", str(tmp_path / f"{name}.{fmt}")]
            yield ["stats", "--decls", str(decls), "--iterations", "3"]
            yield ["selfcheck", "--decls", str(decls), "--max-rank", "3"]
            yield ["query", "--decls", str(decls), last, top]
        bad = tmp_path / "bad.decls"
        bad.write_text("class {}", encoding="utf-8")
        yield ["build"]
        yield ["stats", "--decls", str(bad), "--iterations", "1"]
        yield ["stats", "--decls", str(tmp_path / "missing.decls"), "--iterations", "1"]

    def assert_paused_and_clean(self, argv, collections, capsys):
        gc.enable()
        gc.collect()
        collections.clear()
        code = main(argv)
        assert collections == [], argv
        assert gc.isenabled(), argv
        assert gc.collect() == 0, argv
        return code, capsys.readouterr()

    def test_every_command_runs_without_a_collection(self, tmp_path, collections, capsys):
        _build_parser()
        codes = [
            self.assert_paused_and_clean(argv, collections, capsys)[0]
            for argv in self.commands(tmp_path)
        ]
        assert codes == [0] * (len(codes) - 3) + [1, 1, 1]

    def test_a_size_limit_error_leaves_no_garbage(
        self, decls_path, collections, capsys, monkeypatch
    ):
        import groundsub.builder as builder_module

        _build_parser()
        monkeypatch.setattr(builder_module, "MAX_VERTICES", 7)
        argv = ["stats", "--decls", str(decls_path), "--iterations", "2"]
        code, captured = self.assert_paused_and_clean(argv, collections, capsys)
        assert code == 1 and "over the limit of 7" in captured.err

    def test_a_caller_that_paused_the_collector_keeps_it_paused(
        self, decls_path, collections, capsys
    ):
        gc.disable()
        assert main(["stats", "--decls", str(decls_path), "--iterations", "2"]) == 0
        assert main(["build"]) == 1
        assert not gc.isenabled()

    def test_help_restores_the_collector(self, collections, capsys):
        gc.enable()
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert gc.isenabled()
        assert capsys.readouterr().out.startswith("usage: groundsub")

    def test_an_escaping_exception_restores_the_collector(
        self, decls_path, collections, monkeypatch
    ):
        import groundsub.cli as cli_module

        def crash(args):
            raise RuntimeError("crashed")

        monkeypatch.setitem(cli_module._COMMANDS, "stats", crash)
        gc.enable()
        with pytest.raises(RuntimeError, match="crashed"):
            main(["stats", "--decls", str(decls_path), "--iterations", "1"])
        assert gc.isenabled()
