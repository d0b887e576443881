"""Serializers and the command-line frontend."""

from __future__ import annotations

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
    to_dot,
    to_graphml,
    to_json,
)
from groundsub.cli import _build_parser, main
from groundsub.export import FORMATS

from conftest import ALL_PLAIN_SOURCE, CORPUS
from oracles import reference_json

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
        payload = json.loads(to_json(first_graph))
        assert payload["vertices"] == ["C<?>", "N", "O"]
        assert payload["edges"] == [
            {"from": "C<?>", "to": "O", "tag": "inherit"},
            {"from": "N", "to": "C<?>", "tag": "inherit"},
        ]

    def test_dot_colors_variance_edges(self, second_graph):
        text = to_dot(second_graph)
        assert '"C<? <: C<?>>" -> "C<?>" [color=green];' in text
        assert '"C<? :> C<?>>" -> "C<?>" [color=red];' in text
        assert '"C<?>" -> "O";' in text
        assert "rankdir=BT" in text

    def test_formats_agree_on_vertex_and_edge_sets(self, second_graph):
        payload = json.loads(to_json(second_graph))
        json_nodes = set(payload["vertices"])
        json_edges = {(e["from"], e["to"]) for e in payload["edges"]}
        assert dot_multisets(to_dot(second_graph)) == (json_nodes, json_edges)
        assert graphml_multisets(to_graphml(second_graph)) == (json_nodes, json_edges)

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
        assert to_json(graph).encode("utf-8") == reference_json(graph).encode("utf-8")

    def test_json_bytes_equal_json_dumps_on_the_corpus(self, traces):
        for trace in traces.values():
            for s in trace.graphs:
                assert to_json(s.graph) == reference_json(s.graph)

    def test_graphml_escapes_like_saxutils(self):
        labels = ["a & b", "<tag>", "x > y", 'say "hi"', "it's", "&amp; <&>"]
        pairs = {("a & b", "<tag>"), ("<tag>", "it's")}
        graph = LabeledDigraph.from_edges(
            [(a, b, EdgeTag.INHERIT) for a, b in sorted(pairs)], vertices=labels
        )
        text = to_graphml(graph)
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
        # In S_13 of one generic class, N's covers are C<t> for every t of
        # S_12, which has 442,868 vertices.
        import groundsub.builder as builder_module

        def refuse(*args, **kwargs):
            pytest.fail("built a graph although the predicted size is over the limit")

        monkeypatch.setattr(builder_module, "partial_product", refuse)
        deep = "C<? :> " + "C<" * 12 + "?" + ">" * 13
        assert main(["query", "--decls", str(decls_path), "N", deep]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "442868 vertices" in err
        assert err.count("\n") == 1

    def test_query_past_the_search_budget_exits_one(self, tmp_path, capsys, monkeypatch):
        # Most of S_8 of two generic classes lies above C<? :> C<?>> in S_9.
        import groundsub.builder as builder_module

        def refuse(*args, **kwargs):
            pytest.fail("built an approximation to answer a query")

        monkeypatch.setattr(builder_module, "partial_product", refuse)
        decls = tmp_path / "two.decls"
        decls.write_text(CORPUS["two_generics"], encoding="utf-8")
        deep = "D<" * 8 + "C<?>" + ">" * 8
        started = time.perf_counter()
        assert main(["query", "--decls", str(decls), "C<? :> C<?>>", deep]) == 1
        assert time.perf_counter() - started < 60
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and "passed the limit of 200000 vertices" in err
        assert err.count("\n") == 1 and "Traceback" not in err

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
        # Three generic classes have 27,065 types of rank at most 5.
        import groundsub.builder as builder_module
        import groundsub.rules as rules_module

        def refuse(*args, **kwargs):
            pytest.fail("built or enumerated although the predicted pair count is over the limit")

        monkeypatch.setattr(builder_module, "partial_product", refuse)
        monkeypatch.setattr(rules_module, "enumerate_types", refuse)
        monkeypatch.setattr(rules_module, "_layers", refuse)
        decls = tmp_path / "three.decls"
        decls.write_text("class A<T> {}\nclass B<T> {}\nclass C<T> {}\n", encoding="utf-8")
        one = tmp_path / "one.decls"
        one.write_text("class C<T> {}\n", encoding="utf-8")
        # 10**20 is past sys.maxsize; one generic class passes the limit at rank 8.
        for path, max_rank, expected in (
            (decls, "5", "rank 5 has 27065 types"),
            (one, "100000000000000000000", "rank 8 has 5468 types"),
        ):
            assert main(["selfcheck", "--decls", str(path), "--max-rank", max_rank]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and expected in err
            assert err.count("\n") == 1 and "Traceback" not in err

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
