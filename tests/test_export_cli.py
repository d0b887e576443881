"""Serializers and the command-line frontend."""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET

import pytest

from groundsub import parse_declarations, render, run, to_dot, to_graphml, to_json
from groundsub.cli import main

from conftest import ALL_PLAIN_SOURCE, CORPUS


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

    def test_unknown_format_is_rejected(self, first_graph):
        with pytest.raises(ValueError, match="unknown format"):
            render(first_graph, "svg")


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
        # A rank-12 query on one generic class needs 442,868 vertices.
        import groundsub.builder as builder_module

        def refuse(*args, **kwargs):
            pytest.fail("built a graph although the predicted size is over the limit")

        monkeypatch.setattr(builder_module, "partial_product", refuse)
        deep = "C<" * 12 + "?" + ">" * 12
        assert main(["query", "--decls", str(decls_path), deep, "O"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "442868 vertices" in err
        assert err.count("\n") == 1

    def test_selfcheck_without_generics_stops_at_the_fixed_point(self, tmp_path, capsys):
        decls = tmp_path / "plain.decls"
        decls.write_text(ALL_PLAIN_SOURCE, encoding="utf-8")
        assert main(["selfcheck", "--decls", str(decls), "--max-rank", "1000000000"]) == 0
        assert capsys.readouterr().out.startswith("checked 36 ordered pairs over 6 types")

    def test_oversized_selfcheck_exits_one_before_building(self, tmp_path, capsys, monkeypatch):
        # Three generic classes have 27,065 types of rank at most 5.
        import groundsub.builder as builder_module
        import groundsub.rules as rules_module

        def refuse(*args, **kwargs):
            pytest.fail("built or enumerated although the predicted pair count is over the limit")

        monkeypatch.setattr(builder_module, "partial_product", refuse)
        monkeypatch.setattr(rules_module, "enumerate_types", refuse)
        decls = tmp_path / "three.decls"
        decls.write_text("class A<T> {}\nclass B<T> {}\nclass C<T> {}\n", encoding="utf-8")
        assert main(["selfcheck", "--decls", str(decls), "--max-rank", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "27065 types" in err
        assert err.count("\n") == 1

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
