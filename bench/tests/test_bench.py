"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from groundsub import cli, is_subtype, parse_declarations, parse_ground_type, product  # noqa: E402
from groundsub.digraph import LabeledDigraph  # noqa: E402
from speed import NOMINAL_S, SpeedLog  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    PROGRAMS,
    QUERY_PROGRAMS,
    WORKLOADS,
    declarations,
    make_ops,
    own_rank,
    own_subtype,
    own_types,
    spell,
    vertex_counts,
    write_declarations,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def tiny_run(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    record, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert record["seed"] == 1 and record["workload"] == workload
    assert record["machine"]["nproc"] >= 1 and record["python"]
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    """Every count and ratio of the traced run is identical on a second run.

    Both runs also pass every output check, so each export matched its
    committed SHA-256 digest both times.
    """
    runs = [tiny_run(workload, 1, seed=5)[1] for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in run["metrics"].items() if m["unit"] != "s"}
        for run in runs
    ]
    assert counts[0] == counts[1]
    assert all(run["failed"] == 0 for run in runs)


def _measure(ops, tmp_path: Path) -> dict:
    write_declarations(tmp_path, PROGRAMS)
    return worker.measure(ops, tmp_path, seconds=0, trace=False)


def test_correct_expectations_pass(tmp_path):
    ops = make_ops("build-deep", 1, tiny=True) + make_ops("query-stream", 1, tiny=True)
    result = _measure(ops, tmp_path)
    assert result["failed"] == 0 and result["record"]["fail_ratio"] == 0


@pytest.mark.parametrize(
    "change",
    [{"sha256": "0" * 64}, {"steps": ((3, 2), (8, 10), (23, 40))}],
    ids=["digest", "edge-count"],
)
def test_wrong_build_expectation_is_a_failure(tmp_path, change):
    ops = make_ops("build-deep", 1, tiny=True)
    index = next(i for i, op in enumerate(ops) if op.program == "one_generic")
    ops[index] = dataclasses.replace(ops[index], **change)
    result = _measure(ops, tmp_path)
    assert result["failed"] == 1
    assert result["record"]["fail_ratio"] == pytest.approx(1 / len(ops))


def test_wrong_verdict_is_a_failure(tmp_path):
    ops = make_ops("query-stream", 1, tiny=True)
    ops[0] = dataclasses.replace(ops[0], expected=not ops[0].expected)
    result = _measure(ops, tmp_path)
    assert result["failed"] == 1 and result["record"]["fail_ratio"] > 0


def test_build_checks_the_recurrence():
    assert vertex_counts("one_generic", 4) == [3, 8, 23, 68]
    assert vertex_counts("two_generics", 5)[-1] == 4148
    assert vertex_counts("mixed_hierarchy", 5)[-1] ** 2 == 320_356


def test_generated_types_match_the_recurrence_and_the_rules():
    rng = random.Random(0)
    for program in QUERY_PROGRAMS:
        types = own_types(program, 3)
        assert len(types) == len(set(types)) == vertex_counts(program, 3)[-1]
        assert max(own_rank(t) for t in types) == 3
        table = parse_declarations(declarations(program))
        parsed = [parse_ground_type(spell(t, rng), table) for t in types]
        for t1, p1 in zip(types, parsed):
            for t2, p2 in zip(types, parsed):
                assert own_subtype(program, t1, t2) == is_subtype(p1, p2, table)


def test_tracer_restores_every_name():
    before = (cli.main, product.transitive_reduction, LabeledDigraph.__post_init__)
    with Tracer():
        assert cli.main is not before[0]
    assert (cli.main, product.transitive_reduction, LabeledDigraph.__post_init__) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "build-deep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_calibration_scales_by_the_samples_around_an_operation():
    log = SpeedLog()
    # (start, end, reference seconds): one sample before, two during, one after.
    log.samples = [(0.0, 0.1, 0.004), (1.0, 1.1, 0.006), (2.0, 2.1, 0.008), (4.0, 4.1, 0.006)]
    assert log.own_seconds(0.5, 3.0) == pytest.approx(2.5 - 0.2)
    assert log.factor(0.5, 3.0) == pytest.approx(NOMINAL_S / 0.006)
    assert log.factor(2.2, 2.3) == pytest.approx(NOMINAL_S / 0.007)
