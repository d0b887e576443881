"""Benchmark of groundsub: run one workload, check it, print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {build-deep,selfcheck,query-stream} \
        --seed N --seconds S --trace {0,1}

The workload runs in a fresh Python process (`worker.py`) on a single
thread.  With `--trace 0` the last line of standard output holds the
end-to-end metrics, times calibrated against the machine's speed (see
speed.py); `setup_s` is the median over several fresh processes of the time
from process start to the first timed operation.  With `--trace 1` it holds
the per-layer metrics of one traced pass.  The line before it is the run
record: machine, Python version, git commit, seed, the raw times and the
figures behind the metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
TIMEOUT_S = 150


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """The checked-out commit, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def start_worker(args, extra: list[str]) -> tuple[float, dict]:
    """Run one worker to completion; return its start time and its result."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        argv.append("--tiny")
    # String hashing, and so set and dict order, follows the seed, so a run
    # repeats exactly for one seed and varies across seeds.
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    started = time.monotonic()
    done = subprocess.run(
        argv + extra, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        text=True, timeout=TIMEOUT_S, check=True,
    )
    return started, json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(started: float, result: dict) -> tuple[float, float]:
    """Raw and calibrated seconds from process start to the first operation."""
    raw = result["ready"] - started
    return raw, raw * NOMINAL_S / result["ready_reference_s"]


def probe_setup(args) -> tuple[float, float]:
    return setup_seconds(*start_worker(args, ["--setup-only"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "groundsub" / "cli.py").is_file():
        print(f"error: no groundsub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Set-up is sampled before and after the measured process, so that its
    # median does not hang on one moment of a machine whose speed drifts.
    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = [probe_setup(args) for _ in range(probes)]
    started, result = start_worker(args, [])
    setups.append(setup_seconds(started, result))
    setups += [probe_setup(args) for _ in range(probes)]

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": statistics.median(cal for _, cal in setups), **metrics}
        result["record"]["raw"]["setup_s"] = statistics.median(raw for raw, _ in setups)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model()},
        "python": platform.python_version(),
        "commit": git_commit(),
        "hash_seed": args.seed % 2**32,
        "setup_samples_s": [raw for raw, _ in setups],
        **result["record"],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
