"""One workload in one fresh process: set up, time passes, check outputs.

Started by `run.py`, never by hand.  Every operation is one call of
`groundsub.cli.main` with the argv a user would type; its standard output
is captured in memory and `build` writes into a temporary directory inside
the checkout.  The last line of standard output is one JSON object: the
monotonic clock reading at which set-up ended, and, unless `--setup-only`,
the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_tmp"
sys.path.insert(0, str(ROOT / "src"))

import groundsub  # noqa: E402
from groundsub import cli  # noqa: E402

from speed import NOMINAL_S, SpeedLog, reference_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import PROGRAMS, WORKLOADS, Selfcheck, make_ops, write_declarations  # noqa: E402

if Path(groundsub.__file__).resolve().parent != ROOT / "src" / "groundsub":
    raise SystemExit(f"groundsub was imported from {groundsub.__file__}, not from {ROOT / 'src'}")


@dataclass
class Pass:
    """One pass over the operation list: raw and calibrated seconds per
    operation, and the problems its output checks found."""

    seconds: list[float]
    calibrated: list[float]
    problems: list[list[str]]


def run_pass(ops, workdir: Path, speed: SpeedLog | None) -> Pass:
    """Run every operation once.

    With a SpeedLog, the reference work is timed throughout the pass and the
    operations' times are calibrated; without one they are left raw.
    """
    spans: list[tuple[float, float]] = []
    problems: list[list[str]] = []
    gc.collect()
    if speed is not None:
        speed.sample()
    with contextlib.nullcontext() if speed is None else speed.sampling():
        for op in ops:
            argv = op.argv(workdir)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a crash is a failed operation, not the end of the run
                    code = f"{type(exc).__name__}: {exc}"
                spans.append((start, time.perf_counter()))
            found = op.check(code, out.getvalue(), workdir)
            if err.getvalue():
                found.append(f"stderr: {err.getvalue().strip()[:200]}")
            problems.append(found)
    if speed is None:
        seconds = [end - start for start, end in spans]
        return Pass(seconds, seconds, problems)
    speed.sample()
    seconds = [speed.own_seconds(start, end) for start, end in spans]
    calibrated = [t * speed.factor(*span) for t, span in zip(seconds, spans)]
    return Pass(seconds, calibrated, problems)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def latency_metrics(passes: list[Pass], field: str) -> dict[str, float]:
    """`wall_s` and the latency percentiles, from one field of the passes.

    Each operation's latency is its median over the passes, which sample
    the machine at different moments; `wall_s` is one pass with every
    operation at that median.  Over the operations, the p50 is their median
    and the p95 is taken by nearest rank.
    """
    runs = [getattr(p, field) for p in passes]
    per_op = [statistics.median(run[i] for run in runs) for i in range(len(runs[0]))]
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_p95_ms": 1000 * nearest_rank(per_op, 0.95),
    }


def measure(ops, workdir: Path, seconds: float, trace: bool) -> dict:
    """Time passes over `ops` and summarise them.

    Untraced, passes repeat until `seconds` have gone by (at least one) and
    the timing metrics are calibrated (see speed.py); the raw figures go to
    the record.  Traced, the traced pass sits between two untraced ones,
    none of them interrupted for calibration; the per-layer times are raw,
    and the tracing overhead is the traced pass's wall time less the mean of
    the untraced ones, which cancels a steady drift of the machine's speed.
    """
    speed = None if trace else SpeedLog()
    passes: list[Pass] = []
    if trace:
        passes.append(run_pass(ops, workdir, None))
        with Tracer() as tracer:
            passes.append(run_pass(ops, workdir, None))
        passes.append(run_pass(ops, workdir, None))
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(ops, workdir, speed))

    walls = [sum(p.seconds) for p in passes]
    failures = [found for p in passes for found in p.problems if found]
    attempted = len(ops) * len(passes)
    record = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "pass_wall_s": walls,
        "fail_ratio": len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": failures[:5],
    }
    if trace:
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = walls[1]
        metrics["trace.overhead_s"] = walls[1] - (walls[0] + walls[2]) / 2
    else:
        metrics = latency_metrics(passes, "calibrated")
        metrics["peak_rss_mb"] = record["peak_rss_mb"]
        record["speed_factors"] = [NOMINAL_S / r for _, _, r in speed.samples]
        record["raw"] = latency_metrics(passes, "seconds")
        if all(isinstance(op, Selfcheck) for op in ops):
            record["pairs_per_s"] = sum(op.pairs for op in ops) / record["raw"]["wall_s"]
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        workdir = Path(tmp)
        write_declarations(workdir, PROGRAMS)
        ops = make_ops(args.workload, args.seed, args.tiny)
        ready = time.monotonic()
        result = {"ready": ready, "ready_reference_s": reference_seconds()}
        if not args.setup_only:
            result.update(measure(ops, workdir, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
