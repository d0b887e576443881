"""Write expected.json: the export digest and per-step counts of each build.

    python3 bench/record_expected.py

Run it only when a change is meant to alter the exported graphs; the
benchmark counts every build whose output differs from this file as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from worker import WORK_ROOT, cli
from workloads import (
    BUILD_DEEP,
    BUILD_TINY,
    EXPECTED_PATH,
    PROGRAMS,
    Build,
    sha256_of,
    write_declarations,
)


def main() -> int:
    builds = {}
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        workdir = Path(tmp)
        write_declarations(workdir, PROGRAMS)
        for program, depth, fmt in BUILD_DEEP + BUILD_TINY:
            op = Build(program, depth, fmt, "", ())
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(op.argv(workdir))
            if code != 0:
                print(f"error: {op.key} exited with {code}", file=sys.stderr)
                return 1
            steps = [[int(v), int(e)] for _, v, e in (line.split() for line in out.getvalue().splitlines())]
            builds[op.key] = {"sha256": sha256_of(op.out_path(workdir)), "steps": steps}
    rows = [f"  {json.dumps(key)}: {json.dumps(builds[key])}" for key in sorted(builds)]
    EXPECTED_PATH.write_text('{"build": {\n' + ",\n".join(rows) + "\n}}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
