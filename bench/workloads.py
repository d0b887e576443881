"""Programs, operations and output checks of the groundsub benchmark.

Everything the benchmark feeds the program, and everything it checks the
program's output against, is computed here from the benchmark's own data:
the class tables are restated as structured records, the ground types of a
program are enumerated by the benchmark's own helper, and the expected query
verdicts come from the benchmark's own reading of the subtyping rules.  A
change to `groundsub.rules` or `groundsub.typelang` therefore cannot change
the inputs or the expectations.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

TOP, BOTTOM = "O", "N"

# Each program is a tuple of (class, is_generic, superclass or None).  These
# are the corpus shapes of the test suite plus a program with three
# unrelated generic classes.
PROGRAMS: dict[str, tuple[tuple[str, bool, str | None], ...]] = {
    "one_generic": (("C", True, None),),
    "plain_and_generic": (("C", False, None), ("D", True, None)),
    "two_generics": (("C", True, None), ("D", True, None)),
    "passthrough": (("C", True, None), ("E", True, "C")),
    "mixed_hierarchy": (
        ("C", False, None),
        ("E", False, "C"),
        ("D", False, None),
        ("F", True, "D"),
    ),
    "three_generics": (("A", True, None), ("B", True, None), ("C", True, None)),
}

QUERY_PROGRAMS = (
    "one_generic",
    "plain_and_generic",
    "two_generics",
    "passthrough",
    "mixed_hierarchy",
)
QUERY_MAX_RANK = 4
QUERY_COUNT = 200

# The deepest step of each program that took about a second or more at the
# commit that introduced the benchmark, spread over the three export formats.
BUILD_DEEP = (
    ("one_generic", 7, "json"),
    ("plain_and_generic", 6, "dot"),
    ("two_generics", 5, "json"),
    ("passthrough", 5, "graphml"),
    ("mixed_hierarchy", 6, "dot"),
    ("three_generics", 4, "json"),
)
SELFCHECK = (("two_generics", 4), ("mixed_hierarchy", 5))

# Tiny variants of each workload, for the benchmark's own smoke tests.
BUILD_TINY = (
    ("one_generic", 3, "json"),
    ("two_generics", 2, "dot"),
    ("passthrough", 2, "graphml"),
)
SELFCHECK_TINY = (("one_generic", 2), ("mixed_hierarchy", 2))
QUERY_TINY_RANK = 2
QUERY_TINY_COUNT = 10

WORKLOADS = ("build-deep", "selfcheck", "query-stream")


def declarations(program: str) -> str:
    """Declaration-file text of a program."""
    generics = {name for name, generic, _ in PROGRAMS[program] if generic}
    lines = []
    for name, generic, sup in PROGRAMS[program]:
        param = "<T>" if generic else ""
        ext = ""
        if sup is not None:
            # A generic subclass of a generic class passes its parameter through.
            ext = f" extends {sup}<T>" if sup in generics else f" extends {sup}"
        lines.append(f"class {name}{param}{ext} {{}}")
    return "\n".join(lines) + "\n"


def decls_path(workdir: Path, program: str) -> Path:
    return workdir / f"{program}.decls"


def write_declarations(workdir: Path, programs) -> None:
    for program in programs:
        decls_path(workdir, program).write_text(declarations(program), encoding="utf-8")


def vertex_counts(program: str, depth: int) -> list[int]:
    """|S_1| .. |S_depth| from n_{k+1} = |plain| + |generic| * 3(n_k - 1).

    The plain classes include the implicit top and bottom.
    """
    generic = sum(1 for _, g, _ in PROGRAMS[program] if g)
    plain = len(PROGRAMS[program]) - generic + 2
    counts = [plain + generic]
    while len(counts) < depth:
        counts.append(plain + generic * 3 * (counts[-1] - 1))
    return counts


# ---------------------------------------------------------------------------
# Ground types, kept as nested tuples: (class,) for a plain class and
# (class, arg) for a generic one, where arg is "?" or (kind, bound) with kind
# one of "inv", "cov", "con".


def own_rank(t: tuple) -> int:
    """Construction step at which `t` first appears as a vertex."""
    if len(t) == 1:
        return 0
    arg = t[1]
    if arg == "?":
        return 1
    return 1 + max(own_rank(arg[1]), 1)


def own_types(program: str, max_rank: int) -> list[tuple]:
    """Every normalized ground type of `program` with rank <= `max_rank`.

    Corner arguments are never generated: `? <: O` and `? :> N` are the
    default wildcard, and `? <: N` and `? :> O` are the exact N and O.
    """
    classes = PROGRAMS[program]
    plain = [(TOP,), (BOTTOM,)] + [(n,) for n, g, _ in classes if not g]
    generics = [n for n, g, _ in classes if g]
    types = list(plain)
    if max_rank >= 1:
        types += [(g, "?") for g in generics]
    for _ in range(2, max_rank + 1):
        args = [("inv", t) for t in types]
        args += [(k, t) for t in types if t not in ((TOP,), (BOTTOM,)) for k in ("cov", "con")]
        known = set(types)
        types += [x for x in ((g, a) for g in generics for a in args) if x not in known]
    return types


def _superclass(program: str, name: str) -> str:
    for cls, _, sup in PROGRAMS[program]:
        if cls == name:
            return sup or TOP
    raise KeyError(name)


def _inherits(program: str, sub: str, sup: str) -> bool:
    if sub in (sup, BOTTOM):
        return True
    if sup == BOTTOM:
        return False
    while sub != TOP:
        sub = _superclass(program, sub)
        if sub == sup:
            return True
    return False


def _contains(program: str, inner, outer) -> bool:
    if inner == outer or outer == "?":
        return True
    kind, bound = outer
    if kind == "inv" or inner == "?":
        return False
    inner_kind, other = inner
    if kind == "cov" and inner_kind in ("cov", "inv"):
        return own_subtype(program, other, bound)
    if kind == "con" and inner_kind in ("con", "inv"):
        return own_subtype(program, bound, other)
    return False


def own_subtype(program: str, t1: tuple, t2: tuple) -> bool:
    """The expected verdict for `t1 <: t2`, from the paper's rules."""
    if t1 == t2 or t1 == (BOTTOM,) or t2 == (TOP,):
        return True
    if not _inherits(program, t1[0], t2[0]):
        return False
    if len(t2) == 1:
        return True
    if len(t1) == 1:
        return False
    return _contains(program, t1[1], t2[1])


def spell(t: tuple, rng: random.Random) -> str:
    """Print `t`, picking each alias and bound keyword at random."""
    name = t[0]
    if name == TOP:
        name = rng.choice(("O", "Object"))
    elif name == BOTTOM:
        name = rng.choice(("N", "Null"))
    if len(t) == 1:
        return name
    arg = t[1]
    if arg == "?":
        return f"{name}<?>"
    kind, bound = arg
    inner = spell(bound, rng)
    if kind == "cov":
        inner = f"? {rng.choice(('<:', 'extends'))} {inner}"
    elif kind == "con":
        inner = f"? {rng.choice((':>', 'super'))} {inner}"
    return f"{name}<{inner}>"


# ---------------------------------------------------------------------------
# Operations.  Each one is a command line of `groundsub` together with
# everything needed to check its output; `check` returns a list of problems,
# empty when the output is correct.


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class Build:
    program: str
    depth: int
    fmt: str
    sha256: str
    steps: tuple[tuple[int, int], ...]

    @property
    def key(self) -> str:
        return f"{self.program}@{self.depth}.{self.fmt}"

    def out_path(self, workdir: Path) -> Path:
        return workdir / f"out.{self.fmt}"

    def argv(self, workdir: Path) -> list[str]:
        return [
            "build", "--decls", str(decls_path(workdir, self.program)),
            "--iterations", str(self.depth), "--format", self.fmt,
            "--out", str(self.out_path(workdir)),
        ]

    def check(self, code: int | str, out: str, workdir: Path) -> list[str]:
        if code != 0:
            return [f"{self.key}: exit code {code}"]
        problems = []
        try:
            rows = [tuple(map(int, line.split())) for line in out.splitlines()]
            steps = tuple((v, e) for _, v, e in rows)
        except ValueError:
            return [f"{self.key}: unreadable step counts {out!r}"]
        if [k for k, _, _ in rows] != list(range(1, self.depth + 1)):
            problems.append(f"{self.key}: step numbers {[k for k, _, _ in rows]}")
        if [v for v, _ in steps] != vertex_counts(self.program, self.depth):
            problems.append(f"{self.key}: vertex counts off the recurrence: {steps}")
        if steps != self.steps:
            problems.append(f"{self.key}: steps {steps} != expected {self.steps}")
        if not self.out_path(workdir).is_file():
            return problems + [f"{self.key}: no export written"]
        digest = sha256_of(self.out_path(workdir))
        if digest != self.sha256:
            problems.append(f"{self.key}: export digest {digest} != expected {self.sha256}")
        return problems


_CHECKED = re.compile(r"checked (\d+) ordered pairs over (\d+) types \(max rank (\d+)\)")


@dataclass(frozen=True)
class Selfcheck:
    program: str
    max_rank: int

    @property
    def pairs(self) -> int:
        return vertex_counts(self.program, self.max_rank)[-1] ** 2

    def argv(self, workdir: Path) -> list[str]:
        return [
            "selfcheck", "--decls", str(decls_path(workdir, self.program)),
            "--max-rank", str(self.max_rank),
        ]

    def check(self, code: int | str, out: str, workdir: Path) -> list[str]:
        name = f"selfcheck {self.program}@{self.max_rank}"
        if code != 0:
            return [f"{name}: exit code {code} (graph and rules disagree when 2)"]
        types = vertex_counts(self.program, self.max_rank)[-1]
        want = f"checked {self.pairs} ordered pairs over {types} types (max rank {self.max_rank})"
        if out.strip() != want:
            found = _CHECKED.search(out)
            return [f"{name}: printed {found.group(0) if found else out!r}, expected {want!r}"]
        return []


@dataclass(frozen=True)
class Query:
    program: str
    left: str
    right: str
    expected: bool

    def argv(self, workdir: Path) -> list[str]:
        return ["query", "--decls", str(decls_path(workdir, self.program)), self.left, self.right]

    def check(self, code: int | str, out: str, workdir: Path) -> list[str]:
        name = f"query {self.program}: {self.left} <: {self.right}"
        verdict = str(self.expected).lower()
        want = f"graph: {verdict}\noracle: {verdict}\n"
        if code != 0 or out != want:
            return [f"{name}: exit code {code}, printed {out!r}, expected {want!r}"]
        return []


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def build_ops(specs, expected: dict) -> list[Build]:
    ops = []
    for program, depth, fmt in specs:
        record = expected["build"][f"{program}@{depth}.{fmt}"]
        ops.append(Build(program, depth, fmt, record["sha256"], tuple(map(tuple, record["steps"]))))
    return ops


def query_ops(rng: random.Random, count: int, max_rank: int) -> list[Query]:
    """A stream of `count` queries, in blocks that visit every program once.

    Each query's program is uniform over QUERY_PROGRAMS; drawing them in
    shuffled blocks keeps every program's share of the stream exact, so the
    latency percentiles do not move with how often the seed happened to pick
    the costliest program.  Both types are uniform over the program's types
    of rank <= `max_rank`.
    """
    types = {}
    for program in QUERY_PROGRAMS:
        types[program] = own_types(program, max_rank)
        if len(types[program]) != vertex_counts(program, max_rank)[-1] or any(
            own_rank(t) > max_rank for t in types[program]
        ):
            raise AssertionError(f"type enumeration of {program} is off the recurrence")
    ops: list[Query] = []
    while len(ops) < count:
        for program in rng.sample(QUERY_PROGRAMS, len(QUERY_PROGRAMS)):
            t1, t2 = rng.choice(types[program]), rng.choice(types[program])
            expected = own_subtype(program, t1, t2)
            ops.append(Query(program, spell(t1, rng), spell(t2, rng), expected))
    return ops[:count]


def make_ops(workload: str, seed: int, tiny: bool = False) -> list:
    """The fixed operation list of one workload for one seed."""
    rng = random.Random(seed)
    if workload == "build-deep":
        ops = build_ops(BUILD_TINY if tiny else BUILD_DEEP, load_expected())
    elif workload == "selfcheck":
        ops = [Selfcheck(p, r) for p, r in (SELFCHECK_TINY if tiny else SELFCHECK)]
    elif workload == "query-stream":
        if tiny:
            return query_ops(rng, QUERY_TINY_COUNT, QUERY_TINY_RANK)
        return query_ops(rng, QUERY_COUNT, QUERY_MAX_RANK)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(ops)
    return ops
