"""Command-line frontend.

Exit codes: 0 on success or agreement, 1 on usage or input errors, 2 when
the two subtyping deciders disagree.

Each command runs with the cyclic garbage collector paused, and `main`
restores the caller's setting: the construction, the search, the check and
the exporters make no reference cycles, so the collector would only scan
what reference counting frees anyway.  Library callers of `run` or
`differential_check` get the collector as they set it.  An argv that starts
with a command's name goes straight to that command's parser, so argparse
parses it once; any other argv goes to the top-level parser.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from .builder import run, subtype_by_graph
from .errors import GroundsubError, ParseError
from .export import FORMATS, chunks
from .export import render  # noqa: F401 - unused here; kept for bench/tracer.py only
from .rules import differential_check, is_subtype
from .typelang import parse_declarations, parse_ground_type


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: `parse_args` leaves the parser unchanged, and
    # building it costs more than a small `query`.  `--help` prints the
    # docstring without its last paragraph, the notes on the collector and routing.
    parser = _Parser(prog="groundsub", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    build = sub.add_parser("build", help="construct and export a subtyping graph")
    build.add_argument("--decls", required=True, help="path to a declarations file")
    build.add_argument("--iterations", type=int, required=True)
    build.add_argument("--format", choices=FORMATS, required=True)
    build.add_argument("--out", required=True, help="output file path")

    query = sub.add_parser("query", help="decide subtyping between two types")
    query.add_argument("--decls", required=True)
    query.add_argument("type1")
    query.add_argument("type2")

    stats = sub.add_parser("stats", help="print per-iteration graph sizes")
    stats.add_argument("--decls", required=True)
    stats.add_argument("--iterations", type=int, required=True)

    selfcheck = sub.add_parser(
        "selfcheck", help="compare the construction against the decision rules"
    )
    selfcheck.add_argument("--decls", required=True)
    selfcheck.add_argument("--max-rank", type=int, required=True)

    parser.commands = sub.choices  # each command's parser, by name, for `main`
    for name, command in parser.commands.items():
        command.set_defaults(command=name)
    return parser


def _load_table(path: str):
    try:
        with open(path, encoding="utf-8") as file:
            source = file.read()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text: {err}") from None
    return parse_declarations(source)


def _print_stats(trace) -> None:
    for i, (vertices, edges) in enumerate(trace.stats, start=1):
        print(i, vertices, edges)


def _cmd_build(args) -> int:
    if args.iterations < 1:
        raise _UsageError("--iterations must be at least 1")
    table = _load_table(args.decls)
    trace = run(table, args.iterations)
    with open(args.out, "w", encoding="utf-8") as out:
        out.writelines(chunks(trace.last.graph, args.format))
    _print_stats(trace)
    return 0


def _cmd_query(args) -> int:
    table = _load_table(args.decls)
    t1 = parse_ground_type(args.type1, table)
    t2 = parse_ground_type(args.type2, table)
    by_graph = subtype_by_graph(table, t1, t2)
    by_rules = is_subtype(t1, t2, table)
    print(f"graph: {str(by_graph).lower()}")
    print(f"oracle: {str(by_rules).lower()}")
    return 0 if by_graph == by_rules else 2


def _cmd_stats(args) -> int:
    if args.iterations < 1:
        raise _UsageError("--iterations must be at least 1")
    _print_stats(run(_load_table(args.decls), args.iterations))
    return 0


def _cmd_selfcheck(args) -> int:
    if args.max_rank < 1:
        raise _UsageError("--max-rank must be at least 1")
    report = differential_check(_load_table(args.decls), args.max_rank)
    print(
        f"checked {report.pair_count} ordered pairs over {report.type_count} types "
        f"(max rank {report.max_rank})"
    )
    for m in report.mismatches:
        print(f"mismatch: {m.left} <: {m.right}: graph={m.graph_verdict} rules={m.rule_verdict}")
    return 0 if report.ok else 2


_COMMANDS = {
    "build": _cmd_build,
    "query": _cmd_query,
    "stats": _cmd_stats,
    "selfcheck": _cmd_selfcheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        route = parser.commands.get(argv[0]) if argv else None
        args = route.parse_args(argv[1:]) if route else parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, GroundsubError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
