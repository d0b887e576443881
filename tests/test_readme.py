"""The README's examples run as shown.

Each `$ groundsub ...` line of the "Command line" transcript runs through
`cli.main` in a directory that holds the transcript's `program.decls`, and
must exit with 0 and print the lines the README shows under it.  The
"Library" snippet must run clean.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from groundsub.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def section_block(heading: str, fence: str) -> str:
    """The first fenced block of `fence` under the `## heading` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{fence}\n(.*?)```", section, re.S)[1]


def transcript() -> list[tuple[str, list[str]]]:
    """Each command of the "Command line" block with the lines under it."""
    runs: list[tuple[str, list[str]]] = []
    for line in section_block("Command line", "console").splitlines():
        if line.startswith("$ "):
            runs.append((line[2:], []))
        elif line:
            runs[-1][1].append(line)
    return runs


def test_command_line_transcript_matches(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = transcript()
    printf, _ = runs.pop(0)
    text, path = re.fullmatch(r"printf '(.*)' > (\S+)", printf).groups()
    assert path == "program.decls"
    Path(path).write_text(text.replace("\\n", "\n"), encoding="utf-8")
    assert [command.split()[1] for command, _ in runs] == ["build", "query", "stats", "selfcheck"]
    for command, shown in runs:
        argv = shlex.split(command)
        assert argv[0] == "groundsub"
        assert main(argv[1:]) == 0, command
        out, err = capsys.readouterr()
        assert (out.splitlines(), err) == (shown, ""), command


def test_library_snippet_runs():
    exec(compile(section_block("Library", "python"), "README.md", "exec"), {})
