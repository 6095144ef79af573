"""Every command of the README's command-line block runs as written: the
`boolelim ...` lines go through `cli.main` in order, in one directory, with
`echo '...' |` feeding stdin and `> file` capturing stdout, and each must
exit 0. `cross.txt` holds the formula of the block's `echo` line. The
Python block of the library section runs too, so a public name it imports
cannot go from under it."""

import io
import re
import shlex
import sys
from pathlib import Path

from boolelim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line.strip() for line in block.splitlines() if "boolelim " in line]


def run_line(line: str, monkeypatch) -> int:
    stdin = ""
    if " | " in line:
        echo, line = line.split(" | ", 1)
        stdin = shlex.split(echo)[1] + "\n"
    target = None
    if " > " in line:
        line, target = (part.strip() for part in line.split(" > ", 1))
    argv = shlex.split(line)
    assert argv[0] == "boolelim", line
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out = io.StringIO()
    code = main(argv[1:], out=out)
    if target is not None:
        Path(target).write_text(out.getvalue())
    return code


def test_readme_block_names_the_documented_commands():
    lines = readme_commands()
    assert lines[0].startswith("echo ")
    assert any("--refute" in line for line in lines)


def test_every_readme_command_exits_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = readme_commands()
    (tmp_path / "cross.txt").write_text(shlex.split(lines[0].split(" | ")[0])[1] + "\n")
    for line in lines:
        assert run_line(line, monkeypatch) == 0, line


def test_library_block_runs():
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["degree_report"](namespace["qe"]).satisfied
