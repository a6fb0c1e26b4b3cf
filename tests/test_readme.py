"""Every ``$ multirec ...`` example in README.md, run through ``cli.main``:
stdout must start with the lines shown under the command (the first N
lines for a ``| head -N`` suffix), and the command must exit 0.  The
Library block must print what its comments show."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from multirec.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[tuple[str, list[str]]]:
    """(command line, shown output lines) for each ``$ multirec`` line."""
    examples: list[tuple[str, list[str]]] = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text("utf-8"), re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith("$ multirec "):
                shown = []
                examples.append((line[2:], shown))
            elif line.startswith("$"):
                shown = None
            elif shown is not None:
                shown.append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(command, shown, capsys):
    argv = shlex.split(command)[1:]
    if "|" in argv:
        pipe = argv.index("|")
        assert argv[pipe + 1] == "head" and len(argv) == pipe + 3
        assert len(shown) == int(argv[pipe + 2].lstrip("-n"))
        argv = argv[:pipe]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[:len(shown)] == shown


def test_readme_library_example(capsys):
    """The Library block runs, and each ``print`` writes the value of its
    ``# ...`` comment."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    shown = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(shown) == 2
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
