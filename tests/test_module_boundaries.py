"""The package's modules read one another only through public names: a
name with a leading underscore belongs to the module that defines it."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "multirec"
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_reads(path: Path) -> list[str]:
    """Each underscore name the file reads through a multirec module, as
    "file:line: name": imported with ``from .module import _name`` or read
    as ``module._name`` where module names a multirec module."""
    tree = ast.parse(path.read_text(), str(path))
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name.split(".")[0] == "multirec")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level and module.split(".")[0] != "multirec":
                continue
            package = module == ("" if node.level == 1 else "multirec")
            for a in node.names:
                if package and a.name in MODULES:
                    modules.add(a.asname or a.name)
                elif _private(a.name):
                    reads.append(f"{path.name}:{node.lineno}: {a.name}")
    reads += [f"{path.name}:{node.lineno}: {_dotted(node)}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _private(node.attr)
              and _dotted(node.value) in modules]
    return sorted(reads)


def test_no_module_reads_a_private_name_of_another():
    assert MODULES >= {"lattice", "recurrence", "derive"}
    assert [read for path in sorted(SRC.glob("*.py")) for read in private_reads(path)] == []


def test_every_form_of_a_private_read_is_seen(tmp_path):
    source = tmp_path / "reader.py"
    source.write_text(
        "import multirec.derive\n"
        "from multirec import lattice as lat\n"
        "from . import recurrence\n"
        "from .render import _WIDTH, render_rows\n"
        "def f(w):\n"
        "    return (recurrence._SLICE_LETTERS, lat._REACH, multirec.derive._helper,\n"
        "            recurrence.gap_report, w._evaluator, recurrence.__name__)\n")
    assert private_reads(source) == [
        "reader.py:4: _WIDTH", "reader.py:6: lat._REACH",
        "reader.py:6: multirec.derive._helper", "reader.py:6: recurrence._SLICE_LETTERS"]
