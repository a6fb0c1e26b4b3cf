"""Text, JSON, CSV and netpbm output for finite grids.

Grids are handled as rows[y][x] with row 0 at the bottom, the same layout
FiniteWord.to_nested produces.  Text and CSV print the top row first, the
way the figures are read; JSON keeps the bottom-first nesting.  A cell
holding -1 stands for an undefined entry and renders as '?' in text and
CSV (it stays -1 in JSON, and is rejected by the image formats).
"""

from __future__ import annotations

import json

from .errors import InvalidInput
from .lattice import FiniteWord, WordSource

TEXT = "text"
JSON = "json"
CSV = "csv"
PBM = "pbm"
PGM = "pgm"

FORMATS = (TEXT, JSON, CSV, PBM, PGM)

UNDEFINED = -1


Rows = "list[list[int]]"


def sample_rows(w: WordSource | FiniteWord, box) -> list[list[int]]:
    """Letters of a word or block on [0,box) as bottom-first rows, one
    family read of the rows; only d <= 2.  A 1-D box, word or block gives
    one row; a block gives its corner, and a box past it raises IndexError."""
    box = tuple(box)
    if len(box) not in (1, 2):
        raise InvalidInput(f"grid rendering needs 1 or 2 dimensions, got {len(box)}")
    if w.dimension == 1 == len(box):
        starts = [(0,)]
    else:
        starts = [(0, y) for y in range(box[1] if len(box) == 2 else 1)]
    if isinstance(w, FiniteWord):
        if any(b > s for b, s in zip(box, w.size)):
            raise IndexError(f"box {box} outside block of size {w.size}")
        rows = w.to_nested() if w.dimension > 1 else [w.to_nested()]
        return [row[:box[0]] for row in rows[:len(starts)]]
    return w.letters_on_lines(starts, [(1, 0)[:len(starts[0])]], box[0])[:, 0].tolist()


def _cell_token(c: int) -> str:
    return "?" if c == UNDEFINED else str(c)


def to_text(rows: Rows) -> str:
    return "\n".join(" ".join(_cell_token(c) for c in row) for row in reversed(rows))


def to_csv(rows: Rows) -> str:
    return "\n".join(",".join(_cell_token(c) for c in row) for row in reversed(rows))


def to_json(rows: Rows) -> str:
    return json.dumps(rows, separators=(",", " "))


def _check_defined(rows: Rows, fmt: str) -> None:
    if any(c < 0 for row in rows for c in row):
        raise InvalidInput(f"{fmt} cannot represent undefined cells")


def to_pbm(rows: Rows, alphabet_size: int) -> str:
    """P1 bitmap, letter 1 black.  Binary alphabets only."""
    if alphabet_size != 2:
        raise InvalidInput(f"pbm needs a binary alphabet, got {alphabet_size}")
    _check_defined(rows, "pbm")
    height, width = len(rows), len(rows[0])
    body = "\n".join(" ".join(str(c) for c in row) for row in reversed(rows))
    return f"P1\n{width} {height}\n{body}\n"


def to_pgm(rows: Rows, alphabet_size: int) -> str:
    """P2 graymap; letters spread linearly over 0..255."""
    _check_defined(rows, "pgm")
    hi = max(alphabet_size - 1, 1)
    gray_map = {a: round(255 * a / hi) for a in range(alphabet_size)}
    height, width = len(rows), len(rows[0])
    body = "\n".join(
        " ".join(str(gray_map[c]) for c in row) for row in reversed(rows)
    )
    return f"P2\n{width} {height}\n255\n{body}\n"


def render_rows(rows: Rows, alphabet_size: int, fmt: str) -> str:
    """The rows in one of FORMATS."""
    if fmt == TEXT:
        return to_text(rows)
    if fmt == CSV:
        return to_csv(rows)
    if fmt == JSON:
        return to_json(rows)
    if fmt == PBM:
        return to_pbm(rows, alphabet_size)
    if fmt == PGM:
        return to_pgm(rows, alphabet_size)
    raise InvalidInput(f"unknown format {fmt!r}")


# Fixture grids live as text files with an explicit header so a golden can
# be eyeballed against the source it was transcribed from.

def read_grid_fixture(path) -> tuple[list[list[int]], int]:
    """Rows bottom-first plus the declared alphabet size."""
    lines = path.read_text().strip().splitlines()
    header = dict(item.split("=") for item in lines[0].split())
    width, height = (int(v) for v in header["dims"].split("x"))
    alphabet = int(header["alphabet"])
    body = [
        [UNDEFINED if tok == "?" else int(tok) for tok in line.split()]
        for line in lines[1:]
    ]
    if len(body) != height or any(len(r) != width for r in body):
        raise InvalidInput(f"{path} body does not match its dims header")
    return body[::-1], alphabet
