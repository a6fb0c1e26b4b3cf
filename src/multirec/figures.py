"""Golden-figure verification.

Each registered golden pairs a fixture transcribed from the source figures
with a regenerator; verify_figures re-derives every artifact and diffs it
against the stored grid or table.  Word grids must match cellwise.  The
uniform derivative grid is compared up to a relabeling of codes, since
only the partition into code classes is well defined, and its code table
is compared as a multiset of return words.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .derive import (UNIFORM, DerivativeWord, derivative_per_direction, derivative_uniform,
                     grids_agree_up_to_bijection)
from .errors import FixtureMissing
from .generators import fib_rows_word, load_preset, preset_word, toeplitz_rows_word
from .lattice import FiniteWord
from .render import read_grid_fixture, sample_rows
from .residues import cyclic_subgroup, family_c


@dataclass(frozen=True)
class FigureReport:
    name: str
    ok: bool
    detail: str


def _fixture(name: str):
    path = resources.files("multirec.fixtures").joinpath(name)
    if not path.is_file():
        raise FixtureMissing(f"fixture {name} is not shipped with this build")
    return path


def _diff_rows(fixture: str, rows, mine, what: str) -> FigureReport:
    """The fixture's bottom-first rows against the computed ones, cell by cell."""
    bad = [
        (x, y)
        for y, (row, my_row) in enumerate(zip(rows, mine))
        for x, (c, my_c) in enumerate(zip(row, my_row))
        if c != my_c
    ]
    detail = f"{len(rows[0])}x{len(rows)} {what}, {len(bad)} mismatches"
    if bad:
        detail += f", first at {bad[0]}"
    return FigureReport(fixture.removeprefix("fig-").removesuffix(".txt"), not bad, detail)


def _diff_word_grid(fixture: str, w) -> FigureReport:
    rows, _ = read_grid_fixture(_fixture(fixture))
    return _diff_rows(fixture, rows, sample_rows(w, (len(rows[0]), len(rows))), "grid")


def check_preimage() -> FigureReport:
    return _diff_word_grid("fig-preimage.txt", load_preset("preimage-3x2").iterate(1, 3))


def check_surd_not_ssurdo() -> FigureReport:
    return _diff_word_grid("fig-surd-not-ssurdo.txt", preset_word("surd-not-ssurdo-2x2"))


def check_sierpinski() -> FigureReport:
    return _diff_word_grid("fig-sierpinski.txt", preset_word("sierpinski"))


def check_fib_rows() -> FigureReport:
    return _diff_word_grid("fig-fib-rows.txt", fib_rows_word())


def check_toeplitz_rows() -> FigureReport:
    return _diff_word_grid("fig-toeplitz-rows.txt", toeplitz_rows_word())


def check_der1() -> FigureReport:
    rows, _ = read_grid_fixture(_fixture("fig-der1.txt"))
    grid = derivative_per_direction(preset_word("surd-not-ssurdo-2x2"), (1, 2), (27, 8))
    return _diff_rows("fig-der1.txt", rows, grid.to_nested(), "code grid")


def _uniform_grid():
    return derivative_uniform(preset_word("surd-not-ssurdo-2x2"), (1, 2), (27, 8))


def check_der2(grid: DerivativeWord | None = None) -> FigureReport:
    """The uniform grid against the figure, up to relabeling its codes;
    verify_figures passes the grid it shares with check_table_codes."""
    rows, _ = read_grid_fixture(_fixture("fig-der2.txt"))
    grid = grid or _uniform_grid()
    codes = tuple(c for row in rows for c in row)
    box = (len(rows[0]), len(rows))
    figure = DerivativeWord(UNIFORM, grid.size, box, codes, {})
    ok = grids_agree_up_to_bijection(figure, grid)
    detail = "27x8 code grid up to bijection, " + ("0 mismatches" if ok else "code classes differ")
    return FigureReport("der2", ok, detail)


def parse_block_word(text: str) -> tuple[FiniteWord, ...]:
    """'[0/1][1/0]' -> blocks of size (1,2); digits are top/bottom."""
    blocks = []
    for chunk in text.strip().strip("[]").split("]["):
        top, bottom = chunk.split("/")
        blocks.append(FiniteWord((1, 2), (int(bottom), int(top))))
    return tuple(blocks)


def read_table_codes() -> dict[int, tuple[FiniteWord, ...]]:
    out = {}
    for line in _fixture("table-codes.txt").read_text().strip().splitlines():
        code, word = line.split(maxsplit=1)
        out[int(code)] = parse_block_word(word)
    return out


def check_table_codes(grid: DerivativeWord | None = None) -> FigureReport:
    table = read_table_codes()
    coded = (grid or _uniform_grid()).tables[None]
    mine = [coded.blocks_of(c) for c in range(len(coded))]
    same = len(mine) == len(table) and set(mine) == set(table.values())
    detail = f"{len(mine)} return words coded, fixture lists {len(table)}"
    return FigureReport("table-codes", same, detail)


def read_label_grid(name: str) -> list[list[set]]:
    """Rows bottom-first; each cell the set of labels printed there."""
    lines = _fixture(name).read_text().strip().splitlines()
    rows = []
    for line in reversed(lines):
        cells = [c.strip() for c in line.split("|")] if "|" in line else line.split()
        rows.append([set() if c == "0" else set(c.split(",")) for c in cells])
    return rows


def read_subgroup_rows(name: str) -> list[tuple[str, set, set]]:
    def pairs(text):
        return {tuple(int(v) for v in p.strip("()").split(",")) for p in text.split()}

    out = []
    for line in _fixture(name).read_text().strip().splitlines():
        label, gens, elements = line.split("|")
        out.append((label.strip(), pairs(gens), pairs(elements)))
    return out


def check_s5_partition() -> FigureReport:
    grid = read_label_grid("s5-partition.txt")
    by_label: dict[str, set] = {}
    for y, row in enumerate(grid):
        for x, labels in enumerate(row):
            for lab in labels:
                by_label.setdefault(lab, set()).add((x, y))
    fixture = {frozenset(v) for v in by_label.values()}
    mine = {frozenset(s - {(0, 0)}) for s in family_c(5, 2).element_sets()}
    ok = fixture == mine
    return FigureReport("s5-partition", ok, f"{len(mine)} classes vs {len(fixture)} in fixture")


def check_s6_subgroups() -> FigureReport:
    rows = read_subgroup_rows("s6-subgroups.txt")
    fixture = {frozenset(elements) for _, _, elements in rows}
    mine = {frozenset(s - {(0, 0)}) for s in family_c(6, 2).element_sets()}
    problems = []
    if fixture != mine:
        problems.append("element sets differ")
    for label, gens, elements in rows:
        for g in gens:
            if set(cyclic_subgroup(6, g).elements) - {(0, 0)} != elements:
                problems.append(f"{label}: {g} does not generate its row")
    detail = f"{len(rows)} subgroups" + ("; " + "; ".join(problems) if problems else "")
    return FigureReport("s6-subgroups", not problems, detail)


def check_s6_partition() -> FigureReport:
    grid = read_label_grid("s6-partition.txt")
    by_set = {
        label: elements for label, _, elements in read_subgroup_rows("s6-subgroups.txt")
    }
    bad = []
    for y, row in enumerate(grid):
        for x, labels in enumerate(row):
            containing = {lab for lab, els in by_set.items() if (x, y) in els}
            if labels != containing:
                bad.append((x, y))
    return FigureReport("s6-partition", not bad, f"6x6 membership grid, {len(bad)} bad cells")


CHECKS = (
    check_preimage,
    check_surd_not_ssurdo,
    check_sierpinski,
    check_fib_rows,
    check_toeplitz_rows,
    check_der1,
    check_der2,
    check_table_codes,
    check_s5_partition,
    check_s6_subgroups,
    check_s6_partition,
)


def verify_figures() -> list[FigureReport]:
    """Every check in CHECKS order, with one uniform grid for the two
    checks that read it."""
    uniform = _uniform_grid()
    return [check(uniform) if check in (check_der2, check_table_codes) else check()
            for check in CHECKS]
