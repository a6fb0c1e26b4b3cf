"""End-to-end acceptance checks.

Each test prints a single ``ACCEPTANCE n PASS/FAIL`` line (run with ``-s``
to see them all) and then asserts, so the suite doubles as a human-readable
report and as a hard gate for CI.
"""

from __future__ import annotations

import math
import random
from functools import partial

import numpy as np

from multirec import figures
from multirec.generators import (
    CONSTANT,
    Morphism,
    ToeplitzSchedule,
    fib_rows_word,
    gcd_word,
    load_preset,
    preset_word,
    thue_morse,
    thue_morse_word,
    toeplitz_construct,
    toeplitz_rows_word,
)
from multirec.lattice import FiniteWord, WordSource, iter_box
from multirec.morphic import (
    check_power,
    main_morphic_claim,
    ssurdo_structure_check,
    survey_all_2x2,
    thue_lemma_tm0,
    thue_lemma_tm1,
)
from multirec.quadratic import QuadExt
from multirec.recurrence import (
    BOUNDED_WITNESSED,
    RecurrenceBudget,
    check_ur_empirical,
    check_urd_empirical,
    enumerate_directions,
    enumerate_sizes,
    occurrence_indices,
    sample_grid,
)
from multirec.residues import (
    family_c,
    gcd_along_line,
    gcd_along_line_closed_form,
    line_gcd_period,
)
from multirec.rotation import (
    IntervalSet,
    sturmian_spec,
    surd_failure_direction,
    three_gap_analysis,
)

COR1_EXAMPLE = Morphism([
    FiniteWord((2, 2), (1, 0, 0, 0)),
    FiniteWord((2, 2), (1, 0, 0, 1)),
])


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_grid_reproduction():
    preimage = figures.check_preimage()
    example = figures.check_surd_not_ssurdo()
    ok = (
        preimage.ok
        and example.ok
        and preimage.detail.startswith("27x8 grid, 0 mismatches")
        and example.detail.startswith("27x8 grid, 0 mismatches")
    )
    _report(1, ok, f"preimage: {preimage.detail}; fixed point: {example.detail}")


def test_criterion_02_derivative_reproduction():
    der1 = figures.check_der1()
    der2 = figures.check_der2()
    table = figures.check_table_codes()
    classes = len(figures.read_table_codes())
    ok = der1.ok and der2.ok and table.ok and classes == 17
    _report(
        2,
        ok,
        f"per-direction: {der1.detail}; uniform: {der2.detail}; "
        f"table: {table.detail} ({classes} classes)",
    )


def test_criterion_03_thue_morse_lemmas():
    lemmas = all(
        thue_lemma_tm1(ell) and thue_lemma_tm0(ell) for ell in range(1, 13)
    )
    parity = all(
        thue_morse(2**ell - 1) == ell % 2 for ell in range(13)
    )
    _report(3, lemmas and parity, "block lemmas and parity claim for l <= 12")


def test_criterion_04_subgroup_counts():
    counts = {s: len(family_c(s, 2).subgroups) for s in (2, 3, 5, 7, 11, 13)}
    prime_ok = all(counts[s] == s + 1 for s in counts)
    six = len(family_c(6, 2).subgroups)
    table = figures.check_s6_subgroups()
    grid = figures.check_s5_partition()
    ok = prime_ok and six == 12 and table.ok and grid.ok
    _report(
        4,
        ok,
        f"|C(s)| = {counts}, |C(6)| = {six}; s=6 table: {table.detail}; "
        f"s=5 grid: {grid.detail}",
    )


def test_criterion_05_gcd_word_urd():
    w = gcd_word(thue_morse_word(), 2)
    budget = RecurrenceBudget(5000, 5, 3, 3, 256)
    reports = check_urd_empirical(w, budget)
    bounded = all(r.verdict == BOUNDED_WITNESSED for r in reports)
    worst = max(r.max_gap for r in reports if r.max_gap is not None)

    rng = random.Random(20240814)
    agree = 0
    for _ in range(200):
        q = (rng.randrange(1, 20), rng.randrange(1, 20))
        g = math.gcd(*q)
        q = (q[0] // g, q[1] // g)
        while True:
            i = (rng.randrange(0, 40), rng.randrange(0, 40))
            t = i[0] // q[0]
            if (t * q[0], t * q[1]) != i:
                break
        period = line_gcd_period(q, i)
        if all(
            gcd_along_line(q, i, ell) == gcd_along_line_closed_form(q, i, ell)
            for ell in range(3 * period + 1)
        ):
            agree += 1
    ok = bounded and agree == 200
    _report(
        5,
        ok,
        f"{len(reports)} scans bounded (worst gap {worst}); "
        f"closed form agreed on {agree}/200 random lines",
    )


def test_criterion_06_rotation_words():
    pairs = 0
    for k in range(1, 51):
        delta = (QuadExt.sqrt(2 if k % 2 else 3, k)).mod1()
        lo = (k % 7) / 11
        interval = IntervalSet([(lo, lo + (1 + k % 5) / 31)])
        gaps = three_gap_analysis(delta, interval, 10_000)
        if len(gaps) <= 3:
            pairs += 1

    spec = sturmian_spec()
    budget = RecurrenceBudget(5000, 4, 2, 3, 256)
    reports = check_urd_empirical(spec.word(), budget)
    sturmian_ok = all(r.verdict == BOUNDED_WITNESSED for r in reports)

    runs = {}
    w = spec.word()
    for n in (5, 10, 20):
        q = surd_failure_direction(spec, n)
        delta = spec.angle_along(q)
        horizon = int(2 / delta.to_float()) + 3 * n + 2
        line = w.letters_along((0, 0), q, horizon)
        best = run = 1
        for a, b in zip(line, line[1:]):
            run = run + 1 if a == b else 1
            best = max(best, run)
        runs[n] = (q, best)
    runs_ok = all(best >= n for n, (_, best) in runs.items())

    ok = pairs == 50 and sturmian_ok and runs_ok
    _report(
        6,
        ok,
        f"three-gap held for {pairs}/50 pairs; Sturmian URD scans "
        f"{'bounded' if sturmian_ok else 'FAILED'}; failure runs {runs}",
    )


def test_criterion_07_2x2_cross_validation():
    results = survey_all_2x2(horizon=4000, direction_bound=4, param=3)
    surd = sum(1 for r in results if r["verdict"] == "SURD")
    bad = [r for r in results if not r["ok"]]
    ok = len(results) == 128 and not bad
    _report(
        7,
        ok,
        f"{len(results)} candidates: {surd} SURD, {len(results) - surd} "
        f"NOT_SURD, {len(bad)} contradicted by experiment",
    )


def test_criterion_08_sufficient_condition_bounds():
    details = []
    ok = True
    for label, phi in (("corollary example", COR1_EXAMPLE),
                       ("power-3x3", load_preset("power-3x3"))):
        # the bound comes from the smallest power whose image-cell condition
        # holds, with that power's expansion in place of s
        i = next(i for i in (1, 2, 3) if check_power(phi, 1, i).holds)
        s = phi.expansion**i
        claim = partial(main_morphic_claim, phi.power(i))
        budget = RecurrenceBudget(5000, 5, 4, 3, 256)
        reports = check_urd_empirical(phi.fixed_point(1), budget, claim=claim)
        good = all(r.verdict == BOUNDED_WITNESSED for r in reports)
        ok &= good
        worst = max(r.max_gap for r in reports if r.max_gap is not None)
        details.append(
            f"{label}: power {i} holds, {len(reports)} scans under "
            f"{s}-ary bound, worst gap {worst}"
        )
    _report(8, ok, "; ".join(details))


def test_criterion_09_non_recurrence_witnesses():
    suff = occurrence_indices(
        preset_word("suffnotnec-3x3"), (1, 3), (1, 1), horizon=5000
    )
    sier = occurrence_indices(
        preset_word("sierpinski"), (1, 1), (1, 1), horizon=5000
    )
    ok = suff == [0] and sier == [0]
    _report(
        9,
        ok,
        f"occurrences along (1,3): {suff[:4]}; along the diagonal: {sier[:4]}",
    )


def test_criterion_10_ssurdo_example():
    structure = all(ssurdo_structure_check(j) for j in (1, 2, 3))

    w = preset_word("ssurdo-3x3")
    dirs = enumerate_directions(2, 5)
    horizon = 600
    worst = 0
    for p in iter_box((9, 9)):
        for q in dirs:
            line = w.letters_along(p, q, horizon + 1)
            occ = [ell for ell, a in enumerate(line) if a == line[0]]
            gaps = [b - a for a, b in zip(occ, occ[1:])]
            gaps.append(horizon - occ[-1])
            worst = max(worst, max(gaps))
    letters_ok = worst <= 3

    v = preset_word("surd-not-ssurdo-2x2")
    pattern_ok = True
    for n in (1, 2, 3):
        p = (2 ** (n + 1) - 1, 2**n - 1)
        line = v.letters_along(p, (1, 0), 3 * 2**n + 2)
        a = line[1]
        pattern_ok &= (
            line[0] == line[-1] == 1 - a and set(line[1:-1]) == {a}
        )
    ok = structure and letters_ok and pattern_ok
    _report(
        10,
        ok,
        f"structure checks j<=3; worst letter gap {worst} over "
        f"{81 * len(dirs)} lines; shifted-origin pattern "
        f"{'reproduced' if pattern_ok else 'FAILED'}",
    )


def _line_word(w: WordSource, fixed: int, axis: int) -> WordSource:
    if axis == 0:
        return WordSource(1, w.alphabet_size, lambda p: w.letter((p[0], fixed)))
    return WordSource(1, w.alphabet_size, lambda p: w.letter((fixed, p[0])))


def test_criterion_11_counterexample_words():
    w = fib_rows_word()
    budget = RecurrenceBudget(5000, 5, 3, 3, 256)
    lines_ok = all(
        all(r.window is not None for r in check_ur_empirical(
            _line_word(w, k, axis), budget
        ))
        for k in range(4)
        for axis in (0, 1)
    )
    grid = sample_grid(w, (64, 64))
    hits = (
        (grid[:-1, :-1] == 1)
        & (grid[1:, :-1] == 0)
        & (grid[:-1, 1:] == 0)
        & (grid[1:, 1:] == 0)
    )
    xs, ys = np.nonzero(hits)
    prefix_ok = len(xs) > 0 and not xs.any()

    t = toeplitz_rows_word()
    reports = check_ur_empirical(t, budget)
    toeplitz_ur = all(r.window is not None for r in reports)
    row0 = t.letters_along((0, 0), (1, 0), 256)
    single = sum(row0) == 1

    ok = lines_ok and prefix_ok and toeplitz_ur and single
    _report(
        11,
        ok,
        f"fib rows/columns UR: {lines_ok}; corner prefix hits {len(xs)} "
        f"cells, all in column 0: {prefix_ok}; layered rows UR windows "
        f"{[r.window for r in reports]}, row 0 ones: {sum(row0)}",
    )


def test_criterion_12_toeplitz_construction():
    tw = toeplitz_construct(ToeplitzSchedule(policy=CONSTANT))
    marked = FiniteWord((2, 2), (1, 0, 0, 0))
    phi = Morphism([marked, marked])
    fixed = phi.fixed_point(1)
    same = np.array_equal(sample_grid(tw, (64, 64)), sample_grid(fixed, (64, 64)))

    claim = partial(main_morphic_claim, phi)
    budget = RecurrenceBudget(4000, 5, 3, 3, 256)
    reports = check_urd_empirical(tw, budget, claim=claim)
    bounded = all(r.verdict == BOUNDED_WITNESSED for r in reports)
    worst = max(r.max_gap for r in reports if r.max_gap is not None)
    ok = same and bounded
    _report(
        12,
        ok,
        f"64x64 grids {'match' if same else 'DIFFER'}; {len(reports)} gap "
        f"scans within the doubling bound (worst {worst})",
    )
