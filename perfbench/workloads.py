"""Seeded workloads: request generation, execution and output checks.

A workload is a list of rounds.  Each round is a fixed-size batch of
requests built from the seed and the round number, so the same seed always
gives the same inputs.  A request is one call into the unchanged package
(or one ``multirec`` command line run in-process through ``cli.main``); its
output is checked after the round, outside the timed region.

Nothing in this module imports ``multirec`` at import time: the worker
times the first import as part of set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
from typing import Any, Callable

WORKLOADS = ("scan-rotation", "scan-morphic", "survey-2x2", "grids")

# Coprime directions with coordinates <= 4, block sizes up to 2x3 and the
# near origins [0, 3]^2 of the rotation scans.
ROTATION_DIRS = [(a, b) for a in range(5) for b in range(5)
                 if (a or b) and math.gcd(a, b) == 1]
ROTATION_SIZES = [(x, y) for x in (1, 2) for y in (1, 2, 3)]
NEAR_ORIGINS = [(x, y) for x in range(4) for y in range(4)]
ROTATION_HORIZON = 150
FAR_LO, FAR_HI = 10**6, 10**9

MORPHIC_PRESETS = ("ssurdo-3x3", "suffnotnec-3x3", "power-3x3")
MORPHIC_MODES = ("urd", "surd", "ssurdo")
MORPHIC_CLASSES = [(k, s) for k in (2, 3) for s in (2, 3)]  # (alphabet, expansion)
MORPHIC_HORIZON = 150

SURVEY_LINE = "total=128 SURD=72 NOT_SURD=56 failures=0"


@dataclasses.dataclass
class Request:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``key`` names the inputs; a pinned digest is looked up under it.
    ``check`` returns a list of problems with the output (empty when ok).
    ``pooled`` marks a request that runs on every CPU through the process
    pool, whose speed the one-CPU reference loop next to it does not gauge.
    """

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], str]
    pooled: bool = False


def digest_of(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def round_rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


def worker_count() -> int:
    """Default pool size of ``classify --all``, capped at the usable CPUs."""
    return min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


def reset_caches() -> None:
    """Empty the package's module-level caches, which a command-line run
    starts without; per-object memos go with the fresh word objects."""
    from multirec import generators

    generators._fib_cache = bytearray(b"\x00")


# ---------------------------------------------------------------------------
# shared checks


def _gap_report_problems(r, horizon: int) -> list[str]:
    """Occurrences, max gap and verdict must agree with each other."""
    occ = list(r.occurrences)
    if not occ or occ[0] != 0 or occ != sorted(set(occ)) or occ[-1] > horizon:
        return [f"bad occurrence list {occ[:5]}..."]
    if len(occ) < 2:
        ok = r.max_gap is None and r.verdict == "NO_RECURRENCE_IN_HORIZON"
        return [] if ok else [f"lone occurrence with gap {r.max_gap} {r.verdict}"]
    gaps = [b - a for a, b in zip(occ, occ[1:])] + [horizon - occ[-1]]
    if r.max_gap != max(gaps) or r.verdict != "BOUNDED_WITNESSED":
        return [f"max gap {r.max_gap} {r.verdict}, occurrences give {max(gaps)}"]
    return []


def _sample_multipliers(occ) -> list[tuple[int, bool]]:
    """(multiplier, block expected to match): the first return, the last
    occurrence, and the multiplier just before the first return."""
    out = [(0, True)]
    if len(occ) >= 2:
        out += [(occ[1], True), (occ[-1], True)]
        if occ[1] > 1:
            out.append((occ[1] - 1, False))
    elif occ:
        out.append((1, False))
    return out


def _cli(argv: list[str]):
    """Run ``multirec`` in-process; returns (exit code, stdout)."""
    from multirec import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cli_request(argv: list[str], check: Callable[[str], list[str]],
                 key: str | None = None) -> Request:
    def checked(output) -> list[str]:
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        return check(text)

    return Request(key or " ".join(argv), lambda: _cli(argv), checked,
                   lambda out: digest_of(list(out)))


# ---------------------------------------------------------------------------
# scan-rotation


class ScanRotation:
    """gap_report on the Sturmian rotation word: every (near origin, size)
    pair once per round with seeded directions, plus ten far origins."""

    def __init__(self, seed: int, tiny: bool):
        from multirec import recurrence
        from multirec.lattice import factor_at
        from multirec.rotation import occurs_at, sturmian_spec

        self.seed = seed
        self.tiny = tiny
        self.spec = sturmian_spec()
        self.horizon = 60 if tiny else ROTATION_HORIZON
        self._recurrence = recurrence
        self._factor_at = factor_at
        self._occurs_at = occurs_at

    def inputs(self, k: int) -> list[tuple]:
        rng = round_rng(self.seed, k)
        if self.tiny:
            return [(rng.choice(ROTATION_DIRS), rng.choice(ROTATION_SIZES),
                     rng.choice(NEAR_ORIGINS)) for _ in range(5)] + [
                (rng.choice(ROTATION_DIRS), (1, 1),
                 (rng.randint(FAR_LO, FAR_HI), rng.randint(FAR_LO, FAR_HI)))]
        # A request's cost is set mostly by the block at its origin (its size
        # and letters), less by the direction, so each round holds every
        # (near origin, size) pair once and deals the directions over them
        # in a seeded cyclic order: whatever the seed, each direction is
        # used seven or eight times, spread over the origins and sizes.
        dirs = ROTATION_DIRS[:]
        rng.shuffle(dirs)
        reqs = [(dirs[i % len(dirs)], s, o) for i, (o, s) in
                enumerate((o, s) for o in NEAR_ORIGINS for s in ROTATION_SIZES)]
        rng.shuffle(reqs)
        # Far origins run the float orbit from an exact far start.  They
        # read single letters: a far block's letters are random, and so
        # would be its cost.
        for _ in range(10):
            far = (rng.randint(FAR_LO, FAR_HI), rng.randint(FAR_LO, FAR_HI))
            reqs.insert(rng.randrange(len(reqs) + 1), (rng.choice(ROTATION_DIRS), (1, 1), far))
        return reqs

    def round(self, k: int) -> list[Request]:
        w = self.spec.word()
        return [self._request(w, q, s, o) for q, s, o in self.inputs(k)]

    def _request(self, w, q, s, o) -> Request:
        horizon, recurrence = self.horizon, self._recurrence
        return Request(
            f"q={q} s={s} o={o}",
            # looked up per call, so a traced run reaches the wrapper
            lambda: recurrence.gap_report(w, q, s, o, horizon),
            lambda r: self._check(w, r),
            lambda r: digest_of([list(r.occurrences), r.max_gap, r.verdict]),
        )

    def _check(self, w, r) -> list[str]:
        problems = _gap_report_problems(r, self.horizon)
        if problems:
            return problems
        block = self._factor_at(w, r.origin, r.size)
        for ell, expect in _sample_multipliers(r.occurrences):
            p = tuple(o + ell * c for o, c in zip(r.origin, r.direction))
            if self._occurs_at(self.spec, block, p) != expect:
                problems.append(f"occurs_at disagrees at multiplier {ell}")
        return problems


# ---------------------------------------------------------------------------
# scan-morphic


class IterateReference:
    """Fixed-point letters from Morphism.iterate blocks, independent of the
    package's digit walks: w(p) = phi^n(w(p // s^n))[p mod s^n]."""

    def __init__(self, phi, a: int, n: int = 2):
        self.a = a
        self.side = phi.expansion ** n
        self.blocks = [phi.iterate(b, n) for b in range(phi.alphabet_size)]

    def letter(self, p) -> int:
        if not any(p):
            return self.a
        side = self.side
        parent = self.letter(tuple(c // side for c in p))
        return self.blocks[parent][tuple(c % side for c in p)]

    def block(self, p, size) -> list[int]:
        return [self.letter((p[0] + i, p[1] + j))
                for j in range(size[1]) for i in range(size[0])]


class ScanMorphic:
    """Sweeps (urd / surd / ssurdo drawn per request) over the 3x3 presets
    and seeded random prolongable square morphisms.  A round holds each
    (preset, mode) pair 4 times and each (alphabet, expansion, mode) class
    12 times, with a fresh morphism each, in seeded order."""

    def __init__(self, seed: int, tiny: bool):
        from multirec import recurrence
        from multirec.generators import Morphism, load_preset
        from multirec.lattice import FiniteWord

        self.seed = seed
        self.tiny = tiny
        self.horizon = 80 if tiny else MORPHIC_HORIZON
        self._Morphism = Morphism
        self._FiniteWord = FiniteWord
        self._recurrence = recurrence
        self.presets = {name: load_preset(name) for name in MORPHIC_PRESETS}

    def budget(self, mode: str):
        dirs = 2 if mode == "ssurdo" else 3
        return self._recurrence.RecurrenceBudget(self.horizon, dirs, 2, 1, 8)

    def random_morphism(self, rng: random.Random, k: int, s: int):
        a = rng.randrange(k)
        images = []
        for b in range(k):
            cells = [rng.randrange(k) for _ in range(s * s)]
            if b == a:
                cells[0] = a
            images.append(self._FiniteWord((s, s), cells))
        return self._Morphism(images), a

    def round(self, k: int) -> list[Request]:
        rng = round_rng(self.seed, k)
        items = [(("preset", p), m) for p in MORPHIC_PRESETS for m in MORPHIC_MODES] * 4
        items += [(("random", *c), m) for c in MORPHIC_CLASSES for m in MORPHIC_MODES] * 12
        if self.tiny:
            items = [items[0], items[40], items[41], items[42]]
        rng.shuffle(items)
        reqs = []
        for kind, mode in items:
            if kind[0] == "preset":
                phi, a, name = self.presets[kind[1]], 1, kind[1]
            else:
                phi, a = self.random_morphism(rng, kind[1], kind[2])
                name = "random:" + digest_of([list(img.cells) for img in phi.images])
            reqs.append(self._request(phi, a, name, mode))
        return reqs

    def _request(self, phi, a, name, mode) -> Request:
        w = phi.fixed_point(a)
        budget = self.budget(mode)
        recurrence, sweep = self._recurrence, f"check_{mode}_empirical"

        def check(result) -> list[str]:
            return self._check(phi, a, mode, budget, result)

        return Request(f"{name} a={a} {mode}", lambda: getattr(recurrence, sweep)(w, budget), check,
                       lambda res: digest_of(self._canonical(mode, res)))

    @staticmethod
    def _canonical(mode, result) -> list:
        if mode == "urd":
            return [[list(r.direction), list(r.size), r.max_gap, r.verdict] for r in result]
        return [[list(s.size), s.bound, s.verdict, list(s.worst.direction),
                 list(s.worst.origin), s.worst.max_gap] for s in result]

    def _check(self, phi, a, mode, budget, result) -> list[str]:
        n_dirs = sum(1 for q in ROTATION_DIRS if max(q) <= budget.direction_bound)
        reports = list(result) if mode == "urd" else [s.worst for s in result]
        expected = 4 * n_dirs if mode == "urd" else 4
        if len(result) != expected:
            return [f"{len(result)} results, expected {expected}"]
        if mode != "urd":
            for s in result:
                if s.verdict == "BOUNDED_WITNESSED" and s.bound != s.worst.max_gap:
                    return [f"size {s.size}: bound {s.bound} but worst gap {s.worst.max_gap}"]
        ref = IterateReference(phi, a)
        problems = []
        for r in reports:
            problems += _gap_report_problems(r, budget.horizon)
            if problems:
                return problems
            first = ref.block(r.origin, r.size)
            for ell, expect in _sample_multipliers(r.occurrences):
                p = tuple(o + ell * c for o, c in zip(r.origin, r.direction))
                if (ref.block(p, r.size) == first) != expect:
                    problems.append(f"iterate reference disagrees along {r.direction} at {ell}")
        return problems


# ---------------------------------------------------------------------------
# survey-2x2


def _survey_all_check(text: str) -> list[str]:
    first = text.splitlines()[0] if text else ""
    return [] if first == SURVEY_LINE else [f"survey said {first!r}"]


def _classify_check(verdict: str) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        lines = text.splitlines()
        if not lines or lines[0] != verdict:
            return [f"expected {verdict}, got {lines[:1]}"]
        if verdict == "NOT_SURD" and not lines[-1].endswith("verified=True"):
            return ["witness not verified"]
        return []

    return check


class Survey2x2:
    """``classify --all`` with the default pool size, the two presets, and
    the survey's 128 entries called in-process one by one, so that the
    per-entry cost has its own latencies.  Exhaustive, so the seed changes
    nothing."""

    pooled = True
    # survey_all_2x2's defaults: horizon, direction bound, witness parameter
    ENTRY_ARGS = (4000, 4, 3)

    def __init__(self, seed: int, tiny: bool):
        from multirec import cli, morphic

        self.tiny = tiny
        self._morphic = morphic
        # The default is os.cpu_count(); pass a pool size only where that
        # exceeds the CPUs this process may use.
        workers = worker_count()
        self.argv = ["classify", "--all"]
        if workers != os.cpu_count():
            self.argv += ["--workers", str(workers)]
        self.tasks = [(phi.image(0).cells, phi.image(1).cells, *self.ENTRY_ARGS)
                      for phi in morphic.all_2x2_morphisms()]

    def round(self, k: int) -> list[Request]:
        reqs = [
            _cli_request(["classify", "--preset", "sierpinski"], _classify_check("NOT_SURD")),
            _cli_request(["classify", "--preset", "surd-not-ssurdo-2x2"], _classify_check("SURD")),
        ]
        if self.tiny:
            return reqs + [self._entry_request(t) for t in self.tasks[::32]]
        # The pooled survey's time depends on every CPU, which the reference
        # loop does not see, so it is sampled three times a round (before,
        # amid and after the entries) and reported at its median.
        pooled = dataclasses.replace(
            _cli_request(self.argv, _survey_all_check, key="classify --all"), pooled=True)
        entries = [self._entry_request(t) for t in self.tasks]
        half = len(entries) // 2
        return reqs + [pooled] + entries[:half] + [pooled] + entries[half:] + [pooled]

    def _entry_request(self, task) -> Request:
        morphic = self._morphic

        def check(e) -> list[str]:
            if (e["zero"], e["one"]) != task[:2]:
                return ["entry for another morphism"]
            if e["verdict"] not in ("SURD", "NOT_SURD") or not e["ok"]:
                return [f"{e['verdict']} not confirmed: {e['detail']}"]
            return []

        return Request(f"survey_2x2_entry zero={task[0]} one={task[1]}",
                       lambda: morphic.survey_2x2_entry(task), check,
                       lambda e: digest_of([e["verdict"], e["ok"], e["detail"]]))


# ---------------------------------------------------------------------------
# grids


def _grid_tokens(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines()]


def _shape_problems(rows, width: int, height: int) -> list[str]:
    if len(rows) != height or any(len(r) != width for r in rows):
        return [f"grid is not {width}x{height}"]
    return []


class Grids:
    """derive in both schemes, ur checks and renders, all through
    ``cli.main``.  Every request takes well under a second, so a run samples
    each one about eight times.  Every choice that changes the cost is
    fixed; the seed picks only the Toeplitz filling and the cells that the
    render checks sample.

    ``verify-figures`` takes 7-9 s, too long to sample often enough in a run
    for a steady time, so it is not in the timed round: the traced run
    issues it once per traced round, under a tracer of its own, for the
    ``figures`` layer and its all-PASS check."""

    DERIVE_WORD = "surd-not-ssurdo-2x2"  # sierpinski has no return along (1, 1)
    DERIVE_SIZES = {"uniform": "1x2", "per-direction": "2x1"}
    RENDER_PRESETS = ("sierpinski", "surd-not-ssurdo-2x2")
    STURMIAN_BOX = (32, 12)

    def __init__(self, seed: int, tiny: bool):
        from multirec import cli  # noqa: F401  (part of set-up)

        self.seed = seed
        self.tiny = tiny
        self.render_side = 16 if tiny else 64
        self._prefixes = {}
        self._sturmian = None

    def prefix(self, name: str):
        """The iterate block that the rendered fixed-point prefix must equal;
        built on first use, outside set-up."""
        if name not in self._prefixes:
            from multirec.generators import load_preset

            phi = load_preset(name)
            depth = round(math.log(self.render_side, phi.expansion))
            self._prefixes[name] = phi.iterate(1, depth)
        return self._prefixes[name]

    def sturmian_letter(self, p) -> int:
        """Exact letter through the factor interval sets of both labels."""
        from multirec.lattice import FiniteWord
        from multirec.rotation import occurs_at, sturmian_spec

        if self._sturmian is None:
            self._sturmian = sturmian_spec()
        spec = self._sturmian
        for label in spec.partition.labels:
            if occurs_at(spec, FiniteWord((1, 1), (label,)), p):
                return label
        raise AssertionError(f"no label occurs at {p}")

    def round(self, k: int) -> list[Request]:
        rng = round_rng(self.seed, k)
        box = "9x4" if self.tiny else "12x8"
        side = self.render_side
        reqs = [
            _cli_request(["derive", "--word", self.DERIVE_WORD, "--size", size,
                          "--box", box, "--scheme", scheme],
                         self._derive_check(box, uniform=scheme == "uniform"))
            for scheme, size in self.DERIVE_SIZES.items()
        ]
        ur_budget = ["--budget", "5000,5,3,3,24" if self.tiny else "5000,5,3,3,128"]
        reqs.append(_cli_request(["check", "--word", "toeplitz-random", "--seed", str(self.seed),
                                  "--mode", "ur", *ur_budget], self._ur_check))
        reqs.append(_cli_request(["check", "--word", "gcd-thue-morse", "--mode", "ur",
                                  *ur_budget], self._ur_check))
        for preset in self.RENDER_PRESETS:
            for fmt in ("text", "pgm"):
                reqs.append(_cli_request(
                    ["generate", "--preset", preset, "--box", f"{side}x{side}", "--format", fmt],
                    self._preset_render_check(preset, fmt, rng.randrange(1 << 30))))
        sw, sh = (8, 4) if self.tiny else self.STURMIAN_BOX
        for fmt in ("text", "pgm"):
            reqs.append(_cli_request(
                ["generate", "--word", "sturmian", "--box", f"{sw}x{sh}", "--format", fmt],
                self._sturmian_render_check(sw, sh, fmt, rng.randrange(1 << 30))))
        return reqs

    def figures_request(self) -> Request:
        return _cli_request(["verify-figures"], self._figures_check)

    @staticmethod
    def _figures_check(text: str) -> list[str]:
        lines = text.splitlines()
        bad = [line for line in lines if not line.startswith("PASS ")]
        if len(lines) != 11 or bad:
            return [f"{len(lines)} figure lines, not all PASS: {bad[:2]}"]
        return []

    @staticmethod
    def _derive_check(box: str, uniform: bool) -> Callable[[str], list[str]]:
        width, height = (int(v) for v in box.split("x"))

        def check(text: str) -> list[str]:
            rows = _grid_tokens(text)
            problems = _shape_problems(rows, width, height)
            if problems:
                return problems
            cells = [c for row in rows for c in row]
            marks = [i for i, c in enumerate(cells) if c == "?"]
            origin = (height - 1) * width  # bottom row printed last
            if marks != ([origin] if uniform else []):
                return [f"undefined cells at {marks}"]
            if not all(c.isdigit() for i, c in enumerate(cells) if i not in marks):
                return ["non-numeric code"]
            if not uniform and cells[origin] != "0":
                return ["per-direction origin code is not 0"]
            return []

        return check

    @staticmethod
    def _ur_check(text: str) -> list[str]:
        lines = text.splitlines()
        pattern = re.compile(r"size=\((\d), \1\) window=(\d+)$")
        matches = [pattern.match(line) for line in lines]
        if len(lines) != 3 or not all(matches):
            return [f"unexpected ur output {lines[:3]}"]
        if [int(m.group(1)) for m in matches] != [1, 2, 3]:
            return ["ur sizes out of order"]
        return []

    def _render_rows(self, text: str, fmt: str, width: int, height: int):
        """Bottom-first letter rows from text or binary pgm output."""
        lines = text.splitlines()
        if fmt == "pgm":
            if lines[:3] != ["P2", f"{width} {height}", "255"]:
                return None, [f"bad pgm header {lines[:3]}"]
            rows = [[0 if t == "0" else 1 if t == "255" else -1 for t in line.split()]
                    for line in lines[3:]]
        else:
            rows = [[int(t) for t in line.split()] for line in lines]
        problems = _shape_problems(rows, width, height)
        return rows[::-1], problems

    def _preset_render_check(self, preset, fmt, sample_seed) -> Callable[[str], list[str]]:
        side = self.render_side

        def check(text: str) -> list[str]:
            rows, problems = self._render_rows(text, fmt, side, side)
            if problems:
                return problems
            prefix = self.prefix(preset)
            sampler = random.Random(sample_seed)
            for _ in range(32):
                x, y = sampler.randrange(side), sampler.randrange(side)
                if rows[y][x] != prefix[(x, y)]:
                    return [f"cell {(x, y)} differs from the iterate block"]
            return []

        return check

    def _sturmian_render_check(self, width, height, fmt, sample_seed):
        def check(text: str) -> list[str]:
            rows, problems = self._render_rows(text, fmt, width, height)
            if problems:
                return problems
            sampler = random.Random(sample_seed)
            for _ in range(6):
                x, y = sampler.randrange(width), sampler.randrange(height)
                if rows[y][x] != self.sturmian_letter((x, y)):
                    return [f"cell {(x, y)} differs from the factor interval sets"]
            return []

        return check


CLASSES = {
    "scan-rotation": ScanRotation,
    "scan-morphic": ScanMorphic,
    "survey-2x2": Survey2x2,
    "grids": Grids,
}


def build(name: str, seed: int, tiny: bool = False):
    return CLASSES[name](seed, tiny)
