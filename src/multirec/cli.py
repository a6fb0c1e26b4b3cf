"""Command line front end.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a check or
comparison fails, 3 when a scan runs out of its budget before deciding.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .derive import UNIFORM, derivative_per_direction, derivative_uniform, directional_blocks
from .errors import FixtureMissing, InvalidInput, MultirecError, ReturnScanFailed
from .figures import verify_figures
from .generators import PRESET_NAMES, Morphism, load_preset, morphism_from_json, named_word
from .lattice import FiniteWord, WordSource
from .morphic import NOT_SURD, classify_2x2, non_surd_2x2_witness, survey_all_2x2
from .recurrence import (
    BOUNDED_WITNESSED,
    RecurrenceBudget,
    check_ssurdo_empirical,
    check_surd_empirical,
    check_ur_empirical,
    check_urd_empirical,
)
from .render import FORMATS, TEXT, UNDEFINED, render_rows, sample_rows
from .residues import family_c

USAGE_EXIT = 1
CHECK_FAILED_EXIT = 2
BUDGET_EXIT = 3

_JSON_SEP = (",", ": ")

# Most letters one generate or extract run, one scanned line or one ur
# grid may read, and most residues a subgroups run may enumerate; larger
# runs are refused.
_MAX_LETTERS = 1 << 20
# Most (size, origin, direction) lines one check run may scan.
_MAX_LINES = 1 << 16
# Most letters one check or derive run may read over all its lines: lines x
# (horizon + 1) in a check, scan-box cells x block cells x (horizon + 1) in
# a derive.
_MAX_SCAN_LETTERS = 1 << 26


class _Parser(argparse.ArgumentParser):
    """argparse reserves status 2 for bad flags; this tool uses 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message)


class _CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# flag parsing helpers


def parse_box(text: str, flag: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split("x"))
    except ValueError:
        raise InvalidInput(f"bad {flag} {text!r}, expected like 27x8")
    if not parts or any(p < 1 for p in parts):
        raise InvalidInput(f"bad {flag} {text!r}, sides must be positive")
    return parts


def parse_vector(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidInput(f"bad {flag} {text!r}, expected like 1,2")


def parse_budget(text: str) -> RecurrenceBudget:
    parts = text.split(",")
    if len(parts) != 5:
        raise InvalidInput("budget takes five comma separated integers L,Q,S,P,B")
    try:
        l, q, s, p, b = (int(x) for x in parts)
        return RecurrenceBudget(l, q, s, p, b)
    except ValueError as exc:
        raise InvalidInput(f"bad budget {text!r}: {exc}")


def _morphism(args) -> Morphism:
    """The morphism of --preset or --morphism."""
    if args.preset:
        return load_preset(args.preset)
    with open(args.morphism, encoding="utf-8") as fh:
        return morphism_from_json(json.load(fh))


def _word(args) -> WordSource:
    """The word of the word flags: a named word, or the fixed point of
    --letter (of 1 where a subcommand has no --letter) of the morphism."""
    if args.word is not None:
        return named_word(args.word, seed=args.seed)
    return _morphism(args).fixed_point(getattr(args, "letter", 1))


def _check_dimension(w: WordSource, *flags: tuple[str, str | None, tuple | None]) -> None:
    """Refuse a (flag, text, vector) whose vector's length is not the
    word's dimension; a missing vector is skipped."""
    for flag, text, v in flags:
        if v is not None and len(v) != w.dimension:
            raise InvalidInput(f"bad {flag} {text!r}, the word has dimension {w.dimension}")


def _check_read_size(what: str, letters: int, limit: int = _MAX_LETTERS) -> None:
    if letters > limit:
        raise InvalidInput(f"{what} reads more than the limit of {limit} letters")


def _check_budget(budget: RecurrenceBudget, mode: str, d: int) -> None:
    """Refuse a budget whose reads exceed the limits, before reading: a
    line's horizon + 1 letters, the line count (origins enumerated in
    ssurdo mode only) and the letters of all lines in the line modes, the
    window scan's grid in ur."""
    if mode == "ur":
        side = 2 * budget.block_bound + budget.size_bound
        _check_read_size(f"--budget ur grid {side}^{d}", side ** d)
        return
    _check_read_size(f"--budget horizon {budget.horizon}", budget.horizon + 1)
    origins = (budget.origin_bound + 1) ** d if mode == "ssurdo" else 1
    lines = budget.size_bound ** d * origins * (budget.direction_bound + 1) ** d
    if lines > _MAX_LINES:
        raise InvalidInput(f"--budget scans about {lines} lines, above the limit of {_MAX_LINES}")
    _check_read_size(f"--budget of about {lines} lines to horizon {budget.horizon}",
                     lines * (budget.horizon + 1), _MAX_SCAN_LETTERS)


def block_text(block: FiniteWord) -> str:
    """[top/.../bottom] with rows read left to right, matching the grid
    orientation of the text renderer."""
    rows = sample_rows(block, block.size)
    return "[" + "/".join("".join(str(c) for c in row) for row in reversed(rows)) + "]"


def emit(text: str, path: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def dump_json(obj) -> str:
    return json.dumps(obj, separators=_JSON_SEP)


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    if args.word is not None and args.letter is not None:
        raise InvalidInput("--letter picks a fixed point of --preset or --morphism, not of --word")
    args.letter = 1 if args.letter is None else args.letter
    if args.iterate is not None:
        if args.box is not None:
            raise InvalidInput("--box and --iterate are mutually exclusive")
        if args.word is not None:
            raise InvalidInput("--iterate renders the image of a letter under a morphism; "
                               "it needs --preset or --morphism, not --word")
        if args.iterate < 0:
            raise InvalidInput(f"bad --iterate {args.iterate}, it must be nonnegative")
        phi = _morphism(args)
        # capped exponent: a huge --iterate is refused, not computed; the
        # levels count too, since a one-cell image never grows
        n = args.iterate
        _check_read_size(f"--iterate {n}", max(math.prod(phi.dims) ** min(n, 64), n))
        w = phi.iterate(args.letter, n)
        box, k = w.size, max(phi.alphabet_size, 2)
    else:
        if args.box is None:
            raise InvalidInput("generate needs --box (or --iterate)")
        box = parse_box(args.box, "--box")
        w = _word(args)
        _check_dimension(w, ("--box", args.box, box))
        _check_read_size(f"--box {args.box}", math.prod(box))
        k = w.alphabet_size
    emit(render_rows(sample_rows(w, box), k, args.format), args.output)
    return 0


def cmd_extract(args) -> int:
    w = _word(args)
    direction = parse_vector(args.dir, "--dir")
    if not any(direction):
        raise InvalidInput(f"bad --dir {args.dir}, the zero vector gives no direction")
    size = parse_box(args.size, "--size")
    if args.len < 0:
        raise InvalidInput(f"bad --len {args.len}, it must be nonnegative")
    _check_read_size(f"--len {args.len} of size {args.size}", args.len * math.prod(size))
    origin = parse_vector(args.origin, "--origin") if args.origin else None
    _check_dimension(w, ("--dir", args.dir, direction), ("--size", args.size, size),
                     ("--origin", args.origin, origin))
    blocks = directional_blocks(w, direction, size, args.len, origin)
    emit(dump_json([b.to_nested() for b in blocks]) if args.json
         else "".join(block_text(b) for b in blocks), args.output)
    return 0


def _gap_line(r) -> str:
    gap = "-" if r.max_gap is None else str(r.max_gap)
    return (
        f"dir={r.direction} size={r.size} origin={r.origin} "
        f"occurrences={r.count} max-gap={gap} {r.verdict}"
    )


def cmd_check(args) -> int:
    w = _word(args)
    budget = parse_budget(args.budget) if args.budget else RecurrenceBudget()
    claim = args.claim
    if claim is not None and args.mode == "ur":
        raise InvalidInput("--claim bounds gaps in urd, surd and ssurdo modes; ur has none")
    if claim is not None and claim < 1:
        raise InvalidInput(f"bad --claim {claim}, no gap is below 1")
    _check_budget(budget, args.mode, w.dimension)
    failed = False
    lines = []
    payload: list[dict] = []
    if args.mode == "urd":
        for r in check_urd_empirical(w, budget, claim=claim):
            lines.append(_gap_line(r))
            payload.append(
                {
                    "direction": list(r.direction),
                    "size": list(r.size),
                    "max_gap": r.max_gap,
                    "verdict": r.verdict,
                }
            )
            failed |= r.verdict != BOUNDED_WITNESSED
    elif args.mode in ("surd", "ssurdo"):
        run = check_surd_empirical if args.mode == "surd" else check_ssurdo_empirical
        for s in run(w, budget, claim=claim):
            bound = "-" if s.bound is None else str(s.bound)
            lines.append(
                f"size={s.size} sup-gap={bound} {s.verdict} "
                f"(worst {_gap_line(s.worst)})"
            )
            payload.append(
                {"size": list(s.size), "sup_gap": s.bound, "verdict": s.verdict}
            )
            failed |= s.verdict != BOUNDED_WITNESSED
    else:
        for r in check_ur_empirical(w, budget):
            win = "-" if r.window is None else str(r.window)
            lines.append(f"size={r.size} window={win}")
            payload.append({"size": list(r.size), "window": r.window})
            failed |= r.window is None
    emit(dump_json(payload) if args.json else "\n".join(lines), args.output)
    if failed:
        raise _CheckFailed(f"{args.mode} check failed for {args.preset or args.word}")
    return 0


def _witness_summary(phi: Morphism, param: int) -> dict:
    witness = non_surd_2x2_witness(phi)
    direction = witness.direction(param)
    zeros = witness.zero_multipliers(param, horizon=64)
    return {
        "case": witness.case,
        "pattern": witness.pattern,
        "direction": list(direction),
        "zero_multipliers": [zeros.start, zeros.stop - 1],
        "verified": witness.verify(phi, param, horizon=64),
    }


def cmd_classify(args) -> int:
    param = args.param
    if args.all:
        if args.workers < 1:
            raise InvalidInput(f"bad --workers {args.workers}, it must be at least 1")
        try:
            results = survey_all_2x2(param=param)
        except InvalidInput as exc:
            raise InvalidInput(f"bad --param {param}: {exc}") from None
        surd = sum(1 for r in results if r["verdict"] == "SURD")
        bad = [r for r in results if not r["ok"]]
        if args.json:
            emit(dump_json(results), args.output)
        else:
            lines = [
                f"total={len(results)} SURD={surd} NOT_SURD={len(results) - surd} "
                f"failures={len(bad)}"
            ]
            lines += [
                f"FAIL zero={r['zero']} one={r['one']} verdict={r['verdict']}"
                for r in bad
            ]
            emit("\n".join(lines), args.output)
        if bad:
            raise _CheckFailed("survey found verdicts the scans contradict")
        return 0
    phi = _morphism(args)
    verdict = classify_2x2(phi)
    info = {"verdict": verdict}
    if verdict == NOT_SURD:
        try:
            info.update(_witness_summary(phi, param))
        except InvalidInput as exc:
            raise InvalidInput(f"bad --param {param}: {exc}") from None
    if args.json:
        emit(dump_json(info), args.output)
    elif verdict == NOT_SURD:
        lo, hi = info["zero_multipliers"]
        emit(
            f"{verdict}\nwitness {info['case']}: direction "
            f"{tuple(info['direction'])} reads 0 at multipliers {lo}..{hi}, "
            f"verified={info['verified']}",
            args.output,
        )
    else:
        emit(verdict, args.output)
    if verdict == NOT_SURD and not info["verified"]:
        raise _CheckFailed("witness direction failed its own scan")
    return 0


def cmd_subgroups(args) -> int:
    # s^d generators of s residues each; for s >= 2 an exponent past 20 is
    # over the limit anyway
    if args.s < 2 or args.d < 1 or args.s ** min(args.d + 1, 21) > _MAX_LETTERS:
        raise InvalidInput(f"bad --s {args.s} --d {args.d}: need s >= 2, d >= 1 and "
                           f"s^(d+1) within the limit of {_MAX_LETTERS}")
    fam = family_c(args.s, args.d)
    if args.json:
        payload = [
            {
                "generator": list(g.generator),
                "elements": [list(e) for e in sorted(g.elements)],
            }
            for g in fam.subgroups
        ]
        emit(dump_json({"s": args.s, "d": args.d, "subgroups": payload}), args.output)
        return 0
    lines = [f"C({args.s}) in dimension {args.d}: {len(fam.subgroups)} subgroups"]
    for g in fam.subgroups:
        elems = " ".join(str(e) for e in sorted(g.elements))
        lines.append(f"<{g.generator}>: {elems}")
    emit("\n".join(lines), args.output)
    return 0


def cmd_derive(args) -> int:
    w = _word(args)
    size = parse_box(args.size, "--size")
    box = parse_box(args.box, "--box")
    _check_dimension(w, ("--size", args.size, size), ("--box", args.box, box))
    per_direction = args.scheme == "per-direction"
    if args.scan_box is not None and per_direction:
        raise InvalidInput("--scan-box applies only to --scheme uniform")
    scan = None if args.scan_box is None else parse_box(args.scan_box, "--scan-box")
    if scan is not None and len(scan) != len(box):
        raise InvalidInput(f"--scan-box {args.scan_box} and --box {args.box} differ in dimension")
    if scan is not None and any(a < b for a, b in zip(scan, box)):
        raise InvalidInput(f"--scan-box {args.scan_box} does not contain --box {args.box}")
    if args.horizon < 0:
        raise InvalidInput(f"bad --horizon {args.horizon}, it must be nonnegative")
    # the box whose lines are read, at most one line per cell
    scanned = box if per_direction else scan or (max(box),) * len(box)
    _check_read_size(f"derive of size {args.size} over {'x'.join(map(str, scanned))} "
                     f"to horizon {args.horizon}",
                     math.prod(scanned) * math.prod(size) * (args.horizon + 1), _MAX_SCAN_LETTERS)
    if per_direction:
        dw = derivative_per_direction(w, size, box, horizon=args.horizon)
    else:
        dw = derivative_uniform(w, size, box, horizon=args.horizon, scan_box=scan)
    if args.json:
        payload = {
            "scheme": dw.scheme,
            "size": list(size),
            "box": list(box),
            "codes": dw.to_nested(),
        }
        if dw.scheme == UNIFORM:
            payload["table"] = [
                [b.to_nested() for b in dw.tables[None].blocks_of(c)]
                for c in range(len(dw.tables[None]))
            ]
        emit(dump_json(payload), args.output)
        return 0
    nested = dw.to_nested()
    rows = [["?" if c == UNDEFINED else str(c) for c in row]
            for row in ([nested] if len(box) == 1 else nested)]
    width = max(len(t) for row in rows for t in row)
    emit("\n".join(" ".join(t.rjust(width) for t in row) for row in reversed(rows)), args.output)
    return 0


def cmd_verify_figures(args) -> int:
    reports = verify_figures()
    bad = [r for r in reports if not r.ok]
    for r in reports:
        print(("PASS " if r.ok else "FAIL ") + f"{r.name} - {r.detail}")
    if bad:
        raise _CheckFailed(f"{len(bad)} figure comparisons failed")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


# Flags that several subcommands share: their names and argparse keywords.
_SHARED = {
    "preset": (("--preset",), {"choices": PRESET_NAMES, "help": "built in morphism"}),
    "word": (("--word",), {"help": "named word (preset or classical)"}),
    "morphism": (("--morphism",), {"metavar": "FILE", "help": "morphism as JSON"}),
    "seed": (("--seed",), {"type": int, "default": 0, "help": "seed for random fillings"}),
    "json": (("--json",), {"action": "store_true"}),
    "output": (("-o", "--output"), {}),
}


def _add(target, *flags: str) -> None:
    """Add shared flags to a parser or group, in the order given."""
    for flag in flags:
        names, kwargs = _SHARED[flag]
        target.add_argument(*names, **kwargs)


@functools.cache
def build_parser() -> _Parser:
    top = _Parser(prog="multirec", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("generate", help="render a prefix grid")
    _add(p.add_mutually_exclusive_group(required=True), "preset", "word", "morphism")
    p.add_argument("--box", help="prefix extent, like 32x32")
    p.add_argument("--iterate", type=int, metavar="N", help="render the N-th image of --letter instead of a fixed point prefix")
    p.add_argument("--letter", type=int)
    p.add_argument("--format", choices=FORMATS, default=TEXT)
    _add(p, "seed", "output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("extract", help="read blocks along a direction")
    _add(p.add_mutually_exclusive_group(required=True), "preset", "word")
    _add(p, "seed")
    p.add_argument("--dir", required=True, help="direction, like 1,1")
    p.add_argument("--size", required=True, help="block size, like 1x2")
    p.add_argument("--len", type=int, required=True, help="number of blocks")
    p.add_argument("--origin", help="shift the word first, like 3,0")
    _add(p, "json", "output")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("check", help="scan recurrence gaps")
    _add(p.add_mutually_exclusive_group(required=True), "preset", "word")
    _add(p, "seed")
    p.add_argument("--mode", choices=("urd", "surd", "ssurdo", "ur"), default="urd")
    p.add_argument("--budget", metavar="L,Q,S,P,B", help="horizon, direction, size, origin, block bounds")
    p.add_argument("--claim", type=int, help="gap bound the scan must stay under")
    _add(p, "json", "output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="decide recurrence for 2x2 binary morphisms")
    group = p.add_mutually_exclusive_group(required=True)
    _add(group, "preset", "morphism")
    group.add_argument("--all", action="store_true", help="survey every candidate")
    p.add_argument("--param", type=int, default=3, help="parameter for witness directions")
    p.add_argument("--workers", type=int, default=1, help="no effect: --all runs in one process")
    _add(p, "json", "output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("subgroups", help="list cyclic subgroups of (Z/s)^d")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    _add(p, "json", "output")
    p.set_defaults(func=cmd_subgroups)

    p = sub.add_parser("derive", help="code return words on a grid")
    p.add_argument("--word", required=True, help="named word (preset or classical)")
    p.add_argument("--size", required=True, help="prefix block size, like 1x2")
    p.add_argument("--scheme", choices=("per-direction", "uniform"), default="per-direction")
    p.add_argument("--box", required=True, help="grid extent, like 27x8")
    p.add_argument("--scan-box", help="table collection extent (uniform only)")
    p.add_argument("--horizon", type=int, default=512)
    _add(p, "seed", "json", "output")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("verify-figures", help="compare against shipped reference grids")
    p.set_defaults(func=cmd_verify_figures)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # raised by the overridden parser error hook
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return USAGE_EXIT
        return 0 if exc.code in (0, None) else USAGE_EXIT
    except ReturnScanFailed as exc:
        print(f"multirec: budget exhausted: {exc}", file=sys.stderr)
        return BUDGET_EXIT
    except (_CheckFailed, FixtureMissing) as exc:
        print(f"multirec: {exc}", file=sys.stderr)
        return CHECK_FAILED_EXIT
    except (MultirecError, OSError, KeyError, ValueError) as exc:
        print(f"multirec: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
