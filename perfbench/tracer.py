"""Per-layer tracing installed from outside the package.

The package binds names with ``from .x import y``, so a wrapper has to
replace the function in every ``multirec`` module namespace that holds it
(and, for methods, every class attribute that aliases it).  ``install``
does that and ``uninstall`` puts the originals back, so untraced rounds run
the unmodified code.

Each wrapped entry point belongs to a group.  A group keeps its call count,
total time and self time (total minus the time of wrapped children).  A
re-entrant call into the same group, such as ``QuadExt.__sub__`` calling
``__add__``, is counted but timed as part of the outer call.  Coarse groups
also record spans ``[id, name, start, end, parent id, request id]`` in
memory; they are written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (group, "module:qualname" of the original, record spans)
TARGETS = (
    ("lattice.letter", "lattice:WordSource.letter", False),
    ("lattice.letters_along", "lattice:WordSource.letters_along", False),
    ("lattice.factor_at", "lattice:factor_at", False),
    ("rotation.letter_at", "rotation:IntervalPartition.letter_at", False),
    ("generators.letter_in_fixed_point", "generators:Morphism.letter_in_fixed_point", False),
    ("recurrence.gap_report", "recurrence:gap_report", True),
    ("recurrence.occurrence_indices", "recurrence:occurrence_indices", True),
    ("recurrence.sweep", "recurrence:check_urd_empirical", True),
    ("recurrence.sweep", "recurrence:check_surd_empirical", True),
    ("recurrence.sweep", "recurrence:check_ssurdo_empirical", True),
    ("recurrence.sample_grid", "recurrence:sample_grid", True),
    ("recurrence.smallest_covering_window", "recurrence:smallest_covering_window", True),
    ("derive.return_words_along", "derive:return_words_along", True),
    ("derive.grid", "derive:derivative_uniform", True),
    ("derive.grid", "derive:derivative_per_direction", True),
    ("morphic.classify_2x2", "morphic:classify_2x2", True),
    ("morphic.witness_verify", "morphic:Witness2x2.verify", True),
    ("morphic.survey_2x2_entry", "morphic:survey_2x2_entry", True),
    ("morphic.survey_all_2x2", "morphic:survey_all_2x2", True),
    ("render.render_rows", "render:render_rows", True),
    ("figures.verify_figures", "figures:verify_figures", True),
    ("cli.main", "cli:main", True),
) + tuple(
    ("quadratic.QuadExt", f"quadratic:QuadExt.{name}", False)
    for name in ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                 "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "compare", "sign",
                 "floor", "mod1")
)

# Counted, never timed: object creation is too frequent to time.
COUNTED = (("lattice.FiniteWord.created", "lattice:FiniteWord.__init__"),)

MAX_SPANS = 200_000

# name, unit, better, which end-to-end metric it should move and where.
LAYER_METRICS = (
    ("lattice.letter.calls", "count", "lower", "wall_s on scan-rotation, scan-morphic"),
    ("lattice.letters_along.letters", "count", "lower", "wall_s on scan-rotation, scan-morphic"),
    ("lattice.factor_at.calls", "count", "lower", "wall_s, peak_rss_mb on grids"),
    ("lattice.factor_at.self_s", "s", "lower", "wall_s, peak_rss_mb on grids"),
    ("lattice.FiniteWord.created", "count", "lower", "wall_s, peak_rss_mb on grids"),
    ("quadratic.QuadExt.ops", "count", "lower", "wall_s, req_p90_ms on scan-rotation; ~0 elsewhere"),
    ("quadratic.QuadExt.self_s", "s", "lower", "wall_s, req_p90_ms on scan-rotation; ~0 elsewhere"),
    ("quadratic.QuadExt.share", "ratio", "lower", "wall_s on scan-rotation"),
    ("rotation.letter_at.calls", "count", "lower", "wall_s on scan-rotation; grids via the Sturmian render"),
    ("generators.letter_in_fixed_point.calls", "count", "lower", "wall_s on scan-morphic"),
    ("generators.letter_in_fixed_point.self_s", "s", "lower", "wall_s on scan-morphic"),
    ("recurrence.gap_report.calls", "count", "lower", "wall_s, req_p50_ms on scan-rotation, scan-morphic"),
    ("recurrence.occurrence_indices.self_s", "s", "lower", "wall_s, req_p50_ms on scan-rotation, scan-morphic"),
    ("recurrence.letters_per_occurrence", "letters/occ", "lower", "wall_s, req_p50_ms on scan-rotation, scan-morphic"),
    ("recurrence.sweep.self_s", "s", "lower", "wall_s, req_p50_ms on scan-morphic"),
    ("recurrence.sample_grid.cells", "count", "lower", "wall_s on grids"),
    ("recurrence.smallest_covering_window.self_s", "s", "lower", "wall_s on grids"),
    ("derive.return_words_along.calls", "count", "lower", "wall_s, peak_rss_mb on grids"),
    ("derive.return_words_along.self_s", "s", "lower", "wall_s, peak_rss_mb on grids"),
    ("derive.grid.self_s", "s", "lower", "wall_s, peak_rss_mb on grids"),
    ("morphic.classify_2x2.self_s", "s", "lower", "wall_s on survey-2x2"),
    ("morphic.witness_verify.self_s", "s", "lower", "wall_s on survey-2x2"),
    ("morphic.survey_2x2_entry.self_s", "s", "lower", "wall_s on survey-2x2"),
    ("morphic.pool_efficiency", "ratio", "higher", "wall_s on survey-2x2"),
    ("render.render_rows.self_s", "s", "lower", "wall_s on grids"),
    ("figures.verify_figures.self_s", "s", "lower",
     "no timed metric: verify-figures runs once per traced grids round, outside the timed round"),
    ("cli.main.self_s", "s", "lower", "wall_s on grids"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
    ("trace.overhead_frac", "ratio", "lower", "none: overhead_s over untraced wall_s"),
)


def _resolve(spec: str):
    module, qualname = spec.split(":")
    owner = sys.modules[f"multirec.{module}"]
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # group -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {
            "lattice.letters_along.letters": 0,
            "recurrence.sample_grid.cells": 0,
            "recurrence.occurrences": 0,
            "recurrence.letters_in_occurrence_indices": 0,
        }
        self.stack: list[list] = []  # [group stats, child seconds, span id]
        self.spans: list[list] = []
        self.spans_dropped = 0
        self._next_id = 0
        self.request_id: str | None = None
        self._in_occurrence = 0
        self._undo: list[tuple] = []

    # ---- bookkeeping --------------------------------------------------

    def _group(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def _record(self, sid: int, name: str, start: float, end: float, parent) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append([sid, name, start, end, parent, self.request_id])
        else:
            self.spans_dropped += 1

    def _timed(self, group: str, fn, record_span: bool, after=None):
        rec = self._group(group)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[0] += 1
            if stack and stack[-1][0] is rec:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            parent = sid = None
            if record_span:
                parent = self._parent_span()
                sid = self._next_id
                self._next_id += 1
            frame = [rec, 0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dt = end - start
                rec[1] += dt
                rec[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if record_span:
                    self._record(sid, group, start, end, parent)
            if after is not None:
                after(result)
            return result

        return wrapper

    def request(self, request_id: str, call):
        """Run one request under a root span that its spans point to."""
        self.request_id = request_id
        try:
            return self._timed("request", call, True)()
        finally:
            self.request_id = None

    def _counted(self, group: str, fn):
        rec = self._group(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- per-target side counts ---------------------------------------

    def _after_letter(self, result):
        if self._in_occurrence:
            self.counts["recurrence.letters_in_occurrence_indices"] += 1

    def _after_letters_along(self, result):
        n = len(result)
        self.counts["lattice.letters_along.letters"] += n
        if self._in_occurrence:
            self.counts["recurrence.letters_in_occurrence_indices"] += n

    def _after_sample_grid(self, result):
        self.counts["recurrence.sample_grid.cells"] += result.size

    def _occurrence_wrapper(self, fn):
        inner = self._timed("recurrence.occurrence_indices", fn, True)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._in_occurrence += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                self._in_occurrence -= 1
            self.counts["recurrence.occurrences"] += len(result)
            return result

        return wrapper

    # ---- install / uninstall ------------------------------------------

    def install(self) -> None:
        import multirec.cli  # noqa: F401  (every module the targets name)

        after = {
            "lattice.letter": self._after_letter,
            "lattice.letters_along": self._after_letters_along,
            "recurrence.sample_grid": self._after_sample_grid,
        }
        wrappers = {}
        for group, spec, record_span in TARGETS:
            owner, name, fn = _resolve(spec)
            if group == "recurrence.occurrence_indices":
                wrappers[id(fn)] = (fn, self._occurrence_wrapper(fn))
            else:
                wrappers[id(fn)] = (fn, self._timed(group, fn, record_span, after.get(group)))
        for group, spec in COUNTED:
            owner, name, fn = _resolve(spec)
            wrappers[id(fn)] = (fn, self._counted(group, fn))
        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "multirec" or n.startswith("multirec.")]
        owners += [c for m in list(owners) for c in vars(m).values()
                   if isinstance(c, type) and c.__module__.startswith("multirec")]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((owner, name, value))
                    setattr(owner, name, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # ---- results ------------------------------------------------------

    def group(self, name: str) -> tuple[int, float, float]:
        calls, total, own = self.stats.get(name, (0, 0.0, 0.0))
        return calls, total, own

    def layer_metrics(self, reps: int, traced_wall: float, untraced_wall: float,
                      workers: int) -> dict[str, float]:
        """Per-layer metrics per traced round, named as in LAYER_METRICS."""
        g = self.group
        c = self.counts
        occ = c["recurrence.occurrences"]
        entry_total = g("morphic.survey_2x2_entry")[1]
        pooled_calls, pooled_total = g("morphic.survey_all_2x2")[:2]
        overhead = traced_wall - untraced_wall
        raw = {
            "lattice.letter.calls": g("lattice.letter")[0],
            "lattice.letters_along.letters": c["lattice.letters_along.letters"],
            "lattice.factor_at.calls": g("lattice.factor_at")[0],
            "lattice.factor_at.self_s": g("lattice.factor_at")[2],
            "lattice.FiniteWord.created": g("lattice.FiniteWord.created")[0],
            "quadratic.QuadExt.ops": g("quadratic.QuadExt")[0],
            "quadratic.QuadExt.self_s": g("quadratic.QuadExt")[2],
            "rotation.letter_at.calls": g("rotation.letter_at")[0],
            "generators.letter_in_fixed_point.calls": g("generators.letter_in_fixed_point")[0],
            "generators.letter_in_fixed_point.self_s": g("generators.letter_in_fixed_point")[2],
            "recurrence.gap_report.calls": g("recurrence.gap_report")[0],
            "recurrence.occurrence_indices.self_s": g("recurrence.occurrence_indices")[2],
            "recurrence.sweep.self_s": g("recurrence.sweep")[2],
            "recurrence.sample_grid.cells": c["recurrence.sample_grid.cells"],
            "recurrence.smallest_covering_window.self_s": g("recurrence.smallest_covering_window")[2],
            "derive.return_words_along.calls": g("derive.return_words_along")[0],
            "derive.return_words_along.self_s": g("derive.return_words_along")[2],
            "derive.grid.self_s": g("derive.grid")[2],
            "morphic.classify_2x2.self_s": g("morphic.classify_2x2")[2],
            "morphic.witness_verify.self_s": g("morphic.witness_verify")[2],
            "morphic.survey_2x2_entry.self_s": g("morphic.survey_2x2_entry")[2],
            "render.render_rows.self_s": g("render.render_rows")[2],
            "figures.verify_figures.self_s": g("figures.verify_figures")[2],
            "cli.main.self_s": g("cli.main")[2],
        }
        out = {name: value / reps for name, value in raw.items()}
        # Share of traced request time spent inside exact arithmetic.
        requests_total = g("request")[1]
        out["quadratic.QuadExt.share"] = (
            g("quadratic.QuadExt")[2] / requests_total if requests_total else 0.0)
        out["recurrence.letters_per_occurrence"] = (
            c["recurrence.letters_in_occurrence_indices"] / occ if occ else 0.0)
        # In-process entry time of one pass over the worker-seconds one pooled
        # survey had (a round may hold several).
        out["morphic.pool_efficiency"] = (
            entry_total / reps / (workers * pooled_total / pooled_calls)
            if pooled_total and workers > 1 else 0.0)
        out["trace.overhead_s"] = overhead
        out["trace.overhead_frac"] = overhead / untraced_wall if untraced_wall else 0.0
        return {name: out[name] for name, *_ in LAYER_METRICS}

    def dump(self) -> dict:
        return {
            "groups": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                       for k, v in sorted(self.stats.items())},
            "counts": dict(self.counts),
            "spans_fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
