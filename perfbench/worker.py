"""One benchmark run in a fresh interpreter: set-up, then a closed loop.

One client sends the next request only after the previous one returned.
The seeded round of requests (see ``workloads``) is repeated, with fresh
word objects each time, until ``--seconds`` have passed.

Every sample is scaled to a reference speed.  The speed a shared machine
gives one process drifts by a tenth or more over tens of seconds, so
between the requests of a round (before the first, after the last and
otherwise every ``REF_EVERY_S`` seconds, outside the timed region) the
worker times a fixed pure-Python loop.  A sample of ``t`` seconds is
reported as ``t * REF_S / r``, the time it would take where the loop takes
``REF_S``, with ``r`` the median of the loop's timings nearest the request
(three on each side; for a pooled request, all of the round's).  The raw
samples are returned as well.
The package's module-level caches are reset before every request, outside
the timed region, so every sample pays the cold-cache cost that one
command-line run pays.  Outputs are checked in full after the first
repetition, outside the timed region; later repetitions must reproduce
the same output digests.  With ``--trace 1`` the repetitions alternate
between untraced and traced, so the per-layer numbers and the tracing
overhead refer to the same requests.

Prints one JSON object on stdout.  Started by ``run.py``; not meant to be
run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
OUT = HERE / "out"

# A round is never started when it could run past this many seconds.
HARD_LIMIT_S = 140.0

# Nominal time of the reference loop, and how often a round times it.
REF_S = 0.005
REF_EVERY_S = 0.25

import workloads  # noqa: E402  (stdlib only; multirec is imported during set-up)


def reference_s() -> float:
    """Fastest of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        best = min(best, perf_counter() - start)
    return best


def run_round(reqs, tracer=None, tag: str = ""):
    """Time each request from outside; returns (wall, [(output, error,
    seconds, reference time around it)], median reference time)."""
    results = []
    refs = [reference_s()]
    first = last_ref = perf_counter()
    for i, req in enumerate(reqs):
        if perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(reference_s())
            last_ref = perf_counter()
        workloads.reset_caches()
        start = perf_counter()
        try:
            if tracer is None:
                out = req.run()
            else:
                out = tracer.request(f"{tag}{i}", req.run)
            err = None
        except Exception as exc:  # a request that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((out, err, perf_counter() - start, len(refs) - 1))
    refs.append(reference_s())
    typical = statistics.median(refs)
    results = [(out, err, t, typical if req.pooled else statistics.median(refs[max(k - 2, 0):k + 4]))
               for req, (out, err, t, k) in zip(reqs, results)]
    return perf_counter() - first, results, typical


class Ledger:
    """Attempted and failed requests, the first problems, output digests."""

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, reqs, results) -> None:
        """Check outputs in full once; a repetition must repeat the digest."""
        for req, (out, err, _, _) in zip(reqs, results):
            self.attempted += 1
            if err:
                problems = [err]
            elif req.key in self.digests:
                digest, expected = req.digest(out), self.digests[req.key]
                problems = [] if digest == expected else [
                    f"digest {digest} differs from the first repetition's {expected}"]
            else:
                problems = req.check(out)
                digest = req.digest(out)
                pinned = None if self.pins is None else self.pins.get(req.key)
                if not problems:
                    self.digests[req.key] = digest
                if not problems and pinned is not None and pinned != digest:
                    problems = [f"digest {digest} differs from pinned {pinned}"]
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{req.key}: {problems[0]}")


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers": workloads.worker_count(),
        "seed": seed,
    }


def load_pins(name: str, seed: int, tiny: bool) -> dict | None:
    if tiny or not PINS.is_file():
        return None
    data = json.loads(PINS.read_text())
    if seed != data.get("seed"):
        return None
    return data["workloads"].get(name)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    start = perf_counter()
    import multirec

    source = Path(multirec.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"imported multirec from {source}, not from this checkout")
    workload = workloads.build(args.workload, args.seed, args.tiny)
    reqs = workload.round(0)
    setup_s = perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ledger = Ledger(load_pins(args.workload, args.seed, args.tiny))
    result = {"setup_s": setup_s, "env": environment(args.seed)}
    if args.trace:
        result.update(traced_loop(args, workload, reqs, ledger))
    else:
        result.update(untraced_loop(args, workload, reqs, ledger))
    result.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        problems=ledger.problems,
        digests=ledger.digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


def _out_of_time(began: float, seconds: float, last_round: float) -> bool:
    """Stop once ``seconds`` have passed, or when one more round would end
    more than a quarter past them."""
    elapsed = perf_counter() - began
    return (elapsed >= seconds or elapsed + last_round > 1.25 * seconds
            or elapsed + 2 * last_round > HARD_LIMIT_S)


class Samples:
    """Each distinct request's samples, scaled to the reference speed and raw."""

    def __init__(self):
        self.scaled: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.walls: list[float] = []
        self.refs: list[float] = []

    def add(self, reqs, wall: float, results, ref: float) -> None:
        self.walls.append(wall)
        self.refs.append(ref)
        for req, (_, _, seconds, local_ref) in zip(reqs, results):
            self.scaled.setdefault(req.key, []).append(seconds * REF_S / local_ref)
            self.raw.setdefault(req.key, []).append(seconds)

    def result(self) -> dict:
        return {"samples": self.scaled, "raw_samples": self.raw,
                "round_walls": self.walls, "round_refs": self.refs}


def untraced_loop(args, workload, reqs, ledger) -> dict:
    samples = Samples()
    began = perf_counter()
    while True:
        wall, results, ref = run_round(reqs)
        samples.add(reqs, wall, results, ref)
        ledger.check(reqs, results)
        if _out_of_time(began, args.seconds, wall):
            break
        reqs = workload.round(0)  # same inputs, fresh word objects
    return samples.result()


def traced_loop(args, workload, reqs, ledger) -> dict:
    from tracer import Tracer

    tracer, figures = Tracer(), Tracer()
    figures_request = getattr(workload, "figures_request", None)
    untraced, traced = Samples(), Samples()
    reps = 0
    began = perf_counter()
    while True:
        pair_began = perf_counter()
        wall, results, ref = run_round(reqs)
        untraced.add(reqs, wall, results, ref)
        ledger.check(reqs, results)
        reqs = workload.round(0)
        tracer.install()
        try:
            wall, results, ref = run_round(reqs, tracer, tag=f"r{reps}.")
        finally:
            tracer.uninstall()
        if figures_request is not None:
            # Outside the timed round, under its own tracer, so that only
            # the figures layer is taken from it.
            extra = [figures_request()]
            figures.install()
            try:
                _, extra_results, _ = run_round(extra, figures, tag=f"r{reps}.figures")
            finally:
                figures.uninstall()
            ledger.check(extra, extra_results)
        reps += 1
        traced.add(reqs, wall, results, ref)
        ledger.check(reqs, results)
        if _out_of_time(began, args.seconds, perf_counter() - pair_began):
            break
        reqs = workload.round(0)
    # Overhead from raw times: both sides ran in the same process, in turn.
    traced_wall = sum(min(v) for v in traced.raw.values())
    untraced_wall = sum(min(v) for v in untraced.raw.values())
    layer = tracer.layer_metrics(reps, traced_wall, untraced_wall,
                                 workloads.worker_count())
    if figures_request is not None:
        layer["figures.verify_figures.self_s"] = figures.group("figures.verify_figures")[2] / reps
    OUT.mkdir(exist_ok=True)
    dump = tracer.dump()
    if figures_request is not None:
        dump["figures_tracer"] = figures.dump()
    dump.update(workload=args.workload, env=environment(args.seed),
                untraced_samples=untraced.raw, traced_samples=traced.raw, metrics=layer)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(dump))
    return {"layer": layer, **untraced.result(), "trace_file": str(path.relative_to(ROOT))}


if __name__ == "__main__":
    sys.exit(main())
