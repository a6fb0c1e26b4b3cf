"""Benchmark driver for multirec.

    python3 perfbench/run.py --workload scan-rotation --seed 1 --seconds 20 --trace 0

Runs one seeded workload against the package in ``src/`` of the checkout
this file sits in, and prints every metric by name with its unit.  The
last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (see ``tracer.LAYER_METRICS``), including the tracing overhead.

Set-up time is measured in six fresh interpreters, three before the run
and three after it (one before it with ``--tiny``), plus the run process
itself, and reported as their median, scaled like every time to the
reference speed (see ``worker.py``).  The run itself happens in one fresh
process (``worker.py``), a closed loop with one client.

``--workload all`` runs the four workloads in turn and prefixes each
metric with its workload's name.  ``--tiny`` shrinks every round for the
smoke test; ``--write-pins`` stores the output digests of this seed in
``pins.json``.  Exits 2 without a result when the checkout holds no
``src/multirec``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import REF_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "multirec"
WORKER = HERE / "worker.py"

RUN_LIMIT_S = 170.0
SETUP_RUNS = 6  # fresh interpreters that only set up, besides the run process

# name -> unit; bounds live in BENCHMARK.json.
END_TO_END = {
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_worker(argv: list[str], env: dict, timeout: float) -> dict:
    """Run worker.py in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {argv} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker {argv} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_request(samples: dict) -> list[float]:
    """Each distinct request's median sample, in milliseconds."""
    return [statistics.median(v) * 1000 for v in samples.values()]


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    lat_ms = per_request(res["samples"])
    raw_ms = per_request(res["raw_samples"])
    n = len(lat_ms)
    reps = len(res["round_walls"])
    p90 = percentile(lat_ms, 90)
    beyond = sum(x > p90 for x in lat_ms)
    ref = statistics.median(res["round_refs"])
    values = {
        "wall_s": sum(lat_ms) / 1000,
        "req_p50_ms": statistics.median(lat_ms),
        "req_p90_ms": p90,
        # A fresh interpreter's own timing of the loop is noisier than its
        # set-up time, so set-up is scaled by the run's median timing.
        "setup_s": statistics.median(setups) * REF_S / ref,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw = {
        "wall_s": sum(raw_ms) / 1000,
        "req_p50_ms": statistics.median(raw_ms),
        "req_p90_ms": percentile(raw_ms, 90),
        "setup_s": statistics.median(setups),
    }
    notes = {
        "wall_s": f"{n} distinct requests, each at its median over {reps} repetitions "
                  f"of the round; median literal round {statistics.median(res['round_walls']):.4g} s",
        "req_p50_ms": f"n={n}",
        "req_p90_ms": f"n={n}, {beyond} beyond"
                      + ("" if n >= 100 else "; fewer than 100 requests"),
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "peak_rss_mb": "run process",
    }
    lines = [f"reference loop {ref * 1000:.4g} ms (median over rounds); times below are scaled "
             f"to {REF_S * 1000:g} ms, raw times in brackets"]
    for k in END_TO_END:
        measured = f" [raw {raw[k]:.6g}]" if k in raw else ""
        lines.append(f"{k} = {values[k]:.6g} {END_TO_END[k]}{measured} ({notes[k]})")
    return values, lines


def run_one(workload: str, args, env: dict) -> tuple[dict, int, int]:
    """Run one workload, print its lines; returns (metrics, attempted, failed)."""
    began = perf_counter()
    common = ["--workload", workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    setups = []

    def set_up(times: int) -> None:
        for _ in range(times):
            out = run_worker([*common, "--seconds", "0", "--setup-only"], env,
                             RUN_LIMIT_S - (perf_counter() - began))
            setups.append(out["setup_s"])

    # Half the set-ups go after the run, so that one slow spell of the
    # machine does not cover them all.
    before = 1 if args.tiny else SETUP_RUNS // 2
    after = 0 if args.tiny else SETUP_RUNS - before
    if not args.trace:
        set_up(before)
    res = run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                     env, RUN_LIMIT_S - (perf_counter() - began))
    setups.append(res["setup_s"])
    if not args.trace:
        set_up(after)

    info = dict(workload=workload, commit=commit(), src_sha256=src_digest(),
                **res["env"], repetitions=len(res["round_walls"]), requests=res["attempted"])
    print("env " + json.dumps(info))
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted} requests)")
    if args.trace:
        from tracer import LAYER_METRICS

        print(f"trace written to {res['trace_file']}")
        metrics = {}
        for name, unit, _, moves in LAYER_METRICS:
            value = res["layer"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit} (moves {moves})")
    else:
        values, lines = end_to_end(res, setups)
        print("\n".join(lines))
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    if args.write_pins:
        pins_path = HERE / "pins.json"
        data = json.loads(pins_path.read_text()) if pins_path.is_file() else {}
        if data.get("seed") != args.seed:
            data = {"seed": args.seed, "workloads": {}}
        data["workloads"][workload] = res["digests"]
        pins_path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"pinned {len(res['digests'])} digests for seed {args.seed}")
    return metrics, attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--write-pins", action="store_true",
                    help="store this seed's output digests in pins.json")
    args = ap.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"run.py: no package at {PACKAGE}; run from a multirec checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        got, a, f = run_one(name, args, env)
        attempted += a
        failed += f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
