"""Benchmark of the adelic library: one command, three seeded workloads.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload gauss-grid --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md): gauss-grid, fourier-tate, pairing-oscillator.
Each item is checked against its oracle; an item that mismatches or whose
oracle is inconclusive counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: throughput and
per-item latency of one workload process measured for --seconds, its peak
RSS, and the set-up time, the median over SETUP_PROBES fresh interpreters
and the measuring one.  Times are in reference seconds: wall time scaled by
the speed of a fixed kernel sampled on the same core around it, so that
the shared machine's changing speed cancels (speed.py).  item_p90_ms is
the mean of the items ranked in P90_BAND.  The record line
gives the same figures in plain wall time.
--trace 1 reports the per-layer metrics: one fresh process runs a fixed
number of rounds twice each, first with spans around each layer's public
entry points and then without, and the ratio of the two passes' summed
item times is the tracing overhead.

The library is imported from ./src, in child processes pinned to one BLAS /
OpenMP thread.  Earlier stdout lines carry a "record" object (environment,
sample counts, failure breakdown, worst residuals); the last line is the
result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("gauss-grid", "fourier-tate", "pairing-oscillator")
SETUP_PROBES = 7
DEADLINE_S = 170.0  # the whole run, children included, ends before this
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TRACE_ROUNDS = 2
P90_BAND = (0.88, 0.92)  # item_p90_ms: the mean of the items ranked in this band


class ChildFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(args: list[str], env: dict, root: Path, deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline); its last line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a workload process")
    launched = time.monotonic()
    cmd = [sys.executable, str(WORKER), *args, "--launched-at", repr(launched)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildFailed(f"workload process exceeded the deadline: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"workload process exited {proc.returncode}: {cmd}")
    return json.loads(lines[-1])


def percentile_band(values: list[float], lo: float, hi: float) -> tuple[float, int]:
    """A percentile as the mean of the values ranked from the lo to the hi
    quantile (by nearest rank), and how many values lie above it.  One order
    statistic in a run's tail jumps with the seed's draw of the few items
    around it; the band's mean does not."""
    ordered = sorted(values)
    value = statistics.fmean(ordered[math.ceil(lo * len(ordered)) - 1:
                                     math.ceil(hi * len(ordered))])
    return value, sum(v > value for v in ordered)


def tally_summary(tallies: list[dict]) -> dict:
    worst = {}
    for t in tallies:
        for name, entry in t["worst"].items():
            if name not in worst or not entry["worst"] <= worst[name]["worst"]:
                worst[name] = entry
    return {
        "attempted": sum(t["attempted"] for t in tallies),
        "mismatches": sum(t["mismatches"] for t in tallies),
        "inconclusive": sum(t["inconclusive"] for t in tallies),
        "worst_residual": worst,
        "notes": [n for t in tallies for n in t["notes"]][:5],
    }


def time_metrics(times: list[float], passed: int) -> dict:
    p90, _ = percentile_band(times, *P90_BAND)
    return {
        "items_per_s": passed / sum(times),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_p90_ms": p90 * 1e3,
    }


def end_to_end(args, env, root, deadline) -> tuple[dict, dict, list[dict]]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = [run_child(base + ["--mode", "setup"], env, root, deadline)
              for _ in range(SETUP_PROBES)]
    run = run_child(base + ["--mode", "measure", "--seconds", str(args.seconds)],
                    env, root, deadline)
    _, beyond = percentile_band(run["item_s"], *P90_BAND)
    attempted = run["tally"]["attempted"]
    failed = attempted - run["passed"]
    setup = [p["setup_s"] for p in probes] + [run["setup_s"]]
    setup_wall = [p["setup_wall_s"] for p in probes] + [run["setup_wall_s"]]
    metrics = {
        **time_metrics(run["item_s"], run["passed"]),
        "verified_share": run["passed"] / attempted,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup),
    }
    record = {
        "items": len(run["item_s"]),
        "rounds": run["rounds"],
        "measured_s": run["wall_s"],
        "items_beyond_p90": beyond,
        "failed_share": failed / attempted,
        "setup_samples_s": setup,
        # the same figures in wall time, not normalized for the core's speed
        "wall": {**time_metrics(run["item_wall_s"], run["passed"]),
                 "setup_s": statistics.median(setup_wall)},
        "speed_kernel_s": run["kernel_s"],
        "environment": run["environment"],
    }
    record["checks_ok"] = all(p["ok"] for p in probes) and run["warmup_ok"]
    tallies = [run["tally"], run["warmup_tally"]] + [p["tally"] for p in probes]
    return metrics, record, tallies


def per_layer(args, env, root, deadline) -> tuple[dict, dict, list[dict]]:
    traced = run_child(["--workload", args.workload, "--seed", str(args.seed),
                        "--mode", "trace", "--rounds", str(TRACE_ROUNDS)],
                       env, root, deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = sum(traced["item_s"]) / sum(traced["untraced_item_s"])
    record = {
        "items": len(traced["item_s"]),
        "rounds": traced["rounds"],
        "untraced_item_s": sum(traced["untraced_item_s"]),
        "traced_item_s": sum(traced["item_s"]),
        "bindings": traced["bindings"],
        "pattern_violations": traced["pattern_violations"],
        "environment": traced["environment"],
    }
    record["checks_ok"] = traced["warmup_ok"] and not traced["pattern_violations"]
    tallies = [traced["tally"], traced["warmup_tally"]]
    return metrics, record, tallies


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "adelic" / "__init__.py").is_file():
        print("bench: run from the repository root; ./src/adelic is missing", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, record, tallies = measure(args, child_env(root), root, deadline)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    summary = tally_summary(tallies)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    failed = summary["mismatches"] + summary["inconclusive"]
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, **summary)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and record["checks_ok"],
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
