"""One workload process of the benchmark; ``run.py`` starts it.

Every mode first runs the workload's warm-up item, untimed, and reports
the set-up time: from launch (``--launched-at``, a CLOCK_MONOTONIC reading
taken by the parent just before it started this process) until that item's
check finished.  Times are reported twice: as wall time net of the speed
kernels (``*_wall_s``) and as reference time, normalized by the speed of
the workload's kernel around them (see ``speed.py``); the metrics use the
latter.

Modes:
  setup    stop after the warm-up item.
  measure  then run whole rounds of items, each timed and checked, for
           about ``--seconds`` (whole rounds, ending nearest that time, and
           at least MIN_ITEMS items).
  trace    then draw ``--rounds`` rounds, install the layer spans, and run
           each round twice, traced and then untraced on the same inputs.
           The two passes lie seconds apart, so the machine's drift falls on
           both alike.  The per-layer metrics cover the traced passes only.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import speed

# Sampled from here on, so that the set-up time, imports included, is
# normalized like the item times.
PROBE = speed.SpeedProbe()
PROBE.start()

import mpmath  # noqa: E402
import numpy  # noqa: E402

import adelic  # noqa: E402
from adelic import mellin  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Inconclusive, Mismatch, Tally  # noqa: E402

MIN_ITEMS = 120  # the 90th percentile (a band mean, see run.py) needs ten items beyond it

# Calls each workload must and must not make, checked on the traced run:
# a wrapper that misses a binding site shows up here as a zero count.
CALL_PATTERN = {
    "gauss-grid": {
        "zero": ["mellin.zeta.calls", "mellin.gamma.calls", "mellin.local.calls",
                 "mellin.real.calls", "quadrature.calls"],
        "nonzero": ["integrate.calls", "gauss.closed_form.calls",
                    "cyclotomic.canonical.calls", "cyclotomic.add.calls"],
    },
    "fourier-tate": {
        "zero": ["integrate.calls", "quadrature.calls"],
        "nonzero": ["mellin.zeta.calls", "mellin.gamma.calls", "mellin.local.calls",
                    "mellin.real.calls", "bruhat.construct.calls", "bruhat.fourier.calls",
                    "cyclotomic.mul.calls", "cyclotomic.canonical.calls"],
    },
    "pairing-oscillator": {
        "zero": ["mellin.zeta.calls", "mellin.gamma.calls", "mellin.local.calls",
                 "mellin.real.calls"],
        "nonzero": ["integrate.calls", "quadrature.calls", "distributions.pair.calls",
                    "oscillator.eigen.calls", "gauss.closed_form.calls",
                    "cyclotomic.mul.calls", "bruhat.construct.calls"],
    },
}


def run_item(workload, spec, tally: Tally) -> bool:
    """Run and check one item; True when it passed."""
    tally.attempted += 1
    try:
        workload.run(spec, tally)
    except Mismatch as exc:
        tally.mismatches += 1
        tally.note(f"mismatch: {exc}")
        return False
    except Inconclusive as exc:
        tally.inconclusive += 1
        tally.note(f"inconclusive: {exc}")
        return False
    except Exception:  # an oracle that raised gives no verdict either
        tally.inconclusive += 1
        tally.note("inconclusive: " + traceback.format_exc(limit=4))
        return False
    return True


def measure(workload, seconds: float) -> dict:
    """Time and check whole rounds.  Each item's time is its wall time
    net of the speed kernels, and its reference time (``speed``) beside it.
    Peak RSS is read after the first round, a fixed amount of work: the
    library's caches grow with every round, and a faster commit that fits
    more rounds into --seconds must not read as using more memory."""
    tally = Tally()
    spans: list[tuple[float, float]] = []
    passed = 0
    done = 0
    clock = time.perf_counter
    start = clock()
    for specs in workload.rounds():
        if done and len(spans) >= MIN_ITEMS:
            # stop where the run's end lands nearest to --seconds
            elapsed = clock() - start
            if elapsed + 0.5 * elapsed / done > seconds:
                break
        for spec in specs:
            t0 = clock()
            passed += run_item(workload, spec, tally)
            spans.append((t0, clock()))
        done += 1
        if done == 1:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall_s = clock() - start
    PROBE.stop()
    return {"wall_s": wall_s, "rounds": done, "passed": passed,
            "item_s": [PROBE.reference(*span, workload.SPEED_KERNEL) for span in spans],
            "item_wall_s": [PROBE.wall(*span) for span in spans],
            "kernel_s": PROBE.summary(),
            "peak_rss_kb": rss_kb, "tally": tally.as_dict()}


def measure_traced(workload, rounds: int, tracer: tracing.Tracer) -> dict:
    """Run each round traced, then untraced.  All inputs are drawn before
    the spans go in, so generating them is never traced.  The traced pass
    comes first, so the layers see the state an untraced run would; a cache
    the first pass fills can only make the overhead read high."""
    drawn = list(itertools.islice(workload.rounds(), rounds))
    tracer.install(extra_modules=[workloads])
    tally = Tally()
    times: dict[bool, list[float]] = {False: [], True: []}
    passed = 0
    clock = time.perf_counter
    for specs in drawn:
        for traced in (True, False):
            tracer.bind(traced)
            for spec in specs:
                t0 = clock()
                passed += run_item(workload, spec, tally)
                times[traced].append(clock() - t0)
    return {"rounds": len(drawn), "passed": passed, "item_s": times[True],
            "untraced_item_s": times[False], "tally": tally.as_dict()}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "ADELIC_WORKING_DPS": os.environ.get("ADELIC_WORKING_DPS"),
        "working_dps": mellin.WORKING_DPS,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--launched-at", type=float, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    args = ap.parse_args()
    if args.mode == "measure" and args.seconds is None:
        ap.error("measure needs --seconds")
    if args.mode == "trace" and args.rounds is None:
        ap.error("trace needs --rounds")

    src = Path.cwd() / "src"
    if not Path(adelic.__file__).resolve().is_relative_to(src.resolve()):
        print(f"adelic imported from {adelic.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    warm = Tally()
    warm_ok = run_item(workload, workload.warmup(), warm)
    setup_wall = time.monotonic() - args.launched_at - PROBE.spent[-1]
    setup = {"setup_wall_s": setup_wall,
             "setup_s": setup_wall * PROBE.factor(float("-inf"), time.perf_counter(), "both")}
    if args.mode == "setup":
        PROBE.stop()
        print(json.dumps({**setup, "ok": warm_ok, "tally": warm.as_dict()}))
        return 0

    tracer = None
    if args.mode == "trace":
        PROBE.stop()  # spans time the library alone
        tracer = tracing.Tracer()
        out = measure_traced(workload, args.rounds, tracer)
        if tracer.error is not None:
            print(f"tracer fault, layer metrics unusable: {tracer.error}", file=sys.stderr)
            return 3
    else:
        out = measure(workload, args.seconds)
    out.update(
        **setup,
        warmup_ok=warm_ok,
        warmup_tally=warm.as_dict(),
        environment=environment(),
    )
    if tracer is not None:
        layers = tracer.metrics()
        pattern = CALL_PATTERN[args.workload]
        violations = [f"{m} == 0" for m in pattern["nonzero"] if layers[m] == 0]
        violations += [f"{m} == {layers[m]}" for m in pattern["zero"] if layers[m] != 0]
        if args.workload == "gauss-grid":
            qp = tracer.function_calls["adelic.integrate.integrate_qp"]
            if qp != len(out["item_s"]):
                violations.append(f"integrate_qp calls {qp} != items {len(out['item_s'])}")
        out.update(layers=layers, pattern_violations=violations,
                   bindings=dict(tracer.bindings))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        PROBE.stop()
