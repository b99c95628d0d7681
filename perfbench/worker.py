"""One fresh process of the mfsym benchmark, started by run.py.

Modes:
  setup  import mfsym and build the workload's inputs; report the time.
  run    setup, then verdict passes for at most --seconds (at least one).
  trace  traced setup, one untraced pass, one traced pass; writes the
         spans and per-layer metrics to --trace-out.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def run_pass(verdicts, scope=None) -> dict:
    """Run and check one pass of verdicts, each timed on its own."""
    results = []
    start = perf_counter()
    for label, thunk, expected in verdicts:
        t0 = perf_counter()
        observed, error = None, None
        try:
            if scope is None:
                observed = thunk()
            else:
                with scope(label):
                    observed = thunk()
        except Exception as exc:  # a raising verdict is a failed verdict
            error = f"{type(exc).__name__}: {exc}"
        results.append({
            "label": label,
            "seconds": perf_counter() - t0,
            "ok": error is None and observed == expected,
            "observed": observed,
            "expected": expected,
            "error": error,
        })
    return {"wall_s": perf_counter() - start, "verdicts": results}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import workloads
    setup, verdicts = workloads.WORKLOADS[args.workload]
    if args.mode == "trace":
        return _trace(args, workloads, setup, verdicts)
    state = setup(args.seed, ROOT)
    setup_s = perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # start another pass only while it is expected to end within --seconds
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(verdicts(state, len(passes))))
        if perf_counter() - start + passes[-1]["wall_s"] > args.seconds:
            break
    print(json.dumps({
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


def _trace(args, workloads, setup, verdicts) -> int:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(callers=(workloads,))
    state = setup(args.seed, ROOT)
    tracer.uninstall()
    plain = run_pass(verdicts(state, 0))
    tracer.install(callers=(workloads,))
    traced = run_pass(verdicts(state, 0), scope=lambda label: tracer.verdict_span(f"p0:{label}"))
    tracer.uninstall()

    overhead = traced["wall_s"] / plain["wall_s"]
    metrics = tracer.per_layer(overhead)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_end": os.getloadavg(),
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "overhead_ratio": overhead,
        "probe_s": tracer.probe_s,
        "per_layer": metrics,
        "stats": {name: {"calls": c, "total_s": t, "self_s": s}
                  for name, (c, t, s) in sorted(tracer.stats.items()) if c},
        "echelon_calls": tracer.echelons,
        "untraced_verdicts": plain["verdicts"],
        "traced_verdicts": traced["verdicts"],
        "span_fields": ["id", "name", "start", "end", "parent", "verdict"],
        "spans": tracer.spans,
    }
    with open(args.trace_out, "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"passes": [plain, traced], "per_layer": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
