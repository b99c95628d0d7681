"""Benchmark of mfsym's exact verdicts, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload real-tower --seed 1 --seconds 12 --trace 0

and for every workload:

    for w in real-tower hom-cohomology orientifold clifford-module; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 12 --trace 0; done

Workloads, metrics and bounds are listed in BENCHMARK.json at the root;
the layer-metric predictions are in perfbench/predictions.json.

With --trace 0 the run times, in fresh worker processes:
  setup_s            import of mfsym plus input building, median of
                     SETUP_SAMPLES processes;
  wall_s             one verdict pass, median over the passes that fit in
                     --seconds (at least one) in a single process;
  slowest_verdict_s  the longest verdict of a pass, median over passes;
  peak_rss_mb        peak resident set of that process.
Each pass is closed-loop: one process, no threads, one verdict after the
other.  Every verdict is checked against perfbench/oracle.py; a verdict
that raises or disagrees counts as failed.

With --trace 1 one worker builds the inputs traced, makes one untraced
pass and one traced pass (--seconds is not used), checks that both give
the same verdicts, and reports the per-layer metrics.  Spans, call
statistics and metrics go to perfbench/out/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2, with no result
line, means the benchmark could not run: no mfsym sources next to it,
an unknown workload, a failed worker, or Python's -O flag, which strips
the assert statements mfsym validates with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
DEADLINE_S = 170  # for all workers of one run together, so a run ends within 3 minutes


class BenchError(RuntimeError):
    pass


def _worker(mode: str, args, extra=()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker still running after the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loadavg() -> list:
    return [round(x, 2) for x in os.getloadavg()]


def _verdict_counts(passes):
    verdicts = [v for p in passes for v in p["verdicts"]]
    failed = [v for v in verdicts if not v["ok"]]
    for v in failed:
        print(f"# FAILED {v['label']}: {v['error'] or v['observed']} "
              f"(expected {v['expected']})")
    return len(verdicts), len(failed)


def _measure(args) -> tuple[dict, int, int, dict]:
    setups = [_worker("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = _worker("run", args)
    passes = run["passes"]
    setups.append(run["setup_s"])
    walls = [p["wall_s"] for p in passes]
    slowest = [max(v["seconds"] for v in p["verdicts"]) for p in passes]
    print(f"# {len(passes)} passes; pass wall_s min {min(walls):.4f} max {max(walls):.4f}; "
          f"setup_s samples {', '.join(f'{s:.4f}' for s in setups)}")
    attempted, failed = _verdict_counts(passes)
    metrics = {
        "wall_s": statistics.median(walls),
        "slowest_verdict_s": statistics.median(slowest),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return metrics, attempted, failed, {"setup_samples": setups, "passes": passes}


def _trace(args) -> tuple[dict, int, int, bool]:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    result = _worker("trace", args, ("--trace-out", str(path)))
    plain, traced = result["passes"]
    same = ([(v["label"], v["ok"], v["observed"]) for v in plain["verdicts"]]
            == [(v["label"], v["ok"], v["observed"]) for v in traced["verdicts"]])
    if not same:
        print("# FAILED traced and untraced passes gave different verdicts")
    print(f"# trace written to {path.relative_to(ROOT)}; overhead "
          f"{traced['wall_s']:.3f} s traced / {plain['wall_s']:.3f} s untraced")
    attempted, failed = _verdict_counts([plain, traced])
    return result["per_layer"], attempted, failed, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + DEADLINE_S

    try:
        if sys.flags.optimize:
            raise BenchError("refusing to run under python -O: it strips the assert "
                             "statements mfsym validates with")
        if not (ROOT / "src" / "mfsym" / "__init__.py").is_file():
            raise BenchError(f"no mfsym sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        stamp = {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "loadavg_before": _loadavg()}
        if args.trace:
            values, attempted, failed, same = _trace(args)
        else:
            values, attempted, failed, detail = _measure(args)
            same = True
        stamp["loadavg_after"] = _loadavg()
        if not args.trace:
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"run-{args.workload}-{args.seed}.json", "w") as fh:
                json.dump({"stamp": stamp, "metrics": values, **detail}, fh)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}; " + ", ".join(f"{k} {v}" for k, v in stamp.items()))
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:40s} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"{'failed_share':40s} {failed / attempted:>14.6g} ({failed} of {attempted} verdicts)")
    print(json.dumps({"correct": failed == 0 and same, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
