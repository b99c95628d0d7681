"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q

The four traced runs take a few minutes in all on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())["per_layer"]
SEED = 1


def _bench(*args, cwd=ROOT, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def traced():
    """workload -> (result line, trace record) of one traced run, cached."""
    cache = {}

    def get(workload):
        if workload not in cache:
            proc = _bench("--workload", workload, "--seed", str(SEED),
                          "--seconds", "1", "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((HERE / "out" / f"trace-{workload}-{SEED}.json").read_text())
            cache[workload] = (result, record)
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_verdicts_agree(traced, workload):
    result, record = traced(workload)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    def verdicts(key):
        return [(v["label"], v["ok"], v["observed"]) for v in record[key]]

    assert verdicts("untraced_verdicts") == verdicts("traced_verdicts")
    assert all(v["ok"] for v in record["untraced_verdicts"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_predicted_layer_metrics_move_where_predicted(traced, workload):
    metrics = {k: v["value"] for k, v in traced(workload)[0]["metrics"].items()}
    for name, prediction in PREDICTIONS.items():
        for e2e, workloads in prediction["moves"].items():
            if workload in workloads:
                assert metrics[name] > 0, f"{name} reads 0 but should move {e2e}"
        if workload in prediction.get("zero_on", ()):
            assert metrics[name] == 0, f"{name} should read 0"


def test_orientifold_makes_no_linalg_calls(traced):
    result, record = traced("orientifold")
    assert all(v["value"] == 0 for k, v in result["metrics"].items() if k.startswith("linalg."))
    assert not [name for name in record["stats"] if name.startswith("linalg.")]


def test_hom_cohomology_draw_follows_the_seed():
    import workloads

    assert workloads.draw_pairs(SEED) == workloads.draw_pairs(SEED)
    assert workloads.draw_pairs(SEED) != workloads.draw_pairs(SEED + 1)


def test_refuses_optimized_python():
    proc = _bench("--workload", "orientifold", "--seed", "1", "--seconds", "1",
                  "--trace", "0", python_flags=("-O",))
    assert proc.returncode == 2
    assert "-O" in proc.stderr and not proc.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _bench("--workload", "orientifold", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout


def test_tracer_keeps_operator_semantics():
    from mfsym.polys import Poly, RingSpec
    from mfsym.scalars import Scalar
    from tracing import Tracer

    s = Scalar.zeta(4)
    x = Poly.variable(RingSpec(("x",), 4), "x")

    def results():
        return [repr(v) for v in (3 - s, s - 3, 2 / s, s / 2, 1 + s, 2 * s, -s,
                                  1 - x, x - 1, 2 * x, 1 + x)] + [s == 1, Scalar.zero() == 0]

    before = results()
    tracer = Tracer()
    tracer.install()
    try:
        during = results()
    finally:
        tracer.uninstall()
    assert before == during == results()
    assert tracer.calls("scalars.sub") and tracer.calls("polys.mul")
