"""Smoke tests of the benchmark on tiny inputs, for all three workloads.

Run from the repository root::

    python3 -m pytest swbench/tests -q

Each workload runs three times through the real command line: traced
(which itself runs an untraced child of the same seed and compares the two
ledgers), untraced with the same seed, and untraced with another seed.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Output checks each workload must report as passed.
CHECKS = {
    "sweep": (
        "chip Tflops match results/fig7.json + fig9.json",
        "Table III matches results/table3.json",
    ),
    "serve": (
        "sampled answers allclose to ServedModel.reference_forward",
        "sampled answers bit-identical to batch-of-one on the warm pool",
    ),
    "train": (
        "replicas in bitwise lockstep",
        "prefix equals a one-node run at the same grain",
        "prefix equals the counted replay",
    ),
}


def _run(workload, seed, trace, cwd=ROOT, script=ROOT / "swbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _parse(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("LEDGER ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("LEDGER "):]), proc.stdout


@pytest.fixture(scope="module", params=sorted(CHECKS))
def runs(request):
    workload = request.param
    return (
        workload,
        _parse(_run(workload, 5, 1)),
        _parse(_run(workload, 5, 0)),
        _parse(_run(workload, 6, 0)),
    )


def test_result_line(runs):
    _, traced, untraced, _ = runs
    for (result, _, report), units in ((untraced, E2E), (traced, PER_LAYER)):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, report
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in untraced[0]["metrics"].items():
        assert metric["value"] > 0, name


def test_output_checks_pass(runs):
    workload, traced, untraced, _ = runs
    for _, _, report in (traced, untraced):
        assert "[FAIL]" not in report
        for check in CHECKS[workload]:
            assert f"[ok] {check}:" in report
    assert "[ok] sim results and exact counts equal the untraced run:" in traced[2]


def test_clock_labels():
    # Simulated-clock metrics carry a "sim-" unit; everything end to end
    # is host wall clock.
    for name, unit in PER_LAYER.items():
        assert unit.startswith("sim-") == (".sim_" in name or name.startswith(
            ("perf.model_error", "perf.error_", "perf.paper_error", "tune.gain",
             "cluster.sim_"))), name
    assert not any(unit.startswith("sim-") for unit in E2E.values())
    assert "clock" in (ROOT / "swbench" / "README.md").read_text()


def test_seed_discipline(runs):
    _, traced, same, other = runs
    assert same[1] == traced[1]  # same seed: identical sim results and counts
    assert other[1] != same[1]  # another seed: other sample / images / data


def test_layers_split_by_workload(runs):
    workload, traced, _, _ = runs
    m = {k: v["value"] for k, v in traced[0]["metrics"].items()}
    if workload == "sweep":
        assert m["tune.calls"] > 0 and m["engine.evaluate.calls"] > 0
        assert m["engine.run.calls"] == m["mesh.calls"] == m["pool.batches"] == 0
    elif workload == "serve":
        assert m["pool.batches"] > 0 and m["engine.run.calls"] > 0
        assert m["pool.warm_tune_measured"] > 0
        assert m["tune.calls"] == m["planner.calls"] == m["mesh.calls"] == 0
    else:
        assert m["mesh.calls"] > 0 and m["exchange.calls"] > 0
        assert m["mesh.bus_bytes"] > 0 and m["mesh.flops"] > 0
        assert m["tune.calls"] == m["planner.calls"] == m["pool.batches"] == 0
    assert -0.01 < m["remainder_frac"] < 0.5


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "swbench", tmp_path / "swbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep", 1, 0, cwd=tmp_path, script=tmp_path / "swbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_self_time():
    sys.path.insert(0, str(ROOT))
    from swbench.tracing import Tracer

    tracer = Tracer()
    tracer.start_window()
    inner = tracer._wrap("inner", lambda: sum(range(20000)))
    outer = tracer._wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    o, i = tracer.stats("outer"), tracer.stats("inner")
    assert (o.calls, i.calls) == (1, 3)
    assert o.self_s == pytest.approx(o.total_s - i.total_s, abs=1e-9)
    assert tracer.self_seconds_on("MainThread") == pytest.approx(o.total_s, abs=1e-9)


def test_tracer_clips_to_window():
    sys.path.insert(0, str(ROOT))
    from swbench.tracing import Tracer

    tracer = Tracer()

    def straddle():
        time.sleep(0.05)
        tracer.start_window()  # the window opens while this span runs
        time.sleep(0.01)

    tracer._wrap("straddle", straddle)()
    tracer.stop_window()
    tracer._wrap("late", lambda: time.sleep(0.01))()
    assert 0.01 <= tracer.stats("straddle").total_s < 0.04
    assert tracer.stats("late").calls == 0
