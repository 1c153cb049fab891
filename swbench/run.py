"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 swbench/run.py --workload {sweep,serve,train} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with the library as a user
runs it (telemetry off, nothing patched) and prints every ``end_to_end``
metric of ``BENCHMARK.json``.  ``--trace 1`` first runs the same workload
and seed untraced in a child process, then again with the layer entry
points wrapped (see ``tracing.py``), and prints every ``per_layer``
metric.  The traced run checks that its simulated results and exact
counts equal the child's, and reports the wall-time cost of tracing.

Set-up time is the median over three fresh processes: this one and two
children that only set up (``--setup-only``).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The lines before it are a readable report, and a ``LEDGER`` line with the
run's deterministic results.  A traced run parses that line from its
untraced child.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: One busy Python thread plus at most one more (a serve worker) on a
#: 2-core host: keep BLAS from starting its own thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_SAMPLES = 3
LEDGER_PREFIX = "LEDGER "


def _bootstrap() -> None:
    """Import the library from this checkout's ``src/``, nowhere else."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"swbench: no library source at {ROOT / 'src' / 'repro'}; run from a "
            "full checkout of the repository\n"
        )
        sys.exit(2)
    if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
        sys.path.pop(0)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "serve", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the smoke tests' small inputs, and set-up-only children.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args, *extra) -> list:
    """Run this script again with ``args`` plus ``extra``; stdout lines."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(cmd[2:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return proc.stdout.splitlines()


def _layer_metrics(spec, tracer, result, counters, overhead) -> dict:
    """Every per_layer metric: tracer spans, counters, the workload's own."""
    from swbench.common import percentile

    values = {m["name"]: 0.0 for m in spec["per_layer"]}

    for layer in ("planner", "tune", "perf", "isa", "engine.evaluate", "engine.run",
                  "mesh", "exchange"):
        stats = tracer.stats(layer)
        values[f"{layer}.calls"] = stats.calls
        values[f"{layer}.self_s"] = stats.self_s
    values["guarded.self_s"] = tracer.stats("guarded").self_s
    values["batcher.self_s"] = tracer.stats("batcher").self_s
    pool = tracer.stats("pool")
    values["pool.batches"] = pool.calls
    values["pool.busy_frac"] = pool.total_s / result.wall_s
    samples_ms = [s * 1e3 for s in pool.samples]
    values["pool.execute_p50_ms"] = percentile(samples_ms, 50.0)
    values["pool.execute_p90_ms"] = percentile(samples_ms, 90.0)
    steps = tracer.stats("cluster").calls
    if steps:
        values["network.forward_s"] = tracer.stats("network.forward").total_s / steps
        values["network.backward_s"] = tracer.stats("network.backward").total_s / steps
        values["sgd.step_s"] = tracer.stats("sgd").total_s / steps
        values["cluster.self_s"] = tracer.stats("cluster").self_s
    if counters is not None:
        hits = counters.get("engine.timing_cache.hits")
        misses = counters.get("engine.timing_cache.misses")
        if hits + misses:
            values["engine.timing_cache.hit_frac"] = hits / (hits + misses)
        values["server.retries"] = counters.get("serve.retries")
    values["op.p90_ms"] = result.p90_ms
    values.update(result.layers)
    busy = tracer.self_seconds_on(result.busy_thread)
    values["remainder_frac"] = 1.0 - busy / result.wall_s
    values["trace.overhead_frac"] = overhead
    unknown = set(values) - {m["name"] for m in spec["per_layer"]}
    if unknown:
        raise KeyError(f"per-layer values missing from BENCHMARK.json: {sorted(unknown)}")
    return values


def _table(rows, units) -> str:
    width = max(len(name) for name in rows)
    lines = []
    for name, value in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<{width}}  {shown:>14}  {units[name]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _args(argv)
    _bootstrap()
    from swbench import common, serve, sweep, train
    from swbench.tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = {"sweep": sweep, "serve": serve, "train": train}[args.workload]

    child_ledger = None
    child_rate = None
    if args.trace and not args.setup_only:
        lines = _child(args, "--trace", "0")
        child_ledger = json.loads(lines[-2][len(LEDGER_PREFIX):])
        child_rate = json.loads(lines[-1])["metrics"]["ops_per_s"]["value"]

    tracer = None
    session = None
    if args.trace:
        tracer = Tracer().install()
        if workload.COUNTERS_WHEN_TRACED:
            session = common.counters_session()
    ctx = common.Context(
        seed=args.seed, seconds=args.seconds, tiny=args.tiny, t_start=T_START,
        tracer=tracer, setup_only=args.setup_only,
    )
    from repro.telemetry import use_telemetry

    try:
        with use_telemetry(session):
            result = workload.run(ctx, ROOT)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": result.setup_s}))
        return 0

    checks = list(result.checks)
    if child_ledger is not None:
        checks.append(common.Check(
            "sim results and exact counts equal the untraced run",
            child_ledger == result.ledger,
            "traced vs untraced child, same seed"
            + ("" if child_ledger == result.ledger else
               f": {child_ledger} != {result.ledger}"),
        ))
    correct = all(c.ok for c in checks)

    if args.trace:
        overhead = child_rate / result.ops_per_s - 1.0
        metrics = _layer_metrics(
            spec, tracer, result, session.counters if session else None, overhead
        )
        section = spec["per_layer"]
    else:
        setups = [result.setup_s] + [
            json.loads(_child(args, "--setup-only")[-1])["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": common.peak_rss_mb(),
            "ops_per_s": result.ops_per_s,
            "p50_ms": result.p50_ms,
        }
        section = spec["end_to_end"]
        result.notes.append(
            "set-up samples (s): " + ", ".join(f"{s:.4f}" for s in setups)
        )
    units = {m["name"]: m["unit"] for m in section}
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")

    print(f"swbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: timed region {result.wall_s:.3f} s, "
          f"{result.op_count} latency samples")
    for note in result.notes:
        print(f"  {note}")
    print("metrics (units starting 'sim-' use the simulated SW26010 clock; "
          "other times are host wall clock):")
    print(_table({name: metrics[name] for name in units}, units))
    print("checks:")
    for c in checks:
        print(f"  [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
    print(LEDGER_PREFIX + json.dumps(result.ledger, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
