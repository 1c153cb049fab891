#!/usr/bin/env python3
"""Paired benchmark runs: this checkout against a parent commit.

    python3 scripts/bench_pairs.py --parent REF --workload W --pairs N \\
        --seconds S

Exports ``REF`` with ``git archive`` into a temporary directory, then runs
``swbench/run.py --workload W --trace 0`` once on each side per pair: on a
fresh random seed per pair (printed, so any pair can be re-run by hand),
and in alternating order, so slow drifts of the host hit both sides
alike.  This checkout's working tree is the change side.  It prints, for
every end-to-end metric of ``BENCHMARK.json``, the median and quartiles
per side and how many pairs the change won, and whether each pair's
``LEDGER`` lines (the deterministic simulated results) are identical.

Exit status is 1 if a run fails or a pair's ledgers differ, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
LEDGER_PREFIX = "LEDGER "


def _export(ref: str, dest: Path) -> None:
    """Write the tree of ``ref`` into ``dest`` (``git archive``)."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def _run(side: Path, workload: str, seed: int, seconds: float) -> Tuple[dict, str]:
    """One benchmark run; returns (end-to-end metric values, LEDGER line)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [
            sys.executable, "swbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
        ],
        cwd=side,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{side}: run exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{side}: seed {seed} run not correct:\n{proc.stdout}")
    ledger = next(line for line in lines if line.startswith(LEDGER_PREFIX))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, ledger


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True, choices=("sweep", "serve", "train"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    samples: Dict[str, Dict[str, List[float]]] = {
        name: {"parent": [], "change": []} for name, _ in metrics
    }
    wins = {name: 0 for name, _ in metrics}
    identical = 0
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_root = Path(tmp)
        _export(args.parent, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
              f"parent {args.parent} vs {ROOT}")
        seeds = random.SystemRandom()
        for i in range(args.pairs):
            seed = seeds.randrange(1, 1_000_000)
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {
                side: _run(sides[side], args.workload, seed, args.seconds)
                for side in order
            }
            same = runs["parent"][1] == runs["change"][1]
            identical += same
            cells = []
            for name, better in metrics:
                old, new = runs["parent"][0][name], runs["change"][0][name]
                samples[name]["parent"].append(old)
                samples[name]["change"].append(new)
                wins[name] += new < old if better == "lower" else new > old
                cells.append(f"{name} {old:.4g} -> {new:.4g}")
            print(f"  pair {i + 1} seed {seed} ({order[0]} first): "
                  + "; ".join(cells)
                  + f"; LEDGER {'identical' if same else 'DIFFERS'}", flush=True)

    print("metric (better)            parent median [q1, q3]        "
          "change median [q1, q3]        change wins")
    for name, better in metrics:
        p1, pm, p3 = _quartiles(samples[name]["parent"])
        c1, cm, c3 = _quartiles(samples[name]["change"])
        print(f"  {name:<12} ({better:<6})  {pm:10.4g} [{p1:.4g}, {p3:.4g}]"
              f"    {cm:10.4g} [{c1:.4g}, {c3:.4g}]"
              f"    {wins[name]}/{args.pairs}"
              + (f"  (x{cm / pm:.3g})" if pm else ""))
    print(f"LEDGER lines identical in {identical}/{args.pairs} pairs")
    return 0 if identical == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
