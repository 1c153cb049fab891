#!/usr/bin/env python3
"""Paired benchmark runs: this checkout against a parent commit.

    python3 scripts/bench_pairs.py --parent REF --workload W --pairs N \\
        --seconds S

Exports ``REF`` with ``git archive`` into a temporary directory and copies
this checkout's working tree beside it (its tracked and untracked files,
not the ignored ones such as bytecode caches), so both sides start from
fresh files and edits made while the pairs run do not leak in.  Then runs
``swbench/run.py --workload W --trace 0`` once on each side per pair: on a
fresh random seed per pair (printed, so any pair can be re-run by hand),
and in alternating order, so slow drifts of the host hit both sides
alike.  ``--workload all`` runs ``sweep``, ``serve`` and ``train`` in
turn.  For each workload it prints, for every end-to-end metric of
``BENCHMARK.json``, the median and quartiles per side, how many pairs the
change won, and the verdict of :func:`verdict` under the metric's
``bound``; and whether each pair's ``LEDGER`` lines (the deterministic
simulated results) are identical.  A run that exits non-zero or reports
itself not correct is printed with its seed and its ``[FAIL]`` check
lines; its pair is left out of the samples and the other pairs and
workloads still run.

Exit status is 1 if a run fails, a pair's ledgers differ or a metric's
verdict is ``REGRESSION``, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
LEDGER_PREFIX = "LEDGER "
WORKLOADS = ("sweep", "serve", "train")


def _export(ref: str, dest: Path) -> None:
    """Write the tree of ``ref`` into ``dest`` (``git archive``)."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def _snapshot(root: Path, dest: Path) -> None:
    """Copy the working tree of ``root`` into ``dest``.

    Copies what ``git ls-files --cached --others --exclude-standard``
    lists: tracked and untracked files, but no ignored file, and no
    tracked file deleted from the working tree.
    """
    names = subprocess.run(
        ["git", "-C", str(root), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        check=True,
        capture_output=True,
    ).stdout.split(b"\0")
    for name in dict.fromkeys(os.fsdecode(n) for n in names if n):
        source = root / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


class RunFailed(Exception):
    """A run that exited non-zero or reported itself not correct."""


def _run(side: Path, workload: str, seed: int, seconds: float) -> Tuple[dict, str]:
    """One benchmark run; returns (end-to-end metric values, LEDGER line).

    Raises :class:`RunFailed` with the run's stderr tail or its ``[FAIL]``
    check lines.
    """
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
        raise RunFailed(f"exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        checks = [line for line in lines if line.lstrip().startswith("[FAIL]")]
        raise RunFailed(
            f"not correct ({result['failed']} of {result['attempted']} "
            f"operations failed):\n" + "\n".join(checks)
        )
    ledger = next(line for line in lines if line.startswith(LEDGER_PREFIX))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, ledger


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def _wins(parent: List[float], change: List[float], better: str) -> int:
    """Pairs the change won; ties count for neither side."""
    return sum(_beats(c, p, better) for p, c in zip(parent, change))


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    """The paired-run verdict on one end-to-end metric.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``;
    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the relative
    worsening ``BENCHMARK.json`` allows.  The first that holds, in order:

    * ``gain``: the change wins at least 9/10 of the pairs (ties count for
      neither), and its median beats the parent's by more than the
      parent's interquartile range;
    * ``unresolved``: the parent's interquartile range is wider than
      ``bound`` times its median, and not every change run beats every
      parent run, so the runs cannot show the change within the bound;
    * ``no regression``: the change's median is worse than the parent's
      by at most ``bound`` times the parent's median;
    * ``REGRESSION``: anything else.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs the same non-zero number of runs per side")
    wins = _wins(parent, change, better)
    p1, pm, p3 = _quartiles(parent)
    cm = statistics.median(change)
    gap = cm - pm if better == "higher" else pm - cm
    if 10 * wins >= 9 * len(parent) and gap > p3 - p1:
        return "gain"
    worst_change = min(change) if better == "higher" else max(change)
    best_parent = max(parent) if better == "higher" else min(parent)
    if p3 - p1 > bound * abs(pm) and not _beats(worst_change, best_parent, better):
        return "unresolved"
    if -gap <= bound * abs(pm):
        return "no regression"
    return "REGRESSION"


def _compare(
    workload: str, sides: Dict[str, Path], metrics, pairs: int, seconds: float,
    parent: str,
) -> bool:
    """Run the pairs of one workload and print its table; True if clean."""
    samples: Dict[str, Dict[str, List[float]]] = {
        name: {"parent": [], "change": []} for name, _, _ in metrics
    }
    identical = failed = 0
    print(f"{workload}: {pairs} pairs of {seconds:g} s, parent {parent} vs "
          f"the working tree of {ROOT}")
    seeds = random.SystemRandom()
    for i in range(pairs):
        seed = seeds.randrange(1, 1_000_000)
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        try:
            for side in order:
                runs[side] = _run(sides[side], workload, seed, seconds)
        except RunFailed as exc:
            failed += 1
            print(f"  pair {i + 1} seed {seed}: the {side} run failed, pair left "
                  f"out: {exc}", flush=True)
            continue
        same = runs["parent"][1] == runs["change"][1]
        identical += same
        cells = []
        for name, _, _ in metrics:
            old, new = runs["parent"][0][name], runs["change"][0][name]
            samples[name]["parent"].append(old)
            samples[name]["change"].append(new)
            cells.append(f"{name} {old:.4g} -> {new:.4g}")
        print(f"  pair {i + 1} seed {seed} ({order[0]} first): "
              + "; ".join(cells)
              + f"; LEDGER {'identical' if same else 'DIFFERS'}", flush=True)

    done = pairs - failed
    if failed:
        print(f"{failed} of {pairs} pairs left out: a run failed")
    if not done:
        return False
    print("metric (better)            parent median [q1, q3]        "
          "change median [q1, q3]        change wins   verdict")
    regression = False
    for name, better, bound in metrics:
        old, new = samples[name]["parent"], samples[name]["change"]
        p1, pm, p3 = _quartiles(old)
        c1, cm, c3 = _quartiles(new)
        wins = _wins(old, new, better)
        result = verdict(old, new, better, bound)
        regression |= result == "REGRESSION"
        print(f"  {name:<12} ({better:<6})  {pm:10.4g} [{p1:.4g}, {p3:.4g}]"
              f"    {cm:10.4g} [{c1:.4g}, {c3:.4g}]"
              f"    {wins}/{done}"
              + (f" (x{cm / pm:.3g})" if pm else "")
              + f"   {result} (bound {bound:g})")
    print(f"LEDGER lines identical in {identical}/{done} pairs", flush=True)
    return not failed and identical == done and not regression


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    clean = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        _export(args.parent, sides["parent"])
        _snapshot(ROOT, sides["change"])
        for workload in workloads:
            clean &= _compare(
                workload, sides, metrics, args.pairs, args.seconds, args.parent
            )
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
