"""Conv algorithm zoo bench: cross-family tuning over the Table III rows.

Records, into ``benchmarks/BENCH_algos.json``, for each Table III row:

* the direct-tuned baseline (the pre-zoo tuner's best) and the
  cross-family winner with its algorithm and measured speedup;
* the communication-lower-bound oracle's attainment ratio (measured DMA
  bytes vs the Demmel--Dinh bound) for every legal family.

Acceptance bars: the cross-family search never regresses the direct-tuned
result on any row, and at least one 3x3 stride-1 row selects a non-direct
family with a measured speedup.  The written record carries the
``repro.algos/v1`` tag and passes ``python -m repro validate``.
"""

import json
import os

from repro.core.params import ConvParams
from repro.common.schema import ALGOS_SCHEMA, validate
from repro.telemetry import oracle_report
from repro.tune import autotune

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_algos.json")

#: Table III rows at the paper's 64x64 output, 3x3 filter, batch 128.
TABLE3_CHANNELS = [(128, 128), (128, 256), (256, 256), (256, 384)]


def _row_params(ni, no):
    return ConvParams.from_output(ni=ni, no=no, ro=64, co=64, kr=3, kc=3, b=128)


def test_bench_algos(benchmark):
    record = {"schema": ALGOS_SCHEMA, "rows": []}
    non_direct_wins = 0

    shapes = [_row_params(ni, no) for ni, no in TABLE3_CHANNELS]

    def _tune_all():
        return [
            (
                autotune(p, cache=False, top_k=6, jobs=4),
                autotune(p, cache=False, top_k=6, jobs=4, algorithms="all"),
            )
            for p in shapes
        ]

    results = benchmark.pedantic(_tune_all, rounds=1, iterations=1)

    oracle = oracle_report(shapes)
    assert validate(oracle.as_dict()) == []
    attainment = {}
    for row in oracle.rows:
        attainment.setdefault(row.params, {})[row.algorithm] = round(
            row.attainment, 4
        )

    for params, (direct, zoo) in zip(shapes, results):
        assert zoo.gflops >= direct.gflops, (
            f"{params.describe()}: cross-family search regressed "
            f"({zoo.gflops:.1f} < {direct.gflops:.1f} Gflop/s)"
        )
        if zoo.candidate.algorithm != "direct" and zoo.gflops > direct.gflops:
            non_direct_wins += 1
        record["rows"].append(
            {
                "params": str(params),
                "direct_tuned_gflops": round(direct.gflops, 1),
                "direct_plan": direct.candidate.describe(),
                "winner_gflops": round(zoo.gflops, 1),
                "winner_algorithm": zoo.candidate.algorithm,
                "winner_plan": zoo.candidate.describe(),
                "speedup_vs_direct": round(zoo.gflops / direct.gflops, 3),
                "oracle_attainment": attainment[params],
            }
        )

    assert non_direct_wins >= 1, (
        "no Table III row selected a lowered family with a measured speedup"
    )
    record["non_direct_winners"] = non_direct_wins
    record["oracle"] = {
        "threshold": oracle.threshold,
        "flagged": len(oracle.flagged),
    }

    violations = validate(record)
    assert violations == [], f"schema violations: {violations}"
    with open(RESULTS_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print()
    print(json.dumps(record, indent=2))
    benchmark.extra_info.update(record)
