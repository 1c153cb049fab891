"""Extension bench: data-parallel training scaling across TaihuLight nodes.

Not a figure of the paper — it quantifies the direction the paper's
introduction motivates (scaling one network's training across the
machine), using the same timed substrate as the single-chip results: the
per-layer costs of :func:`repro.core.zoo.layer_cost` scheduled on the
bucketed allreduce timeline of ``BENCH_dataparallel.json``, here carried
out to 4096 nodes.
"""

from repro.common.tables import TextTable
from repro.scale.network import InterconnectModel
from repro.scale.report import (
    WEAK_PER_NODE_BATCH,
    strong_scaling_rows,
    weak_scaling_rows,
)

TOPOLOGY = "ring"
BUCKET_BYTES = 1 << 20


def test_bench_extension_weak_scaling(benchmark):
    def sweep():
        return weak_scaling_rows(
            InterconnectModel(),
            TOPOLOGY,
            BUCKET_BYTES,
            node_counts=(1, 4, 16, 64, 256, 1024, 4096),
        )

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["nodes", "step (ms)", "comm (ms)", "samples/s", "efficiency"],
        float_fmt="{:.2f}",
    )
    for row in rows:
        table.add_row(
            [
                row["nodes"],
                row["step_seconds"] * 1e3,
                row["comm_seconds"] * 1e3,
                row["samples_per_second"],
                row["efficiency"],
            ]
        )
    print()
    print(
        "Extension — weak scaling of data-parallel training "
        f"(per-node batch {WEAK_PER_NODE_BATCH})"
    )
    print(table.render())
    assert rows[0]["efficiency"] == 1.0
    assert rows[3]["efficiency"] > 0.7  # 64 nodes still healthy
    effs = [row["efficiency"] for row in rows]
    assert all(a >= b - 1e-9 for a, b in zip(effs, effs[1:]))


def test_bench_extension_strong_scaling(benchmark):
    def sweep():
        return strong_scaling_rows(
            InterconnectModel(),
            TOPOLOGY,
            BUCKET_BYTES,
            node_counts=(1, 4, 16, 64, 256),
            global_batch=1024,
        )

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Extension — strong scaling (global batch 1024)")
    for row in rows:
        print(f"  {row['nodes']:5d} nodes: {row['step_seconds'] * 1e3:8.2f} ms/step, "
              f"{row['samples_per_second']:10.0f} samples/s, "
              f"eff {row['efficiency']:.2f}")
    assert rows[1]["samples_per_second"] > rows[0]["samples_per_second"]
