"""Benchmark harness configuration.

Each ``test_bench_*`` module regenerates one table or figure of the paper
(see DESIGN.md's experiment index).  The regenerated rows are printed to
stdout (run ``pytest benchmarks/ --benchmark-only -s`` to see them inline)
and attached to the benchmark records as ``extra_info``.
"""


def pytest_collection_modifyitems(items):
    # Benchmarks are ordered to mirror the paper's presentation.
    order = ["table2", "fig2", "fig6", "fig7", "fig9", "table3", "algos",
             "scaling", "ablation", "telemetry", "serve", "chaos",
             "dataparallel"]

    def key(item):
        for i, name in enumerate(order):
            if name in item.nodeid:
                return i
        return len(order)

    items.sort(key=key)
