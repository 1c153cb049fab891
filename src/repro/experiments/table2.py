"""Table II: measured DMA bandwidths (GB/s) on one core group.

The paper: "We wrote a micro-benchmark on one CG to measure the effective
DMA bandwidth" over per-CPE contiguous block sizes 32 B .. 4 KiB.  Here the
micro-benchmark drives the simulated :class:`~repro.hw.dma.DMAEngine` with
the same transfer pattern and reads the effective bandwidth back from the
transfer log, confirming the engine (and hence every plan's timing) matches
the published curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.common.tables import TextTable
from repro.common.units import GB
from repro.hw.dma import DMAEngine
from repro.hw.memory import MainMemory
from repro.hw.spec import DEFAULT_SPEC, TABLE_II_DMA_BANDWIDTH, SW26010Spec


@dataclass
class Table2Row:
    size_bytes: int
    get_gbps: float
    put_gbps: float
    paper_get: float
    paper_put: float


def measure_dma_bandwidth(
    block_bytes: int,
    transfers: int = 64,
    spec: SW26010Spec = DEFAULT_SPEC,
) -> Tuple[float, float]:
    """Micro-benchmark one block size; returns (get, put) in bytes/s."""
    memory = MainMemory(spec)
    engine = DMAEngine(memory, spec)
    doubles = max(1, block_bytes // 8)
    memory.allocate("bench.src", (transfers, doubles))
    memory.allocate("bench.dst", (transfers, doubles))
    from repro.hw.ldm import LDM

    ldm = LDM(spec)
    buf = ldm.alloc("bench.buf", (doubles,))
    get_bytes = 0
    for i in range(transfers):
        t = engine.dma_get("bench.src", (i, slice(None)), buf, block_bytes=block_bytes)
        get_bytes += t.nbytes
    get_time = sum(t.duration for t in engine.log)
    engine.reset()
    put_bytes = 0
    for i in range(transfers):
        t = engine.dma_put(buf, slice(None), "bench.dst", (i, slice(None)), block_bytes=block_bytes)
        put_bytes += t.nbytes
    put_time = sum(t.duration for t in engine.log)
    return get_bytes / get_time, put_bytes / put_time


def run(spec: SW26010Spec = DEFAULT_SPEC) -> List[Table2Row]:
    """Measure every Table II block size on the simulated engine."""
    rows = []
    for size, (paper_get, paper_put) in sorted(TABLE_II_DMA_BANDWIDTH.items()):
        get_bw, put_bw = measure_dma_bandwidth(size, spec=spec)
        rows.append(
            Table2Row(
                size_bytes=size,
                get_gbps=get_bw / GB,
                put_gbps=put_bw / GB,
                paper_get=paper_get,
                paper_put=paper_put,
            )
        )
    return rows


def render(rows: List[Table2Row] = None) -> str:
    rows = rows if rows is not None else run()
    table = TextTable(
        ["Size(Byte)", "Get", "Put", "paper Get", "paper Put"]
    )
    for row in rows:
        table.add_row(
            [row.size_bytes, row.get_gbps, row.put_gbps, row.paper_get, row.paper_put]
        )
    return "Table II — measured DMA bandwidths (GB/s) on 1 CG\n" + table.render()
