"""Parameter sweeps: build-your-own-Fig-7 for arbitrary layer grids.

The paper's evaluation is a grid sweep over layer parameters; this module
packages that workflow for users: declare a grid, get back one row per
configuration with the chosen plan, the model estimate and the timed
measurement, render it as a table or export CSV for external plotting.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.common.parallel import parallel_map
from repro.common.tables import TextTable
from repro.hw.spec import SW26010Spec, DEFAULT_SPEC
from repro.telemetry import use_telemetry
from repro.core.conv import ConvolutionEngine, evaluate_chip
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid of layer parameters.

    Every axis is a sequence; the grid is the product.  ``out`` is the
    square output image size, ``k`` the square filter size (the paper's
    evaluation convention).
    """

    ni: Sequence[int] = (128,)
    no: Sequence[int] = (128,)
    out: Sequence[int] = (64,)
    k: Sequence[int] = (3,)
    b: Sequence[int] = (128,)

    def __post_init__(self) -> None:
        for name in ("ni", "no", "out", "k", "b"):
            axis = getattr(self, name)
            if not axis:
                raise PlanError(f"sweep axis {name!r} is empty")
            if any(v < 1 for v in axis):
                raise PlanError(f"sweep axis {name!r} has non-positive values")

    def __len__(self) -> int:
        return (
            len(self.ni) * len(self.no) * len(self.out) * len(self.k) * len(self.b)
        )

    def configurations(self) -> Iterator[ConvParams]:
        for ni, no, out, k, b in itertools.product(
            self.ni, self.no, self.out, self.k, self.b
        ):
            yield ConvParams.from_output(ni=ni, no=no, ro=out, co=out, kr=k, kc=k, b=b)


@dataclass
class SweepRow:
    """Outcome for one configuration."""

    params: ConvParams
    plan: str
    model_gflops: float
    measured_gflops: float
    chip_tflops: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def _sweep_row(
    params: ConvParams,
    spec: SW26010Spec,
    chip: bool,
    plan_cache: Optional[str] = None,
) -> SweepRow:
    """Worker for the parallel fan-out: plan, model and time one config.

    Infeasible configurations become rows with ``error`` set rather than
    exceptions, so a sweep never aborts on one bad grid point.  With
    ``plan_cache`` every configuration plans through the autotuner's
    on-disk cache — tuned once, shared by every worker process and every
    resumed run.
    """
    try:
        choice = plan_convolution(params, spec=spec)
        if plan_cache is not None:
            from repro.tune import autotune, score_candidate

            tuned = autotune(params, spec=spec, cache=plan_cache)
            plan = tuned.plan
            kind = tuned.plan.name
            model_gflops = score_candidate(tuned.candidate, params, spec).gflops
        else:
            plan = choice.plan
            kind = choice.kind
            model_gflops = choice.estimate.gflops
        measured = ConvolutionEngine(plan, spec=spec).evaluate()
        chip_gflops = (
            evaluate_chip(params, spec=spec, plan_cache=plan_cache)[0]
            if chip
            else 4 * measured.gflops
        )
        return SweepRow(
            params=params,
            plan=kind,
            model_gflops=model_gflops,
            measured_gflops=measured.gflops,
            chip_tflops=chip_gflops / 1e3,
        )
    except PlanError as exc:
        return SweepRow(
            params=params,
            plan="-",
            model_gflops=0.0,
            measured_gflops=0.0,
            chip_tflops=0.0,
            error=str(exc),
        )


def _row_to_record(index: int, row: SweepRow) -> Dict:
    """JSON record for one checkpointed row (floats round-trip exactly)."""
    p = row.params
    return {
        "index": index,
        "params": [p.ni, p.no, p.ri, p.ci, p.kr, p.kc, p.b],
        "plan": row.plan,
        "model_gflops": row.model_gflops,
        "measured_gflops": row.measured_gflops,
        "chip_tflops": row.chip_tflops,
        "error": row.error,
    }


def _row_from_record(record: Dict) -> Tuple[int, SweepRow]:
    ni, no, ri, ci, kr, kc, b = record["params"]
    row = SweepRow(
        params=ConvParams(ni=ni, no=no, ri=ri, ci=ci, kr=kr, kc=kc, b=b),
        plan=record["plan"],
        model_gflops=record["model_gflops"],
        measured_gflops=record["measured_gflops"],
        chip_tflops=record["chip_tflops"],
        error=record["error"],
    )
    return record["index"], row


class SweepCheckpoint:
    """Append-only JSONL checkpoint of completed sweep rows.

    One line per completed configuration, written as soon as its result is
    known and flushed to disk, so a killed sweep resumes from the last
    completed configuration.  JSON floats round-trip through ``repr``, so
    the rows a resumed sweep loads are *value-identical* to the ones the
    original run computed — final artifacts come out byte-identical.
    """

    def __init__(self, path: str):
        self.path = path
        self._completed: Dict[int, SweepRow] = {}
        if os.path.exists(path):
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    index, row = _row_from_record(json.loads(line))
                    self._completed[index] = row

    @property
    def completed(self) -> Dict[int, SweepRow]:
        return dict(self._completed)

    def append(self, index: int, row: SweepRow) -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps(_row_to_record(index, row)) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._completed[index] = row


def run_sweep(
    grid: SweepGrid,
    spec: SW26010Spec = DEFAULT_SPEC,
    chip: bool = True,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    retries: int = 0,
    backoff: float = 0.0,
    timeout: Optional[float] = None,
    plan_cache: Optional[str] = None,
    telemetry=None,
) -> List[SweepRow]:
    """Plan, model and time every configuration of the grid.

    ``jobs > 1`` fans configurations over worker processes; rows come back
    in grid order either way, so parallel and serial sweeps render
    identically.  Infeasible configurations are reported as rows with
    ``error`` set rather than aborting the sweep.

    ``checkpoint`` names a JSONL file recording each completed
    configuration (in batches of ``jobs`` under parallelism, per
    configuration serially): a killed sweep re-run with the same arguments
    skips everything already checkpointed and produces rows — and therefore
    rendered/CSV artifacts — byte-identical to an uninterrupted run.
    ``retries``/``backoff``/``timeout`` are forwarded to
    :func:`~repro.common.parallel.parallel_map` for per-job fault
    tolerance and crash isolation.

    ``plan_cache`` names an on-disk plan-cache directory: every
    configuration (and chip strip) then plans through the autotuner, with
    tuned winners shared across grid points, worker processes and resumed
    runs (the cache's atomic writes make concurrent workers safe).

    ``telemetry`` attaches a :class:`repro.telemetry.Telemetry` session for
    the sweep: counters and spans cover the engines the sweep constructs.
    Worker *processes* (``jobs > 1``) do not share the session — only the
    serial path (which runs workers inline) contributes hardware counters.
    """
    worker = partial(_sweep_row, spec=spec, chip=chip, plan_cache=plan_cache)
    configs = list(grid.configurations())
    with use_telemetry(telemetry) as session:
        with session.tracer.span(
            "sweep", cat="sweep", configurations=len(configs), jobs=jobs
        ):
            if checkpoint is None:
                return parallel_map(
                    worker,
                    configs,
                    jobs=jobs,
                    retries=retries,
                    backoff=backoff,
                    timeout=timeout,
                )
            store = SweepCheckpoint(checkpoint)
            done = store.completed
            pending = [
                (i, params) for i, params in enumerate(configs) if i not in done
            ]
            # Process pending configs in batches so the checkpoint advances
            # as the sweep runs; a kill loses at most one in-flight batch.
            batch_size = max(1, jobs)
            for start in range(0, len(pending), batch_size):
                batch = pending[start : start + batch_size]
                rows = parallel_map(
                    worker,
                    [params for _, params in batch],
                    jobs=jobs,
                    retries=retries,
                    backoff=backoff,
                    timeout=timeout,
                )
                for (index, _), row in zip(batch, rows):
                    store.append(index, row)
            completed = store.completed
            return [completed[i] for i in range(len(configs))]


def render_sweep(rows: Sequence[SweepRow]) -> str:
    """Aligned text table of a sweep's outcomes."""
    table = TextTable(
        ["Ni", "No", "out", "k", "B", "plan", "mdl G/CG", "meas G/CG", "chip T"],
        float_fmt="{:.1f}",
    )
    for row in rows:
        p = row.params
        table.add_row(
            [
                p.ni,
                p.no,
                p.ro,
                p.kr,
                p.b,
                row.plan if row.ok else f"error: {row.error[:30]}",
                row.model_gflops,
                row.measured_gflops,
                row.chip_tflops,
            ]
        )
    return table.render()


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    """CSV export (for plotting outside the library)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["ni", "no", "out", "k", "b", "plan", "model_gflops",
         "measured_gflops", "chip_tflops", "error"]
    )
    for row in rows:
        p = row.params
        writer.writerow(
            [p.ni, p.no, p.ro, p.kr, p.b, row.plan,
             f"{row.model_gflops:.3f}", f"{row.measured_gflops:.3f}",
             f"{row.chip_tflops:.4f}", row.error]
        )
    return buffer.getvalue()
