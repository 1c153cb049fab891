"""The run-length tile program against the coalesced schedule it replaces.

``_reference_steps`` is the coalesced branch of the per-tile generators
both plan families used before the program existed, kept as the
reference: the program must unroll to exactly its steps, and the timed
walk over the program must reproduce the per-tile fold of those steps bit
for bit.  The fold's oracle is ``_history_intervals``, a scalar
tile-by-tile recurrence kept here, independent of the engine's array
schedule.  The GEMM and Winograd engines fold their per-tile streams
through the same run-length fold, pinned against the same oracle.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.algorithms import GemmBlocking, WinogradEngine, make_lowered_plan
from repro.core.conv import (
    ConvolutionEngine,
    TimingReport,
    _fold_program,
    _pipeline_timeline,
    _StepCost,
    clear_timing_cache,
    pipeline_intervals,
)
from repro.core.gemm_plan import GemmEngine, GemmParams, GemmPlan
from repro.core.layout import (
    DS,
    batch_plan_block_bytes,
    filter_block_bytes,
    image_plan_block_bytes,
)
from repro.core.ldm_blocking import BatchBlocking, ImageBlocking
from repro.core.params import ConvParams
from repro.core.plans import (
    BatchSizeAwarePlan,
    ImageSizeAwarePlan,
    TileStep,
    TileTransfer,
    expand_program,
)
from repro.experiments.configs import fig8_center, fig8_left, fig8_right
from repro.experiments.table3 import PAPER_ROWS
from repro.hw.spec import DEFAULT_SPEC
from repro.perf.dma_model import DMAStream
from repro.tune import autotune, tuner


def _reference_image_steps(plan):
    p, blk = plan.params, plan.blocking
    flt_block = filter_block_bytes(p.no)
    for bb in range(0, p.b, blk.b_b):
        bb_len = min(blk.b_b, p.b - bb)
        for ro in range(p.ro):
            for co in range(0, p.co, blk.b_co):
                co_len = min(blk.b_co, p.co - co)
                in_block = image_plan_block_bytes(co_len)
                step = TileStep()
                if blk.promote_input:
                    in_cols = co_len + p.kc - 1
                    in_halo_block = image_plan_block_bytes(in_cols)
                    in_count = p.kr
                else:
                    in_cols = co_len
                    in_halo_block = in_block
                    in_count = p.kr * p.kc
                flt_kc = p.kc if blk.promote_filter else 1
                flt_count = p.kr if blk.promote_filter else p.kr * p.kc
                step.gets.append(
                    TileTransfer(
                        "input",
                        p.ni * bb_len * in_cols * DS * in_count,
                        in_halo_block,
                        "get",
                    )
                )
                step.gets.append(
                    TileTransfer(
                        "filter",
                        p.ni * p.no * flt_kc * DS * flt_count,
                        flt_block,
                        "get",
                    )
                )
                step.flops = 2 * bb_len * co_len * p.no * p.ni * p.kr * p.kc
                step.puts.append(
                    TileTransfer("output", bb_len * p.no * co_len * DS, in_block, "put")
                )
                yield step


def _reference_batch_steps(plan):
    p, blk = plan.params, plan.blocking
    in_block = batch_plan_block_bytes(p.b)
    flt_block = filter_block_bytes(p.no)
    for co_start in range(0, p.co, blk.b_co):
        co_len = min(blk.b_co, p.co - co_start)
        n_columns = co_len + p.kc - 1
        n_updates = co_len * p.kc
        for ro in range(p.ro):
            for kr in range(p.kr):
                if blk.promote_filter:
                    head = TileStep()
                    head.gets.append(
                        TileTransfer("filter", p.ni * p.no * p.kc * DS, flt_block, "get")
                    )
                    yield head
                step = TileStep()
                step.gets.append(
                    TileTransfer("input", p.ni * p.b * n_columns * DS, in_block, "get")
                )
                if not blk.promote_filter:
                    step.gets.append(
                        TileTransfer(
                            "filter", p.ni * p.no * n_updates * DS, flt_block, "get"
                        )
                    )
                step.flops = 2 * p.b * p.no * p.ni * n_updates
                yield step
            tail = TileStep()
            tail.puts.append(
                TileTransfer("output", co_len * p.b * p.no * DS, in_block, "put")
            )
            yield tail


def _reference_steps(plan):
    if isinstance(plan, ImageSizeAwarePlan):
        return list(_reference_image_steps(plan))
    return list(_reference_batch_steps(plan))


def _reference_streams(steps):
    """The per-tile traffic aggregation ``dma_streams`` used to run."""
    totals = {}
    for step in steps:
        for tr in list(step.gets) + list(step.puts):
            key = (tr.tensor, tr.direction)
            bytes_so_far, weighted_block = totals.get(key, (0, 0.0))
            totals[key] = (
                bytes_so_far + tr.nbytes,
                weighted_block + tr.nbytes * tr.block_bytes,
            )
    return [
        DMAStream(
            name=f"{tensor}.{direction}",
            bytes_moved=float(nbytes),
            block_bytes=max(1, int(round(weighted / nbytes))),
            direction=direction,
        )
        for (tensor, direction), (nbytes, weighted) in sorted(totals.items())
        if nbytes
    ]


def _history_intervals(costs):
    """Reference recurrence: reads buffer readiness from a list of compute ends."""
    get_free = put_free = comp_free = 0.0
    history = []
    for i, cost in enumerate(costs):
        buffer_ready = history[i - 2] if i >= 2 else 0.0
        get_start = max(get_free, buffer_ready)
        get_done = get_start + cost.get_seconds
        comp_start = max(get_done, comp_free)
        comp_done = comp_start + cost.compute_seconds
        if cost.put_seconds > 0:
            put_start = max(put_free, comp_done)
            put_end = put_start + cost.put_seconds
            put_free = put_end
        else:
            put_start = put_end = comp_done
        get_free = get_done
        comp_free = comp_done
        history.append(comp_done)
        yield (i, get_start, get_done, comp_start, comp_done, put_start, put_end)


def _history_timeline(costs, contention):
    """``(total, dma_busy, compute_busy)`` of the oracle, summed tile by tile."""
    end_get = end_put = end_comp = dma = comp = 0.0
    for _, gs, ge, cs, ce, ps, pe in _history_intervals(costs):
        end_get, end_comp = ge, ce
        end_put = max(end_put, pe)
        dma += (ge - gs) + (pe - ps)
        comp += ce - cs
    total = max(end_get, end_put, end_comp, dma)
    total += contention * max(0.0, dma + comp - total)
    return total, dma, comp


def _folded_report(engine, costs):
    """The report of per-tile costs, folded by the scalar oracle."""
    total, dma_busy, comp_busy = _history_timeline(costs, engine.overlap_contention)
    return TimingReport(
        seconds=total,
        flops=sum(c.flops for c in costs),
        dma_seconds=dma_busy,
        compute_seconds=comp_busy,
        bytes_get=sum(c.bytes_get for c in costs),
        bytes_put=sum(c.bytes_put for c in costs),
        tiles=len(costs),
        peak_flops=engine.spec.peak_flops_per_cg,
    )


def _hexed(values):
    """Floats as ``float.hex`` strings (so ``-0.0 != 0.0``), other values as is."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def _hexed_windows(rows):
    return [_hexed(row) for row in rows]


def _intervals(program, max_tiles=None):
    return _hexed_windows(
        (t.index, t.get_start, t.get_end, t.compute_start, t.compute_end,
         t.put_start, t.put_end)
        for t in pipeline_intervals(program, max_tiles)
    )


def _report_fields(report):
    return _hexed(vars(report).values())


@st.composite
def plans(draw):
    """Small plans of both families: promotion flags, bNi splits, edge blocks."""
    params = ConvParams.from_output(
        ni=draw(st.sampled_from([8, 12, 16, 24])),
        no=draw(st.sampled_from([8, 16])),
        ro=draw(st.integers(min_value=1, max_value=5)),
        co=draw(st.integers(min_value=1, max_value=9)),
        kr=draw(st.integers(min_value=1, max_value=3)),
        kc=draw(st.integers(min_value=1, max_value=3)),
        b=draw(st.integers(min_value=1, max_value=12)),
    )
    b_ni = draw(st.sampled_from([None, 4, 8, 16]))
    b_co = draw(st.integers(min_value=1, max_value=params.co + 1))
    if draw(st.booleans()):
        blocking = ImageBlocking(
            b_b=draw(st.integers(min_value=1, max_value=params.b + 1)),
            b_co=b_co,
            promote_input=draw(st.booleans()),
            promote_filter=draw(st.booleans()),
            b_ni=b_ni,
        )
        return ImageSizeAwarePlan(params, blocking=blocking)
    blocking = BatchBlocking(b_co=b_co, promote_filter=draw(st.booleans()), b_ni=b_ni)
    return BatchSizeAwarePlan(params, blocking=blocking)


class TestProgramMatchesCoalescedSchedule:
    @given(plans())
    @settings(max_examples=120, deadline=None)
    def test_program_property(self, plan):
        reference = _reference_steps(plan)
        assert list(expand_program(plan.tile_program())) == reference

        clear_timing_cache()
        engine = ConvolutionEngine(plan)
        costs = [engine._step_cost(step) for step in reference]
        assert engine.evaluate() == _folded_report(engine, costs)

        assert plan.dma_streams() == _reference_streams(reference)

    @pytest.mark.parametrize(
        "plan",
        [
            # Edge batch block and edge column block (Algorithm 1).
            ImageSizeAwarePlan(
                ConvParams.from_output(ni=16, no=8, ro=3, co=7, kr=3, kc=3, b=10),
                blocking=ImageBlocking(b_b=4, b_co=3, promote_filter=True, b_ni=8),
            ),
            # Promoted filter head and an edge column block (Algorithm 2).
            BatchSizeAwarePlan(
                ConvParams.from_output(ni=16, no=8, ro=3, co=7, kr=3, kc=3, b=8),
                blocking=BatchBlocking(b_co=3, promote_filter=True),
            ),
        ],
        ids=["image", "batch"],
    )
    def test_few_distinct_steps_shared(self, plan):
        program = plan.tile_program()
        distinct = {id(step) for pattern, _ in program for step in pattern}
        assert len(distinct) <= 5
        assert sum(count * len(pattern) for pattern, count in program) == len(
            _reference_steps(plan)
        )
        # Equal tiles are the same object, so each is priced once.
        steps = [step for pattern, _ in program for step in pattern]
        for a in steps:
            for b in steps:
                assert (a == b) == (a is b)


def _gemm_costs(cost, plan):
    """Per-tile costs of a tiled GEMM: every output tile, every K chunk."""
    chunks = list(plan.k_chunks())
    return [
        cost(m_len, n_len, k_len, i == len(chunks) - 1)
        for _, m_len, _, n_len in plan.tiles()
        for i, (_, k_len) in enumerate(chunks)
    ]


class TestLoweredFoldsMatchPerTileFold:
    """GEMM and Winograd reports come from the same run-length fold."""

    @pytest.mark.parametrize(
        "shape, blocking",
        [
            ((64, 64, 64), None),
            ((100, 37, 50), (32, 16, 24)),  # edge tiles and an edge K chunk
            ((128, 96, 1152), (64, 32, 256)),
            ((7, 9, 11), None),
        ],
        ids=str,
    )
    def test_gemm_engine(self, shape, blocking):
        m, n, k = shape
        engine = GemmEngine(GemmPlan(GemmParams(m=m, n=n, k=k), blocking=blocking))
        costs = _gemm_costs(engine._cost, engine.plan)
        assert engine.evaluate() == _folded_report(engine, costs)

    @pytest.mark.parametrize(
        "params, blocking",
        [
            (ConvParams.from_output(ni=16, no=16, ro=8, co=8, kr=3, kc=3, b=8), None),
            # Edge column tiles (n = 60 in blocks of 16).
            (
                ConvParams.from_output(ni=8, no=8, ro=9, co=7, kr=3, kc=3, b=3),
                GemmBlocking(b_m=8, b_n=16, b_k=8),
            ),
            # 2 x 4 output tiles, each over three K chunks (24, 24, 16).
            (
                ConvParams.from_output(ni=64, no=32, ro=16, co=16, kr=3, kc=3, b=4),
                GemmBlocking(b_m=16, b_n=64, b_k=24),
            ),
        ],
        ids=["default", "edge-tiles", "k-chunks"],
    )
    def test_winograd_engine(self, params, blocking):
        plan = make_lowered_plan("winograd", params, blocking=blocking)
        engine = WinogradEngine(plan)
        costs = _gemm_costs(engine._pointwise_cost, engine.plan.gemm_plan())
        gemm = _fold_program(
            engine._gemm_program(), engine.overlap_contention, engine.spec.peak_flops_per_cg
        )
        assert gemm == _folded_report(engine, costs)


_seconds = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False)
_triple = st.tuples(_seconds, _seconds, st.one_of(st.just(0.0), _seconds))

#: Batch-plan-like tiles: a filter head (get only), a column step (no
#: put) and an output tail (put only).
_HEAD, _STEP, _TAIL = (2.5e-4, 0.0, 0.0), (1e-4, 3e-4, 0.0), (0.0, 0.0, 4e-4)


class TestSharedRecurrence:
    """The engine's array schedule against the scalar oracle, bit for bit."""

    @given(st.lists(_triple, max_size=40), st.sampled_from([0.0, 0.5, 1.0]))
    # A put queue: each put outlasts the next tile's compute.
    @example([(1e-4, 1e-4, 3e-4)] * 6, 0.5)
    # Exact ties between a compute and the next tile's get.
    @example([(2.5e-4, 3e-4, 0.0), (3e-4, 3e-4, 1e-4), (3e-4, 2.5e-4, 0.0)] * 3, 1.0)
    # Zero-get, zero-compute and zero-put tiles (batch heads and tails).
    @example(([_HEAD, _STEP] * 3 + [_TAIL]) * 3, 0.5)
    @example([(0.0, 0.0, 0.0), (0.0, 2e-4, 0.0), (1e-4, 0.0, 2e-4)], 1.0)
    @example([(1e-4, 2e-4, 5e-5)], 0.5)
    @example([], 0.5)
    @settings(max_examples=100, deadline=None)
    def test_matches_history_recurrence(self, triples, contention):
        costs = [_StepCost(g, c, p, 0, 0, 0) for g, c, p in triples]
        program = [(tuple(costs), 1)]
        assert _intervals(program) == _hexed_windows(_history_intervals(costs))
        assert _hexed(_pipeline_timeline(program, contention)) == _hexed(
            _history_timeline(costs, contention)
        )

    @given(
        st.lists(_triple, min_size=1, max_size=4),
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5),
                st.integers(min_value=1, max_value=30),
            ),
            max_size=4,
        ),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_runs_match_unrolled_stream(self, distinct, runs, max_tiles):
        """Shared cost objects in repeated runs, and a prefix of the tiles."""
        costs = [_StepCost(g, c, p, 0, 0, 0) for g, c, p in distinct]
        program = [
            (tuple(costs[i % len(costs)] for i in pattern), count)
            for pattern, count in runs
        ]
        stream = list(expand_program(program))
        reference = _hexed_windows(_history_intervals(stream))
        assert _intervals(program) == reference
        assert _intervals(program, max_tiles) == reference[:max_tiles]
        assert _hexed(_pipeline_timeline(program, 0.5)) == _hexed(
            _history_timeline(stream, 0.5)
        )

    @pytest.mark.parametrize(
        "put_range", [(0.0, 5e-5), (1e-3, 2e-3)], ids=["free", "queued"]
    )
    def test_long_stream_sums_left_to_right(self, put_range):
        """6,000 tiles: a pairwise (``np.sum``) or compensated (``math.fsum``,
        Python 3.12 ``sum``) busy-time total differs from the oracle's
        left-to-right sum in the last bits."""
        rng = random.Random(6000)
        costs = [
            _StepCost(
                rng.uniform(0.0, 1e-3),
                rng.uniform(1e-4, 1e-3),
                rng.uniform(*put_range) if i % 3 == 2 else 0.0,
                0,
                0,
                0,
            )
            for i in range(6000)
        ]
        program = [(tuple(costs), 1)]
        assert _hexed(_pipeline_timeline(program, 0.5)) == _hexed(
            _history_timeline(costs, 0.5)
        )
        assert _intervals(program) == _hexed_windows(_history_intervals(costs))


#: The four Table III shapes and a Fig. 8 configuration of each script.
_PAPER_SCALE = [
    ConvParams.from_output(ni=row[3], no=row[4], ro=64, co=64, kr=3, kc=3, b=128)
    for row in PAPER_ROWS
] + [fig8_left()[0], fig8_center()[40], fig8_right()[-1]]


class TestPaperScalePrograms:
    """Every plan the tuner measures on a paper-scale strip."""

    @pytest.mark.parametrize(
        "params", _PAPER_SCALE, ids=lambda p: f"{p.ni}x{p.no}k{p.kr}"
    )
    def test_measured_plans_fold_like_the_oracle(self, params, monkeypatch):
        strip = params.with_rows(params.ro // DEFAULT_SPEC.num_core_groups)
        measured = []
        measure = tuner._measure

        def record(survivors, *args):
            measured.extend(survivors)
            return measure(survivors, *args)

        monkeypatch.setattr(tuner, "_measure", record)
        autotune(strip, cache=False, jobs=1)
        assert measured
        clear_timing_cache()
        for candidate in measured:
            plan = candidate.build(strip)
            program = plan.tile_program()
            assert len(program) <= 2
            for (a, _), (b, _) in zip(program, program[1:]):
                assert a is not b
            engine = ConvolutionEngine(plan)
            costs = list(expand_program(engine._priced_program()))
            assert _report_fields(engine.evaluate()) == _report_fields(
                _folded_report(engine, costs)
            )
