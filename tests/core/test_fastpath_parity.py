"""Fast-path (session-mode) execution parity with the full mesh simulation.

The ``mesh-fast`` tier promises *bit-identical* results to the ``mesh``
backend: session mode verifies the Fig. 3 bus protocol once per operand
signature, then executes the same block schedule as batched NumPy GEMMs,
a whole stack of same-shape tile GEMMs per call.  These tests pin that
contract — numerics, statistics accounting, stacking, and the
``reset_stats`` semantics between plan executions.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.common.errors import LDMOverflowError, PlanError, SimulationError
from repro.core.backward import BackwardConvolution
from repro.core.conv import BACKENDS, ConvolutionEngine
from repro.core.ldm_blocking import BatchBlocking, ImageBlocking
from repro.core.params import ConvParams
from repro.core.planner import plan_convolution
from repro.core.plans import MESH_STACK_BYTES, BatchSizeAwarePlan, ImageSizeAwarePlan
from repro.core.reference import conv2d_reference
from repro.core.register_comm import MeshGemm
from repro.faults import FaultPlan, FaultSpec
from repro.hw.spec import DEFAULT_SPEC
from repro.telemetry import Telemetry


SMALL = DEFAULT_SPEC.shrunk(4)


def _pair(rng, shape_w, shape_d):
    return rng.standard_normal(shape_w), rng.standard_normal(shape_d)


def _mesh_stats(gemm):
    """Per-bus and per-CPE statistics of one MeshGemm."""
    buses = [
        (b.stats.packets, b.stats.bytes, b.stats.operations)
        for b in gemm.mesh.row_buses + gemm.mesh.col_buses
    ]
    cpes = [(c.stats.bus_puts, c.stats.bus_gets, c.stats.flops) for c in gemm.mesh]
    return buses, cpes


class TestSessionMeshGemm:
    def test_mode_validated(self):
        with pytest.raises(PlanError):
            MeshGemm(spec=SMALL, mode="warp")

    def test_first_multiply_verifies_then_fast(self, rng):
        gemm = MeshGemm(spec=SMALL, mode="session")
        w, d = _pair(rng, (8, 12), (12, 16))
        assert gemm.verified_signatures == 0
        first = gemm.multiply(w, d)
        assert gemm.verified_signatures == 1
        second = gemm.multiply(w, d)
        assert gemm.verified_signatures == 1  # same signature, no re-verify
        assert np.array_equal(first, second)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=20, deadline=None)
    def test_fast_path_bit_identical_to_full(self, a, b, c, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((4 * a, 4 * b))
        d = rng.standard_normal((4 * b, 4 * c))
        full = MeshGemm(spec=SMALL, mode="full").multiply(w, d)
        session = MeshGemm(spec=SMALL, mode="session")
        session.multiply(w, d)  # verification run
        fast = session.multiply(w, d)  # fast path
        assert np.array_equal(full, fast)

    def test_fast_path_statistics_match_full(self, rng):
        w, d = _pair(rng, (16, 24), (24, 16))
        full = MeshGemm(spec=SMALL, mode="full")
        full.multiply(w, d)
        session = MeshGemm(spec=SMALL, mode="session")
        session.multiply(w, d)  # verify (runs the full protocol once)
        session.reset_stats()
        session.multiply(w, d)  # pure fast path
        assert _mesh_stats(session) == _mesh_stats(full)
        assert session.bus_bytes() == full.bus_bytes()

    def test_reset_stats_clears_counters_keeps_signatures(self, rng):
        gemm = MeshGemm(spec=SMALL, mode="session")
        w, d = _pair(rng, (8, 8), (8, 8))
        gemm.multiply(w, d)
        assert gemm.bus_bytes() > 0
        assert gemm.verified_signatures == 1
        gemm.reset_stats()
        assert gemm.bus_bytes() == 0
        assert all(c.stats.flops == 0 for c in gemm.mesh)
        assert all(c.stats.bus_puts == 0 for c in gemm.mesh)
        assert gemm.verified_signatures == 1  # fast path still armed
        # Next multiply of the same signature goes straight to the fast path
        # and accounts exactly one schedule's traffic.
        before = gemm.verified_signatures
        gemm.multiply(w, d)
        assert gemm.verified_signatures == before

    def test_distinct_signatures_verified_separately(self, rng):
        gemm = MeshGemm(spec=SMALL, mode="session")
        gemm.multiply(*_pair(rng, (8, 8), (8, 8)))
        gemm.multiply(*_pair(rng, (8, 12), (12, 8)))
        assert gemm.verified_signatures == 2


def _mesh_counters(telemetry):
    counters = telemetry.counters.as_dict()
    return {
        name: value
        for name, value in counters.items()
        if name.startswith("mesh.bus_") or name == "cpe.flops"
    }


class TestStackedMultiply:
    """``multiply`` of a shared W with a (T, Ni, M) stack == T single multiplies."""

    @pytest.mark.parametrize("spec", [DEFAULT_SPEC, SMALL], ids=["8x8", "4x4"])
    @given(
        t=st.integers(min_value=1, max_value=70),
        a=st.integers(min_value=1, max_value=3),
        b=st.integers(min_value=1, max_value=3),
        c=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=99),
    )
    @example(t=70, a=1, b=4, c=2, seed=0)  # one-row blocks, deep reduction
    @example(t=33, a=2, b=1, c=3, seed=1)  # depth-1 blocks
    @example(t=9, a=2, b=2, c=1, seed=2)  # one-column blocks
    @settings(max_examples=5, deadline=None)
    def test_stack_equals_single_multiplies(self, spec, t, a, b, c, seed):
        n = spec.mesh_size
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n * a, n * b))
        d = rng.standard_normal((t, n * b, n * c))
        # Reference: T single multiplies, each the full bus protocol.
        full_tel = Telemetry()
        full = MeshGemm(spec=spec, mode="full", telemetry=full_tel)
        reference = np.stack([full.multiply(w, dt) for dt in d])
        singles = {"full": (reference, _mesh_stats(full), _mesh_counters(full_tel))}
        tel = Telemetry()
        session = MeshGemm(spec=spec, mode="session", telemetry=tel)
        singles["session"] = (
            np.stack([session.multiply(w, dt) for dt in d]),
            _mesh_stats(session),
            _mesh_counters(tel),
        )
        for mode, (single_out, single_stats, single_counters) in singles.items():
            tel = Telemetry()
            stacked = MeshGemm(spec=spec, mode=mode, telemetry=tel)
            out = stacked.multiply(w, d)
            assert out.shape == (t, n * a, n * c)
            assert np.array_equal(out, single_out), mode
            assert np.array_equal(out, reference), mode
            assert _mesh_stats(stacked) == single_stats, mode
            assert _mesh_counters(tel) == single_counters, mode
            assert single_counters["cpe.flops"] == 2 * t * n**3 * a * b * c
            # The certified (steady) path of the same stack.
            assert np.array_equal(stacked.multiply(w, d), reference), mode

    def test_stack_certifies_on_its_first_pair(self, rng):
        gemm = MeshGemm(spec=SMALL, mode="session")
        w = rng.standard_normal((8, 12))
        d = rng.standard_normal((5, 12, 16))
        first = gemm.multiply(w, d)  # certifies on the first pair
        assert gemm.verified_signatures == 1
        assert np.array_equal(gemm.multiply(w, d), first)
        assert gemm.verified_signatures == 1
        # A stack of another size is another width: certified on its own.
        assert np.array_equal(gemm.multiply(w, d[:3]), first[:3])
        assert gemm.verified_signatures == 2

    def test_two_d_operands_are_a_stack_of_one(self, rng):
        gemm = MeshGemm(spec=SMALL, mode="session")
        w, d = _pair(rng, (8, 12), (12, 16))
        single = gemm.multiply(w, d)
        assert single.shape == (8, 16)
        assert np.array_equal(gemm.multiply(w, d[None])[0], single)

    @pytest.mark.parametrize(
        "shape_w, shape_d",
        [((3, 8, 8), (2, 8, 8)), ((8, 8), (0, 8, 8)), ((2, 8, 8), (8, 8))],
        ids=["stack-sizes-differ", "empty-stack", "mixed-ndim"],
    )
    def test_bad_stacks_rejected(self, shape_w, shape_d):
        # W is shared by the whole stack, so a stack of W is rejected too.
        gemm = MeshGemm(spec=SMALL, mode="session")
        with pytest.raises(PlanError):
            gemm.multiply(np.ones(shape_w), np.ones(shape_d))


class TestCertification:
    #: The signature grid of the session-mode regression: No x Ni x M.
    GRID = list(itertools.product([8, 16, 32, 64], [8, 16, 24, 32, 64, 128],
                                  [8, 16, 64, 128]))

    def test_one_row_blocks_certify(self, rng):
        # No = 8 on the 8x8 mesh gives one-row W blocks; with Ni >= 32 and
        # M <= 16 only contiguous block copies, as the protocol stages
        # them, take the same BLAS kernel as the protocol.
        w, d = _pair(rng, (8, 32), (32, 16))
        session = MeshGemm(mode="session")
        first = session.multiply(w, d)
        assert np.array_equal(first, MeshGemm(mode="full").multiply(w, d))
        assert np.array_equal(session.multiply(w, d), first)

    @pytest.mark.parametrize("size", [8, 4, 2])
    def test_every_divisible_signature_certifies(self, size):
        """Every signature certifies as a stack of three pairs sharing W,
        the layout the walk runs, and the stack equals the protocol."""
        spec = DEFAULT_SPEC if size == 8 else DEFAULT_SPEC.shrunk(size)
        gemm = MeshGemm(spec=spec, mode="session")
        full = MeshGemm(spec=spec, mode="full")
        rng = np.random.default_rng(size)
        for no, ni, m in self.GRID:
            w, d = _pair(rng, (no, ni), (3, ni, m))
            try:
                out = gemm.multiply(w, d)
            except LDMOverflowError:
                continue  # the blocks do not fit one CPE's LDM
            except SimulationError as err:
                pytest.fail(f"{size}x{size} mesh, signature {(no, ni, m)}: {err}")
            assert gemm._verified[((no, ni), (3, ni, m))] in MeshGemm.STRATEGIES
            assert np.array_equal(out[1], full.multiply(w, d[1]))


#: Mesh-divisible layer shapes for the engine-level parity property.
PARITY_CONFIGS = [
    ConvParams(ni=8, no=8, ri=10, ci=10, kr=3, kc=3, b=8),
    ConvParams(ni=16, no=8, ri=8, ci=8, kr=3, kc=3, b=8),
    ConvParams(ni=8, no=16, ri=6, ci=6, kr=1, kc=1, b=16),
    ConvParams(ni=16, no=16, ri=10, ci=10, kr=5, kc=5, b=8),
    ConvParams(ni=8, no=8, ri=12, ci=8, kr=3, kc=1, b=8),
    # One-row W blocks (No = 8) with a deep reduction (Ni = 32).
    ConvParams(ni=32, no=8, ri=6, ci=6, kr=3, kc=3, b=8),
]


def _engines(params, backends=("mesh", "mesh-fast")):
    plan = plan_convolution(params).plan
    return [ConvolutionEngine(plan, backend=b) for b in backends]


class TestConvForwardParity:
    @pytest.mark.parametrize("params", PARITY_CONFIGS, ids=str)
    def test_forward_bit_identical_to_mesh(self, params, rng):
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        mesh_engine, fast_engine = _engines(params)
        y_mesh, _ = mesh_engine.run(x, w)
        y_fast, _ = fast_engine.run(x, w)
        assert np.array_equal(y_mesh, y_fast)
        assert np.allclose(y_fast, conv2d_reference(x, w), rtol=1e-10, atol=1e-10)

    def test_repeated_runs_stay_identical(self, rng):
        params = PARITY_CONFIGS[0]
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        (fast_engine,) = _engines(params, backends=("mesh-fast",))
        first, _ = fast_engine.run(x, w)
        verified = fast_engine._mesh_gemm.verified_signatures
        assert verified > 0
        second, _ = fast_engine.run(x, w)
        assert fast_engine._mesh_gemm.verified_signatures == verified
        assert np.array_equal(first, second)

    def test_run_resets_stats_between_executions(self, rng):
        params = PARITY_CONFIGS[0]
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        (fast_engine,) = _engines(params, backends=("mesh-fast",))
        fast_engine.run(x, w)
        traffic_first = fast_engine._mesh_gemm.bus_bytes()
        fast_engine.run(x, w)
        # Same plan, same shapes: one execution's traffic, not the lifetime's.
        assert fast_engine._mesh_gemm.bus_bytes() == traffic_first

    def test_unknown_backend_rejected(self):
        plan = plan_convolution(PARITY_CONFIGS[0]).plan
        with pytest.raises(PlanError):
            ConvolutionEngine(plan, backend="cuda")
        assert "mesh-fast" in BACKENDS


class TestCounterParity:
    """Telemetry must tell the same story for both execution tiers.

    The fast path *accounts* the traffic it skips simulating; the hardware
    counters are where that promise becomes observable.  Bytes moved over
    the register buses and CPE flops must be identical whichever tier ran.
    """

    BUS_COUNTERS = ("mesh.bus_bytes", "mesh.bus_packets", "mesh.bus_operations")

    def _counted_run(self, params, backend, x, w):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        plan = plan_convolution(params).plan
        engine = ConvolutionEngine(plan, backend=backend, telemetry=telemetry)
        y, _ = engine.run(x, w)
        return y, telemetry.counters

    @pytest.mark.parametrize("params", PARITY_CONFIGS[:3], ids=str)
    def test_bus_bytes_and_flops_identical(self, params, rng):
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        y_mesh, mesh_counters = self._counted_run(params, "mesh", x, w)
        y_fast, fast_counters = self._counted_run(params, "mesh-fast", x, w)
        assert np.array_equal(y_mesh, y_fast)
        for name in self.BUS_COUNTERS:
            assert mesh_counters.get(name) == fast_counters.get(name), name
        assert mesh_counters.get("cpe.flops") == fast_counters.get("cpe.flops")
        assert mesh_counters.get("cpe.flops") > 0
        assert mesh_counters.total("mesh.bus_") > 0

    def test_engine_level_accounting_identical(self, rng):
        params = PARITY_CONFIGS[0]
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        _, mesh_counters = self._counted_run(params, "mesh", x, w)
        _, fast_counters = self._counted_run(params, "mesh-fast", x, w)
        for name in ("engine.bytes_get", "engine.bytes_put", "engine.flops",
                     "engine.tiles", "engine.runs"):
            assert mesh_counters.get(name) == fast_counters.get(name), name


def _call_sizes(engine):
    """Record the stack size (tiles) of every multiply ``engine`` issues."""
    gemm = engine._mesh_gemm
    real = gemm.multiply
    sizes = []

    def recorded(w, d):
        sizes.append(len(d))
        return real(w, d)

    gemm.multiply = recorded
    return sizes


def _tile_by_tile(plan, x, w, mesh_spec=DEFAULT_SPEC):
    """The mesh update loop with one full-protocol multiply per tile GEMM."""
    p = plan.params
    gemm = MeshGemm(spec=mesh_spec, mode="full")
    out = np.zeros(p.output_shape)
    for step in plan.compiled_schedule():
        for c in step.computes:
            ni = slice(c.ni0, c.ni0 + (c.ni_len if c.ni_len >= 0 else p.ni))
            window = x[c.bb : c.bb + c.bb_len, ni, c.ro + c.kr,
                       c.co + c.kc : c.co + c.kc + c.co_len]
            d = window.transpose(1, 0, 2).reshape(window.shape[1], -1)
            product = gemm.multiply(w[:, ni, c.kr, c.kc], d)
            out[c.bb : c.bb + c.bb_len, :, c.ro, c.co : c.co + c.co_len] += (
                product.reshape(p.no, c.bb_len, c.co_len).transpose(1, 0, 2)
            )
    return out


def _operand(c, p):
    return (c.kr, c.kc, c.ni0, c.ni_len if c.ni_len >= 0 else p.ni)


def _tiles(plan):
    """The schedule's output tiles, ``(bb, ro, co, bb_len, co_len)``, in
    the order of their first update."""
    return list(
        dict.fromkeys(
            (c.bb, c.ro, c.co, c.bb_len, c.co_len)
            for step in plan.compiled_schedule()
            for c in step.computes
        )
    )


def _receives_in_walk_order(plan):
    """Replay the schedule update by update: every output element must
    receive each of the walk's operands once, in the walk's order."""
    p = plan.params
    walk = plan.compiled_walk()
    position = {key: i for i, key in enumerate(walk.operands)}
    received = np.zeros((p.b, p.ro, p.co), dtype=int)
    for step in plan.compiled_schedule():
        for c in step.computes:
            cells = received[c.bb : c.bb + c.bb_len, c.ro, c.co : c.co + c.co_len]
            if (cells != position[_operand(c, p)]).any():
                return False
            cells += 1
    return bool((received == len(walk.operands)).all())


def _expected_calls(plan):
    """Each multiply's stack size in one run, derived from the schedule:
    the tiles of each shape in balanced chunks of at most the budget's
    count (accumulator and one operand per column), one multiply per chunk
    and filter operand."""
    p = plan.params
    tiles = _tiles(plan)
    operands = {
        _operand(c, p) for step in plan.compiled_schedule() for c in step.computes
    }
    ni_max = max(key[3] for key in operands)
    sizes = []
    for shape in dict.fromkeys(t[3:] for t in tiles):
        count = sum(t[3:] == shape for t in tiles)
        column_bytes = (p.no + ni_max) * 8
        per_chunk = max(1, MESH_STACK_BYTES // (column_bytes * shape[0] * shape[1]))
        chunks = -(-count // per_chunk)
        for i in range(chunks):
            sizes += [count // chunks + (i < count % chunks)] * len(operands)
    return sizes


def _epilogue(out, bias, activation, pool):
    """The fused epilogue, applied to an unfused output."""
    if bias is not None:
        out = out + bias[None, :, None, None]
    if activation == "relu":
        out = np.maximum(out, 0.0)
    if pool > 1:
        b, no, ro, co = out.shape
        out = out.reshape(b, no, ro // pool, pool, co // pool, pool).mean(axis=(3, 5))
    return out


@st.composite
def _small_plans(draw):
    """Plans of both families that the 4x4 mesh (and a 2x2 one) can run.

    Edge blocks on batch (image plans, 12 % 8) and on columns (``b_co``
    need not divide ``co``), blocked Ni (12 in blocks of 8 + 4), and even
    output sizes so a fused 2x2 pooling divides them.
    """
    ni = draw(st.sampled_from([4, 8, 12]))
    no = draw(st.sampled_from([4, 8]))
    kr, kc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ro, co = draw(st.sampled_from([2, 4])), draw(st.sampled_from([2, 4, 6]))
    b_ni = draw(st.sampled_from([None, 4, 8]))
    b_co = draw(st.integers(1, co))
    if draw(st.booleans()):
        b = draw(st.sampled_from([4, 8, 12]))
        params = ConvParams.from_output(ni=ni, no=no, ro=ro, co=co, kr=kr, kc=kc, b=b)
        blocking = ImageBlocking(
            b_b=draw(st.sampled_from([4, 8])), b_co=b_co, b_ni=b_ni
        )
        return ImageSizeAwarePlan(params, blocking=blocking, spec=SMALL)
    b = draw(st.sampled_from([4, 8]))
    params = ConvParams.from_output(ni=ni, no=no, ro=ro, co=co, kr=kr, kc=kc, b=b)
    blocking = BatchBlocking(b_co=b_co, b_ni=b_ni)
    return BatchSizeAwarePlan(params, blocking=blocking, spec=SMALL)


class TestStackedEngineRuns:
    """Engine runs of the operand-major walk stay bit-identical to ``mesh``."""

    #: Edge blocks on batch (24 % 16) and columns (10 % 4), and a blocked
    #: Ni (16 + 8): four tile shapes, eight window shapes.
    MIXED = ImageSizeAwarePlan(
        ConvParams(ni=24, no=8, ri=3, ci=12, kr=3, kc=3, b=24),
        blocking=ImageBlocking(b_b=16, b_co=4, b_ni=16),
    )

    def _runs(self, plan, x, w, run_kwargs=None, **engine_kwargs):
        """Each backend's engine, and its first (certifying) and second
        (steady) run: output, report, the run's counters, call sizes."""
        results = {}
        for backend in ("mesh", "mesh-fast"):
            telemetry = Telemetry()
            engine = ConvolutionEngine(
                plan, backend=backend, telemetry=telemetry, **engine_kwargs
            )
            sizes = _call_sizes(engine)
            runs = []
            for _ in range(2):
                before = telemetry.counters.as_dict()
                sizes.clear()
                y, report = engine.run(x, w, **(run_kwargs or {}))
                after = telemetry.counters.as_dict()
                counters = {k: v - before.get(k, 0) for k, v in after.items()}
                runs.append((y, report, counters, list(sizes)))
            results[backend] = (engine, runs)
        return results

    def _assert_parity(self, results):
        (_, mesh_runs), (_, fast_runs) = results["mesh"], results["mesh-fast"]
        y, report, counters, sizes = mesh_runs[0]
        for y_run, report_run, _, sizes_run in mesh_runs + fast_runs:
            assert np.array_equal(y_run, y)
            assert report_run == report
            assert sizes_run == sizes
        # Run by run (high-water gauges grow on the first run only), both
        # backends post the same counters, and every run a whole run's flops.
        for (*_, mesh_counters, _), (*_, fast_counters, _) in zip(mesh_runs, fast_runs):
            assert mesh_counters == fast_counters
            assert fast_counters["cpe.flops"] == counters["cpe.flops"] > 0

    def _output(self, results):
        return results["mesh"][1][0][0]

    def _sizes(self, results):
        return results["mesh-fast"][1][0][3]

    def test_mixed_signatures(self, rng):
        p = self.MIXED.params
        shapes = {
            (c.bb_len, c.ni_len, c.co_len)
            for step in self.MIXED.compiled_schedule()
            for c in step.computes
        }
        assert len(shapes) == 8
        x = rng.standard_normal(p.input_shape)
        w = rng.standard_normal(p.filter_shape)
        results = self._runs(self.MIXED, x, w)
        self._assert_parity(results)
        sizes = self._sizes(results)
        assert sizes == _expected_calls(self.MIXED)
        assert max(sizes) > 1 and len(sizes) > len(shapes)
        # Products land on their output windows in schedule order.
        assert np.array_equal(self._output(results), _tile_by_tile(self.MIXED, x, w))

    @given(
        plan=_small_plans(),
        pool=st.sampled_from([1, 2]),
        bias=st.booleans(),
        relu=st.booleans(),
        fenced=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_compiled_walk_matches_tile_by_tile(
        self, plan, pool, bias, relu, fenced, seed
    ):
        """Both families, edge blocks, blocked Ni, the fused epilogue and a
        mesh shrunk around a fenced CPE: ``mesh`` and ``mesh-fast`` equal
        the tile-by-tile oracle bit for bit, on the certifying run and the
        steady one, post the same counters, and make one multiply per
        chunk and operand."""
        p = plan.params
        assume(sum(len(step.computes) for step in plan.compiled_schedule()) <= 150)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(p.input_shape)
        w = rng.standard_normal(p.filter_shape)
        run_kwargs = {
            "bias": rng.standard_normal(p.no) if bias else None,
            "activation": "relu" if relu else None,
        }
        faults = FaultPlan(FaultSpec(fenced_cpes=((0, 0),))) if fenced else None
        results = self._runs(
            plan, x, w, run_kwargs, fault_plan=faults, fused_pool=pool
        )
        self._assert_parity(results)
        assert self._sizes(results) == _expected_calls(plan)
        # One fenced CPE leaves a 2x2 submesh of the 4x4 mesh.
        oracle = _tile_by_tile(plan, x, w, SMALL.shrunk(2 if fenced else 4))
        expected = _epilogue(oracle, run_kwargs["bias"], run_kwargs["activation"], pool)
        assert np.array_equal(self._output(results), expected)

    @given(plan=_small_plans())
    @settings(max_examples=60, deadline=None)
    def test_every_element_receives_operands_in_walk_order(self, plan):
        """The walk's operand order is the order every output element
        receives its operands in, and its chunks hold whole tiles of one
        shape within the byte budget."""
        assert _receives_in_walk_order(plan)
        p = plan.params
        walk = plan.compiled_walk()
        ni_max = max(key[3] for key in walk.operands)
        assert sum(len(chunk.x_base) for chunk in walk.chunks) == len(_tiles(plan))
        for chunk in walk.chunks:
            columns = len(chunk.x_base) * chunk.shape[0] * chunk.shape[1]
            assert (
                len(chunk.x_base) == 1
                or (p.no + ni_max) * columns * 8 <= MESH_STACK_BYTES
            )

    @pytest.mark.parametrize(
        "params",
        [
            ConvParams(ni=8, no=16, ri=12, ci=12, kr=3, kc=3, b=16),
            ConvParams(ni=16, no=16, ri=10, ci=10, kr=3, kc=3, b=16),
        ],
        ids=str,
    )
    def test_every_tuner_candidate_receives_operands_in_walk_order(self, params):
        """Every direct candidate of the tuner's search space for the
        ``train`` net's two convolutions, both families and every
        promotion, compiles to a walk in its common order."""
        from repro.tune.space import enumerate_candidates

        blockings = {
            (c.family, c.blocking): c for c in enumerate_candidates(params)
        }
        assert len(blockings) > 20
        for candidate in blockings.values():
            plan = candidate.build(params)
            assert _receives_in_walk_order(plan), candidate.describe()

    @pytest.mark.parametrize("fault", ["swapped", "missing-tile"])
    def test_schedule_out_of_common_order_rejected(self, fault, monkeypatch):
        """The compile step refuses a schedule the walk cannot replay
        exactly: one tile's operands swapped, or a tile left out."""
        from repro.common.errors import PlanError as Error
        from repro.core.plans import TileStep

        plan = ImageSizeAwarePlan(
            ConvParams.from_output(ni=8, no=8, ro=2, co=4, kr=2, kc=2, b=8),
            blocking=ImageBlocking(b_b=8, b_co=2),
            spec=SMALL,
        )
        steps = plan.compiled_schedule()
        first = steps[0]
        if fault == "swapped":
            computes = [first.computes[1], first.computes[0]] + first.computes[2:]
            changed = (TileStep(first.gets, computes, first.puts, first.flops),)
            match = "common order"
        else:
            changed = (TileStep(first.gets, [], first.puts, first.flops),)
            match = "overlap or leave gaps"
        monkeypatch.setattr(plan, "compiled_schedule", lambda: changed + steps[1:])
        with pytest.raises(Error, match=match):
            plan.compiled_walk()

    @pytest.mark.parametrize("ni", [8, 16], ids=["kb1", "kb2"])
    def test_train_conv_shapes(self, ni, rng):
        """The ``train`` net's two convolutions (8 -> 16 and 16 -> 16
        channels, batch 16, the batch-size-aware plan) at a reduced image
        size: depth-1 and depth-2 slabs on the 8x8 mesh."""
        params = ConvParams(ni=ni, no=16, ri=6, ci=6, kr=3, kc=3, b=16)
        plan = BatchSizeAwarePlan(params)
        x = rng.standard_normal(params.input_shape)
        np.maximum(x, 0.0, out=x)  # ReLU'd activations: many exact zeros
        w = rng.standard_normal(params.filter_shape)
        results = self._runs(plan, x, w)
        self._assert_parity(results)
        assert np.array_equal(self._output(results), _tile_by_tile(plan, x, w))
        engine = results["mesh-fast"][0]
        assert set(engine._mesh_gemm._verified.values()) == {"slab"}

    def test_one_row_blocks_stay_blocked(self, rng):
        """No = 4 on the 4x4 mesh gives one-row W blocks, which BLAS
        multiplies down another path than a wide slab: the walk's
        signature certifies ``blocked`` and stays bit-identical."""
        plan = ImageSizeAwarePlan(
            ConvParams.from_output(ni=16, no=4, ro=2, co=4, kr=2, kc=2, b=4),
            blocking=ImageBlocking(b_b=4, b_co=4),
            spec=SMALL,
        )
        p = plan.params
        x = rng.standard_normal(p.input_shape)
        w = rng.standard_normal(p.filter_shape)
        results = self._runs(plan, x, w)
        self._assert_parity(results)
        assert np.array_equal(self._output(results), _tile_by_tile(plan, x, w, SMALL))
        engine = results["mesh-fast"][0]
        assert set(engine._mesh_gemm._verified.values()) == {"blocked"}

    def test_output_rows_shared_by_two_stacks(self, rng):
        """With Ni blocked as 8 + 4, every output element receives the
        operands of two Ni blocks, of two W shapes: each chunk's
        accumulator adds the products of both signatures in order."""
        plan = ImageSizeAwarePlan(
            ConvParams.from_output(ni=12, no=4, ro=2, co=4, kr=2, kc=2, b=4),
            blocking=ImageBlocking(b_b=4, b_co=2, b_ni=8),
            spec=SMALL,
        )
        p = plan.params
        walk = plan.compiled_walk()
        assert {key[2:] for key in walk.operands} == {(0, 8), (8, 4)}
        assert _receives_in_walk_order(plan)
        x = rng.standard_normal(p.input_shape)
        w = rng.standard_normal(p.filter_shape)
        results = self._runs(plan, x, w)
        self._assert_parity(results)
        signatures = results["mesh-fast"][0]._mesh_gemm._verified
        assert {w_shape for w_shape, _ in signatures} == {(4, 8), (4, 4)}
        assert np.array_equal(self._output(results), _tile_by_tile(plan, x, w, SMALL))

    def test_walk_compiled_once_and_shared(self, rng, monkeypatch):
        """Engines of one plan share one compiled walk, built on first use."""
        import repro.core.plans as plans

        compiled = []
        real = plans._compile_walk
        monkeypatch.setattr(
            plans, "_compile_walk", lambda plan: compiled.append(plan) or real(plan)
        )
        params = ConvParams.from_output(ni=8, no=8, ro=4, co=4, kr=3, kc=3, b=8)
        plan = plan_convolution(params, spec=SMALL).plan
        assert plan_convolution(params, spec=SMALL).plan is plan
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        fast = ConvolutionEngine(plan, backend="mesh-fast")
        full = ConvolutionEngine(plan, backend="mesh")
        calls = _call_sizes(fast)
        y_fast, _ = fast.run(x, w)
        walk = plan.compiled_walk()
        y_again, _ = fast.run(x, w)
        y_full, _ = full.run(x, w)
        assert compiled == [plan]
        assert plan.compiled_walk() is walk
        assert np.array_equal(y_fast, y_full) and np.array_equal(y_fast, y_again)
        # One multiply per chunk and operand, each over the chunk's tiles.
        per_run = [len(c.x_base) for c in walk.chunks for _ in walk.operands]
        assert calls == per_run * 2 == _expected_calls(plan) * 2

    def test_tiles_over_the_byte_budget_run_alone(self, rng):
        params = ConvParams(ni=128, no=64, ri=3, ci=18, kr=3, kc=3, b=16)
        plan = ImageSizeAwarePlan(params, blocking=ImageBlocking(b_b=16, b_co=16))
        m = 16 * 16
        assert (params.no + params.ni) * m * 8 > MESH_STACK_BYTES
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        results = self._runs(plan, x, w)
        self._assert_parity(results)
        assert self._sizes(results) == [1] * (params.kr * params.kc)

    def test_failed_run_leaves_no_queued_tiles(self, rng, monkeypatch):
        p = self.MIXED.params
        x = rng.standard_normal(p.input_shape)
        w = rng.standard_normal(p.filter_shape)
        engine = ConvolutionEngine(self.MIXED, backend="mesh-fast")
        gemm = engine._mesh_gemm
        real = gemm.multiply
        calls = []

        def failing(a, b):
            calls.append(len(b))
            if len(calls) == 3:
                raise SimulationError("injected mid-schedule failure")
            return real(a, b)

        monkeypatch.setattr(gemm, "multiply", failing)
        with pytest.raises(SimulationError, match="injected"):
            engine.run(x, w)
        monkeypatch.undo()
        y, report = engine.run(x, w)
        fresh = ConvolutionEngine(self.MIXED, backend="mesh-fast")
        y_fresh, report_fresh = fresh.run(x, w)
        assert np.array_equal(y, y_fresh)
        assert report == report_fresh
        assert _mesh_stats(gemm) == _mesh_stats(fresh._mesh_gemm)


class TestBackwardParity:
    @pytest.mark.parametrize("params", PARITY_CONFIGS[:3], ids=str)
    def test_backward_data_bit_identical_to_mesh(self, params, rng):
        w = rng.standard_normal(params.filter_shape)
        grad_out = rng.standard_normal(params.output_shape)
        gx_mesh, _ = BackwardConvolution(params, backend="mesh").grad_input(
            w, grad_out
        )
        gx_fast, _ = BackwardConvolution(params, backend="mesh-fast").grad_input(
            w, grad_out
        )
        assert np.array_equal(gx_mesh, gx_fast)

    @pytest.mark.parametrize("params", PARITY_CONFIGS[:3], ids=str)
    def test_backward_filter_bit_identical_to_mesh(self, params, rng):
        x = rng.standard_normal(params.input_shape)
        grad_out = rng.standard_normal(params.output_shape)
        gw_mesh, _ = BackwardConvolution(params, backend="mesh").grad_filter(
            x, grad_out
        )
        gw_fast, _ = BackwardConvolution(params, backend="mesh-fast").grad_filter(
            x, grad_out
        )
        assert np.array_equal(gw_mesh, gw_fast)

    def test_backward_engines_reused(self, rng):
        params = PARITY_CONFIGS[0]
        bwd = BackwardConvolution(params, backend="mesh-fast")
        w = rng.standard_normal(params.filter_shape)
        grad_out = rng.standard_normal(params.output_shape)
        g1, _ = bwd.grad_input(w, grad_out)
        engine = bwd._engines["data"]
        g2, _ = bwd.grad_input(w, grad_out)
        assert bwd._engines["data"] is engine
        assert np.array_equal(g1, g2)


class TestPaddedParity:
    def test_handle_padding_bit_identical_to_mesh(self, rng):
        from repro.api.descriptors import ConvolutionDescriptor
        from repro.api.handle import SwDNNHandle

        x = rng.standard_normal((8, 8, 8, 8))
        w = rng.standard_normal((8, 8, 3, 3))
        desc = ConvolutionDescriptor(pad_h=1, pad_w=1)
        y_mesh, _ = SwDNNHandle(backend="mesh").convolution_forward(
            x, w, conv_desc=desc
        )
        y_fast, _ = SwDNNHandle(backend="mesh-fast").convolution_forward(
            x, w, conv_desc=desc
        )
        assert y_mesh.shape == (8, 8, 8, 8)  # same-padding output
        assert np.array_equal(y_mesh, y_fast)
