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
    """``multiply`` on a (T, No, Ni) @ (T, Ni, M) stack == T single multiplies."""

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
    @settings(max_examples=5, deadline=None)
    def test_stack_equals_single_multiplies(self, spec, t, a, b, c, seed):
        n = spec.mesh_size
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((t, n * a, n * b))
        d = rng.standard_normal((t, n * b, n * c))
        # Reference: T single multiplies, each the full bus protocol.
        full_tel = Telemetry()
        full = MeshGemm(spec=spec, mode="full", telemetry=full_tel)
        reference = np.stack([full.multiply(wt, dt) for wt, dt in zip(w, d)])
        singles = {"full": (reference, _mesh_stats(full), _mesh_counters(full_tel))}
        tel = Telemetry()
        session = MeshGemm(spec=spec, mode="session", telemetry=tel)
        singles["session"] = (
            np.stack([session.multiply(wt, dt) for wt, dt in zip(w, d)]),
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

    def test_stack_certifies_on_its_first_pair(self, rng):
        gemm = MeshGemm(spec=SMALL, mode="session")
        w = rng.standard_normal((5, 8, 12))
        d = rng.standard_normal((5, 12, 16))
        first = gemm.multiply(w, d)  # certifies on the first pair
        assert gemm.verified_signatures == 1
        assert np.array_equal(gemm.multiply(w, d), first)
        assert gemm.verified_signatures == 1

    def test_two_d_operands_are_a_stack_of_one(self, rng):
        gemm = MeshGemm(spec=SMALL, mode="session")
        w, d = _pair(rng, (8, 12), (12, 16))
        single = gemm.multiply(w, d)
        assert single.shape == (8, 16)
        assert np.array_equal(gemm.multiply(w[None], d[None])[0], single)

    @pytest.mark.parametrize(
        "shape_w, shape_d",
        [((3, 8, 8), (2, 8, 8)), ((0, 8, 8), (0, 8, 8)), ((2, 8, 8), (8, 8))],
        ids=["stack-sizes-differ", "empty-stack", "mixed-ndim"],
    )
    def test_bad_stacks_rejected(self, shape_w, shape_d):
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
        spec = DEFAULT_SPEC if size == 8 else DEFAULT_SPEC.shrunk(size)
        gemm = MeshGemm(spec=spec, mode="session")
        rng = np.random.default_rng(size)
        for no, ni, m in self.GRID:
            w, d = _pair(rng, (no, ni), (ni, m))
            try:
                gemm.multiply(w, d)
            except LDMOverflowError:
                continue  # the blocks do not fit one CPE's LDM
            except SimulationError as err:
                pytest.fail(f"{size}x{size} mesh, signature {(no, ni, m)}: {err}")
            assert gemm._verified[((no, ni), (ni, m))] in MeshGemm.STRATEGIES


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


def _stack_sizes(engine):
    """Record the stack size of every multiply ``engine`` issues."""
    gemm = engine._mesh_gemm
    real = gemm.multiply
    sizes = []

    def recorded(w, d):
        sizes.append(len(w))
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


def _greedy_stacks(plan):
    """Each update's stack under the greedy queue the mesh backends filled
    before the walk was compiled: a new stack at every window-shape change
    and wherever the operands would pass the byte budget."""
    p = plan.params
    stack_of, shape, used = [], None, 0
    for step in plan.compiled_schedule():
        for c in step.computes:
            ni_len = c.ni_len if c.ni_len >= 0 else p.ni
            window = (c.bb_len, ni_len, c.co_len)
            pair = (p.no * ni_len + c.bb_len * ni_len * c.co_len) * 8
            if not stack_of or window != shape or used + pair > MESH_STACK_BYTES:
                shape, used = window, 0
                stack_of.append(stack_of[-1] + 1 if stack_of else 0)
            else:
                stack_of.append(stack_of[-1])
            used += pair
    return stack_of


def _greedy_partition(plan):
    """Stack sizes of :func:`_greedy_stacks`, in order."""
    stack_of = _greedy_stacks(plan)
    return [stack_of.count(i) for i in range(stack_of[-1] + 1)]


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
    """Engine runs that stack tile GEMMs stay bit-identical to ``mesh``."""

    #: Edge blocks on batch (24 % 16) and columns (10 % 4), and a blocked
    #: Ni (16 + 8): the schedule alternates between eight tile shapes.
    MIXED = ImageSizeAwarePlan(
        ConvParams(ni=24, no=8, ri=3, ci=12, kr=3, kc=3, b=24),
        blocking=ImageBlocking(b_b=16, b_co=4, b_ni=16),
    )

    def _runs(self, plan, x, w, run_kwargs=None, **engine_kwargs):
        results = {}
        for backend in ("mesh", "mesh-fast"):
            telemetry = Telemetry()
            engine = ConvolutionEngine(
                plan, backend=backend, telemetry=telemetry, **engine_kwargs
            )
            sizes = _stack_sizes(engine)
            y, report = engine.run(x, w, **(run_kwargs or {}))
            results[backend] = (y, report, telemetry.counters.as_dict(), sizes)
        return results

    def _assert_parity(self, results):
        y_mesh, report_mesh, counters_mesh, sizes_mesh = results["mesh"]
        y_fast, report_fast, counters_fast, sizes_fast = results["mesh-fast"]
        assert np.array_equal(y_mesh, y_fast)
        assert report_mesh == report_fast
        assert counters_mesh == counters_fast
        assert counters_fast["cpe.flops"] > 0
        assert sizes_mesh == sizes_fast

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
        sizes = results["mesh-fast"][3]
        assert sizes == _greedy_partition(self.MIXED)
        assert max(sizes) > 1 and len(sizes) > len(shapes)
        # Products land on their output windows in schedule order.
        assert np.array_equal(results["mesh"][0], _tile_by_tile(self.MIXED, x, w))

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
        the tile-by-tile oracle bit for bit, post the same counters, and
        stack the updates exactly as the greedy queue did."""
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
        assert results["mesh-fast"][3] == _greedy_partition(plan)
        # One fenced CPE leaves a 2x2 submesh of the 4x4 mesh.
        oracle = _tile_by_tile(plan, x, w, SMALL.shrunk(2 if fenced else 4))
        expected = _epilogue(oracle, run_kwargs["bias"], run_kwargs["activation"], pool)
        assert np.array_equal(results["mesh"][0], expected)

    def test_output_rows_shared_by_two_stacks(self, rng):
        """With Ni blocked as 8 + 4, each tile's updates change window
        shape halfway, so every output element gets products from two
        stacks; the second stack adds onto what the first wrote."""
        plan = ImageSizeAwarePlan(
            ConvParams.from_output(ni=12, no=4, ro=2, co=4, kr=2, kc=2, b=4),
            blocking=ImageBlocking(b_b=4, b_co=2, b_ni=8),
            spec=SMALL,
        )
        p = plan.params
        stacks_of = {}
        for c, stack in zip(
            (c for step in plan.compiled_schedule() for c in step.computes),
            _greedy_stacks(plan),
        ):
            for b in range(c.bb, c.bb + c.bb_len):
                for col in range(c.co, c.co + c.co_len):
                    stacks_of.setdefault((b, c.ro, col), set()).add(stack)
        assert len(stacks_of) == p.b * p.ro * p.co
        assert all(len(stacks) == 2 for stacks in stacks_of.values())
        x = rng.standard_normal(p.input_shape)
        w = rng.standard_normal(p.filter_shape)
        results = self._runs(plan, x, w)
        self._assert_parity(results)
        assert np.array_equal(results["mesh"][0], _tile_by_tile(plan, x, w, SMALL))

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
        y_fast, _ = fast.run(x, w)
        walk = plan.compiled_walk()
        y_again, _ = fast.run(x, w)
        y_full, _ = full.run(x, w)
        assert compiled == [plan]
        assert plan.compiled_walk() is walk
        assert np.array_equal(y_fast, y_full) and np.array_equal(y_fast, y_again)

    def test_tiles_over_the_byte_budget_run_alone(self, rng):
        params = ConvParams(ni=128, no=64, ri=3, ci=18, kr=3, kc=3, b=16)
        plan = ImageSizeAwarePlan(params, blocking=ImageBlocking(b_b=16, b_co=16))
        m = 16 * 16
        assert (params.no * params.ni + params.ni * m) * 8 > MESH_STACK_BYTES
        x = rng.standard_normal(params.input_shape)
        w = rng.standard_normal(params.filter_shape)
        results = self._runs(plan, x, w)
        self._assert_parity(results)
        assert results["mesh-fast"][3] == [1] * (params.kr * params.kc)

    def test_failed_run_leaves_no_queued_tiles(self, rng, monkeypatch):
        p = self.MIXED.params
        x = rng.standard_normal(p.input_shape)
        w = rng.standard_normal(p.filter_shape)
        engine = ConvolutionEngine(self.MIXED, backend="mesh-fast")
        gemm = engine._mesh_gemm
        real = gemm.multiply
        calls = []

        def failing(a, b):
            calls.append(len(a))
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
