"""DMA engine and the Table II bandwidth model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import GB
from repro.hw.dma import DMABandwidthModel, DMAEngine, table_ii_model
from repro.hw.ldm import LDM
from repro.hw.memory import MainMemory
from repro.hw.spec import TABLE_II_DMA_BANDWIDTH


@pytest.fixture
def model():
    return DMABandwidthModel()


class TestBandwidthModel:
    def test_exact_table_entries(self, model):
        for size, (get, put) in TABLE_II_DMA_BANDWIDTH.items():
            assert model.get_bandwidth(size) == pytest.approx(get * GB)
            assert model.put_bandwidth(size) == pytest.approx(put * GB)

    def test_exact_entries_ignore_alignment_flag(self, model):
        # Measured points already include alignment effects.
        assert model.get_bandwidth(32, aligned=False) == pytest.approx(4.31 * GB)

    def test_interpolation_between_points(self, model):
        bw = model.get_bandwidth(768)  # between 640 and 1024
        assert 29.05 * GB < bw < 29.79 * GB

    def test_clamped_below(self, model):
        assert model.get_bandwidth(8) == pytest.approx(4.31 * GB)

    def test_clamped_above(self, model):
        assert model.get_bandwidth(1 << 20) == pytest.approx(32.05 * GB)

    def test_misaligned_interpolated_derated(self, model):
        aligned = model.get_bandwidth(768, aligned=True)
        misaligned = model.get_bandwidth(775, aligned=False)
        assert misaligned < aligned

    def test_direction_dispatch(self, model):
        assert model.bandwidth(256, "get") == pytest.approx(22.44 * GB)
        assert model.bandwidth(256, "put") == pytest.approx(25.80 * GB)
        with pytest.raises(ValueError):
            model.bandwidth(256, "sideways")

    def test_effective_bandwidth_between_get_and_put(self, model):
        eff = model.effective_bandwidth(256, get_fraction=0.5)
        assert min(22.44, 25.80) * GB < eff < max(22.44, 25.80) * GB

    def test_effective_bandwidth_pure_get(self, model):
        eff = model.effective_bandwidth(256, get_fraction=1.0)
        assert eff == pytest.approx(22.44 * GB)

    def test_effective_fraction_validated(self, model):
        with pytest.raises(ValueError):
            model.effective_bandwidth(256, get_fraction=1.5)

    def test_zero_block_rejected(self, model):
        with pytest.raises(ValueError):
            model.get_bandwidth(0)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            DMABandwidthModel(table={})

    @given(st.integers(min_value=1, max_value=1 << 16))
    @settings(max_examples=60, deadline=None)
    def test_bandwidth_positive_and_bounded(self, block):
        model = DMABandwidthModel()
        bw = model.get_bandwidth(block, aligned=model.is_aligned(block))
        assert 0 < bw <= 36.01 * GB

    @given(st.integers(min_value=7, max_value=13))
    @settings(max_examples=20, deadline=None)
    def test_monotone_on_aligned_powers(self, log_size):
        model = DMABandwidthModel()
        small = model.get_bandwidth(2**log_size)
        big = model.get_bandwidth(2 ** (log_size + 1) if log_size < 13 else 2**13)
        assert big >= small


class TestMemoizedLookups:
    def test_memo_answers_as_the_lookup(self, model):
        for block in list(range(1, 5000, 37)) + [1 << 20]:
            for direction in ("get", "put"):
                for aligned in (True, False):
                    column = model._get if direction == "get" else model._put
                    expected = model._lookup(block, column, aligned)
                    assert model.bandwidth(block, direction, aligned) == expected
                    assert model.bandwidth(block, direction, aligned) == expected

    def test_errors_are_not_memoized(self, model):
        for _ in range(2):
            with pytest.raises(ValueError):
                model.bandwidth(0, "get")
            with pytest.raises(ValueError):
                model.bandwidth(64, "sideways")

    def test_engines_share_one_model_per_alignment(self, small_params):
        from repro.core.conv import ConvolutionEngine
        from repro.core.planner import plan_convolution

        plan = plan_convolution(small_params).plan
        first, second = ConvolutionEngine(plan), ConvolutionEngine(plan)
        assert first._dma_model is second._dma_model is table_ii_model(128)
        assert table_ii_model(256) is not table_ii_model(128)
        assert table_ii_model(256).alignment == 256


class TestDMAEngine:
    def _setup(self):
        mem = MainMemory()
        engine = DMAEngine(mem)
        ldm = LDM()
        return mem, engine, ldm

    def test_get_moves_data(self):
        mem, engine, ldm = self._setup()
        src = mem.register("src", np.arange(32, dtype=np.float64))
        buf = ldm.alloc("buf", (32,))
        engine.dma_get("src", slice(None), buf)
        assert np.array_equal(buf.data, src)

    def test_put_moves_data_back(self):
        mem, engine, ldm = self._setup()
        mem.allocate("dst", (32,))
        buf = ldm.alloc("buf", (32,))
        buf.fill(2.0)
        engine.dma_put(buf, slice(None), "dst", slice(None))
        assert np.all(mem.get("dst") == 2.0)

    def test_put_accumulate(self):
        mem, engine, ldm = self._setup()
        dst = mem.allocate("dst", (8,))
        dst += 1.0
        buf = ldm.alloc("buf", (8,))
        buf.fill(2.0)
        engine.dma_put(buf, slice(None), "dst", slice(None), accumulate=True)
        assert np.all(mem.get("dst") == 3.0)

    def test_transfer_duration_matches_model(self):
        mem, engine, ldm = self._setup()
        mem.register("src", np.zeros(512))  # 4096 bytes
        buf = ldm.alloc("buf", (512,))
        t = engine.dma_get("src", slice(None), buf, block_bytes=4096)
        assert t.duration == pytest.approx(4096 / (32.05 * GB))

    def test_channel_serialization(self):
        mem, engine, ldm = self._setup()
        mem.register("src", np.zeros((2, 512)))
        buf = ldm.alloc("buf", (512,))
        t1 = engine.dma_get("src", (0, slice(None)), buf, channel=0)
        t2 = engine.dma_get("src", (1, slice(None)), buf, channel=0)
        assert t2.start >= t1.finish

    def test_independent_channels_overlap(self):
        mem, engine, ldm = self._setup()
        mem.register("src", np.zeros((2, 512)))
        buf = ldm.alloc("buf", (512,))
        t1 = engine.dma_get("src", (0, slice(None)), buf, channel=0)
        t2 = engine.dma_get("src", (1, slice(None)), buf, channel=1)
        assert t2.start == 0.0
        assert t1.start == 0.0

    def test_stats_accumulate(self):
        mem, engine, ldm = self._setup()
        mem.register("src", np.zeros(512))
        buf = ldm.alloc("buf", (512,))
        engine.dma_get("src", slice(None), buf)
        engine.dma_put(buf, slice(None), "src", slice(None))
        assert engine.stats.bytes_read == 4096
        assert engine.stats.bytes_written == 4096
        assert engine.stats.transfers == 2

    def test_reset_clears_log(self):
        mem, engine, ldm = self._setup()
        mem.register("src", np.zeros(16))
        buf = ldm.alloc("buf", (16,))
        engine.dma_get("src", slice(None), buf)
        engine.reset()
        assert engine.total_bytes() == 0
        assert engine.channel_free_at() == 0.0
