"""Architectural constants of the SW26010 model (paper Section III-B)."""

import pytest

from repro.common.units import GB
from repro.hw.spec import DEFAULT_SPEC, TABLE_II_DMA_BANDWIDTH


class TestPaperNumbers:
    """Pin the constants the paper states explicitly."""

    def test_peak_per_cg_is_742_4_gflops(self):
        assert DEFAULT_SPEC.peak_flops_per_cg == pytest.approx(742.4e9)

    def test_chip_peak_near_3_tflops(self):
        assert DEFAULT_SPEC.peak_flops_chip == pytest.approx(2969.6e9)

    def test_chip_bandwidth_144_gbps(self):
        assert DEFAULT_SPEC.chip_bandwidth == pytest.approx(144 * GB)

    def test_ldm_is_64_kib(self):
        assert DEFAULT_SPEC.ldm_bytes == 64 * 1024

    def test_ldm_register_bandwidth(self):
        assert DEFAULT_SPEC.ldm_bandwidth == pytest.approx(46.4 * GB)

    def test_gload_bandwidth(self):
        assert DEFAULT_SPEC.gload_bandwidth == pytest.approx(8 * GB)

    def test_mesh_is_8x8(self):
        assert DEFAULT_SPEC.mesh_size == 8
        assert DEFAULT_SPEC.cpes_per_group == 64

    def test_latencies(self):
        assert DEFAULT_SPEC.load_latency == 4
        assert DEFAULT_SPEC.fma_latency == 7


class TestTableII:
    def test_twelve_block_sizes(self):
        assert len(TABLE_II_DMA_BANDWIDTH) == 12

    def test_known_entries(self):
        assert TABLE_II_DMA_BANDWIDTH[32] == (4.31, 2.56)
        assert TABLE_II_DMA_BANDWIDTH[4096] == (32.05, 36.01)

    def test_get_bandwidth_monotone_on_aligned_sizes(self):
        aligned = [s for s in sorted(TABLE_II_DMA_BANDWIDTH) if s % 128 == 0]
        gets = [TABLE_II_DMA_BANDWIDTH[s][0] for s in aligned]
        assert gets == sorted(gets)


class TestSpecBehaviour:
    def test_cycle_conversion_roundtrip(self):
        seconds = DEFAULT_SPEC.cycles_to_seconds(1.45e9)
        assert seconds == pytest.approx(1.0)
        assert DEFAULT_SPEC.seconds_to_cycles(seconds) == pytest.approx(1.45e9)

    def test_shrunk_mesh(self):
        small = DEFAULT_SPEC.shrunk(4)
        assert small.mesh_size == 4
        assert small.cpes_per_group == 16
        assert small.clock_hz == DEFAULT_SPEC.clock_hz

    def test_shrunk_rejects_zero(self):
        with pytest.raises(ValueError):
            DEFAULT_SPEC.shrunk(0)

    def test_immutability(self):
        with pytest.raises(Exception):
            DEFAULT_SPEC.mesh_size = 4
