"""Core groups, the chip, and the Section III-D row partitioning."""

import pytest

from repro.hw import chip as chip_module
from repro.hw.chip import CoreGroup, SW26010Chip, partition_rows
from repro.hw.spec import DEFAULT_SPEC


class TestCoreGroup:
    def test_components_share_spec(self):
        cg = CoreGroup(0)
        assert cg.mesh.spec is cg.spec
        assert cg.dma.spec is cg.spec

    def test_peak(self):
        assert CoreGroup(0).peak_flops == pytest.approx(742.4e9)

    def test_flop_accounting(self):
        cg = CoreGroup(0)
        cg.mesh.cpe(0, 0).count_fma(10)
        assert cg.total_cpe_flops() == 20
        cg.reset_stats()
        assert cg.total_cpe_flops() == 0


class TestChip:
    def test_four_core_groups(self):
        assert len(SW26010Chip().core_groups) == 4

    def test_partition_even(self):
        strips = SW26010Chip().partition_rows(64)
        assert strips == [(0, 16), (16, 32), (32, 48), (48, 64)]

    def test_partition_uneven(self):
        strips = SW26010Chip().partition_rows(10)
        sizes = [b - a for a, b in strips]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_partition_fewer_rows_than_groups(self):
        strips = SW26010Chip().partition_rows(2)
        sizes = [b - a for a, b in strips]
        assert sizes == [1, 1, 0, 0]

    def test_partition_subset_of_groups(self):
        strips = SW26010Chip().partition_rows(64, num_groups=2)
        assert strips == [(0, 32), (32, 64)]

    def test_partition_contiguous(self):
        strips = SW26010Chip().partition_rows(37)
        for (a1, b1), (a2, b2) in zip(strips, strips[1:]):
            assert b1 == a2

    def test_partition_validation(self):
        chip = SW26010Chip()
        with pytest.raises(ValueError):
            chip.partition_rows(-1)
        with pytest.raises(ValueError):
            chip.partition_rows(8, num_groups=0)

    def test_scaled_time_is_max(self):
        assert SW26010Chip.scaled_time([1.0, 2.0, 1.5]) == 2.0

    def test_scaled_time_empty_rejected(self):
        with pytest.raises(ValueError):
            SW26010Chip.scaled_time([])

    def test_memory_partition(self):
        chip = SW26010Chip()
        part = chip.set_partition(0.25)
        total = DEFAULT_SPEC.memory_bytes * 4
        assert part.shared_bytes == total // 4
        assert part.private_bytes + part.shared_bytes == total

    def test_partition_fraction_validated(self):
        with pytest.raises(ValueError):
            SW26010Chip().set_partition(1.5)


class TestPartitionRowsFunction:
    @pytest.mark.parametrize("rows", [0, 2, 10, 37, 64])
    @pytest.mark.parametrize("groups", [1, 2, 4, 7])
    def test_matches_chip_method(self, rows, groups):
        assert partition_rows(rows, groups) == SW26010Chip().partition_rows(
            rows, num_groups=groups
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_rows(-1, 4)
        with pytest.raises(ValueError):
            partition_rows(8, 0)

    def test_callers_build_no_chip(self, monkeypatch, tmp_path):
        """Chip timing and cache warming only need the strips."""
        from repro.core.conv import evaluate_chip
        from repro.core.params import ConvParams
        from repro.tune import warm_cache

        def no_chip(*args, **kwargs):
            raise AssertionError("a whole chip was built to split rows")

        monkeypatch.setattr(chip_module, "SW26010Chip", no_chip)
        params = ConvParams.from_output(ni=8, no=8, ro=6, co=6, kr=3, kc=3, b=8)
        _, reports = evaluate_chip(params)
        assert len(reports) == 4
        tuned = warm_cache([params], cache=tmp_path, top_k=1)
        assert len(tuned) == 3  # the full shape plus the 2- and 1-row strips
