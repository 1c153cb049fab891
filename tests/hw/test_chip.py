"""Core groups and the Section III-D row partitioning."""

import pytest

from repro.hw.chip import CoreGroup, partition_rows


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
    """The Section III-D row split that chip timing and cache warming use."""

    def test_partition_even(self):
        strips = partition_rows(64, 4)
        assert strips == [(0, 16), (16, 32), (32, 48), (48, 64)]

    def test_partition_uneven(self):
        strips = partition_rows(10, 4)
        sizes = [b - a for a, b in strips]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_partition_fewer_rows_than_groups(self):
        strips = partition_rows(2, 4)
        sizes = [b - a for a, b in strips]
        assert sizes == [1, 1, 0, 0]

    def test_partition_subset_of_groups(self):
        strips = partition_rows(64, 2)
        assert strips == [(0, 32), (32, 64)]

    def test_partition_contiguous(self):
        strips = partition_rows(37, 4)
        for (a1, b1), (a2, b2) in zip(strips, strips[1:]):
            assert b1 == a2

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            partition_rows(-1, 4)
        with pytest.raises(ValueError):
            partition_rows(8, 0)


class TestPartitionRowsFunction:
    def test_validation(self):
        """Each rejected argument is named in the error."""
        with pytest.raises(ValueError, match="non-negative"):
            partition_rows(-1, 4)
        with pytest.raises(ValueError, match="core group"):
            partition_rows(8, 0)
        with pytest.raises(ValueError, match="core group"):
            partition_rows(8, -2)
