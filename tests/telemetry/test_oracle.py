"""The Demmel--Dinh communication-lower-bound oracle."""

import math

import pytest

from repro.common.schema import validate
from repro.core.params import ConvParams
from repro.hw.spec import DEFAULT_SPEC
from repro.telemetry import demmel_dinh_bound_bytes, oracle_report
from repro.telemetry.oracle import OracleRow

SMALL = ConvParams.from_output(ni=32, no=32, ro=16, co=16, kr=3, kc=3, b=16)
FIVE = ConvParams.from_output(ni=16, no=16, ro=12, co=12, kr=5, kc=5, b=8)


class TestBound:
    def test_bound_dominates_compulsory_traffic(self):
        """The bound is at least one touch of every operand byte."""
        assert demmel_dinh_bound_bytes(SMALL) >= SMALL.total_bytes()

    def test_rearrangement_term(self):
        """For compute-heavy layers the sqrt(M) re-use term dominates."""
        spec = DEFAULT_SPEC
        m_words = spec.ldm_bytes * spec.cpes_per_group // spec.double_bytes
        expected = 2.0 * (SMALL.flops() // 2) / math.sqrt(m_words) * spec.double_bytes
        assert demmel_dinh_bound_bytes(SMALL) == max(
            SMALL.total_bytes(), int(math.ceil(expected))
        )

    def test_bound_scales_with_work(self):
        big = ConvParams.from_output(ni=32, no=32, ro=16, co=16, kr=3, kc=3, b=64)
        assert demmel_dinh_bound_bytes(big) > demmel_dinh_bound_bytes(SMALL)

    def test_smaller_fast_memory_raises_the_bound(self):
        shrunk = DEFAULT_SPEC.shrunk(4)  # 16 CPEs -> much less aggregate LDM
        assert demmel_dinh_bound_bytes(SMALL, shrunk) >= demmel_dinh_bound_bytes(
            SMALL, DEFAULT_SPEC
        )


class TestOracleRow:
    def test_attainment_is_bound_over_measured(self):
        row = OracleRow(
            params=SMALL, algorithm="direct", plan="image-size-aware",
            measured_bytes=200, bound_bytes=100, gflops=1.0,
        )
        assert row.attainment == pytest.approx(0.5)
        assert not row.undercuts_bound
        assert not row.flagged(0.02)

    def test_undercutting_the_bound_is_flagged(self):
        """Moving fewer bytes than the lower bound is an accounting bug,
        not a fast kernel — always flagged."""
        row = OracleRow(
            params=SMALL, algorithm="direct", plan="image-size-aware",
            measured_bytes=50, bound_bytes=100, gflops=1.0,
        )
        assert row.undercuts_bound
        assert row.flagged(0.02)

    def test_wasteful_row_is_flagged(self):
        row = OracleRow(
            params=SMALL, algorithm="im2col", plan="im2col",
            measured_bytes=100_000, bound_bytes=100, gflops=1.0,
        )
        assert row.flagged(0.02)


class TestOracleReport:
    @pytest.fixture(scope="class")
    def report(self):
        return oracle_report([SMALL, FIVE])

    def test_one_row_per_legal_pair(self, report):
        by_shape = {}
        for row in report.rows:
            by_shape.setdefault(row.params, set()).add(row.algorithm)
        assert by_shape[SMALL] == {"direct", "im2col", "winograd"}
        # 5x5: Winograd is illegal, so no row
        assert by_shape[FIVE] == {"direct", "im2col"}

    def test_no_schedule_undercuts_the_bound(self, report):
        for row in report.rows:
            assert not row.undercuts_bound, row

    def test_attainment_in_unit_interval(self, report):
        for row in report.rows:
            assert 0.0 < row.attainment <= 1.0

    def test_render_mentions_every_algorithm(self, report):
        text = report.render()
        for algo in ("direct", "im2col", "winograd"):
            assert algo in text

    def test_as_dict_validates(self, report):
        assert validate(report.as_dict()) == []

    def test_blowup_explains_rejection(self):
        """Section III-C: lowering replicates each input pixel Kr*Kc times
        on a bandwidth-bound chip, so on a 3x3 layer the im2col engine moves
        more measured bytes than the direct plan and runs slower."""
        params = ConvParams.from_output(
            ni=128, no=128, ro=64, co=64, kr=3, kc=3, b=128
        )
        rows = {row.algorithm: row for row in oracle_report([params]).rows}
        assert rows["im2col"].measured_bytes > rows["direct"].measured_bytes
        assert rows["im2col"].gflops < rows["direct"].gflops

    def test_restricted_algorithms(self):
        report = oracle_report([SMALL], algorithms=("direct", "winograd"))
        assert {row.algorithm for row in report.rows} == {"direct", "winograd"}

    def test_bad_threshold_raises(self):
        with pytest.raises(ValueError):
            oracle_report([SMALL], threshold=0.0)


class TestValidation:
    def _valid(self):
        return oracle_report([SMALL]).as_dict()

    def test_not_a_dict(self):
        assert validate([]) != []

    def test_empty_rows(self):
        data = self._valid()
        data["rows"] = []
        assert any("rows" in e for e in validate(data))

    def test_unknown_algorithm(self):
        data = self._valid()
        data["rows"][0]["algorithm"] = "fft"
        assert any("fft" in e for e in validate(data))

    def test_attainment_consistency(self):
        data = self._valid()
        data["rows"][0]["attainment"] = 0.123456
        assert any("attainment" in e for e in validate(data))

    def test_missing_direct_baseline(self):
        data = self._valid()
        data["rows"] = [r for r in data["rows"] if r["algorithm"] != "direct"]
        data["flagged"] = sum(1 for r in data["rows"] if r["flagged"])
        assert any("direct baseline" in e for e in validate(data))

    def test_flagged_count_consistency(self):
        data = self._valid()
        data["flagged"] = 99
        assert any("flagged count" in e for e in validate(data))
