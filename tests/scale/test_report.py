"""Data-parallel benchmark report: builder + schema gate."""

import copy
import json

import pytest

from repro.common.errors import PlanError
from repro.common.schema import MIN_OVERLAP_SPEEDUP, validate
from repro.scale.network import InterconnectModel
from repro.scale.report import (
    build_dataparallel_report,
    overlap_rows,
    run_parity_check,
    strong_scaling_rows,
    weak_scaling_rows,
)

pytestmark = pytest.mark.scale


@pytest.fixture(scope="module")
def report():
    return build_dataparallel_report(nodes=2, steps=2, parity_steps=1)


class TestReport:
    def test_validates_clean(self, report):
        assert validate(report) == []

    def test_json_serializable(self, report):
        json.dumps(report)

    def test_parity_proof_holds(self, report):
        assert report["parity"]["bitwise_identical"] is True
        assert report["parity"]["matches_plain_sgd"] is True
        assert report["replicas_in_lockstep"] is True

    def test_executed_run_recorded(self, report):
        assert report["nodes_executed"] == 2
        assert len(report["losses"]) == 2
        assert report["throughput_samples_per_second"] > 0
        assert report["comm_counters"]["comm.link_bytes"] > 0

    def test_overlap_clears_the_bar_at_scale(self, report):
        for row in report["overlap_ablation"]:
            if row["nodes"] >= 16:
                assert row["speedup"] >= MIN_OVERLAP_SPEEDUP


class TestScalingCurves:
    def test_weak_scaling_efficiency_decays_gently(self):
        rows = weak_scaling_rows(InterconnectModel(), "ring", 1 << 20)
        assert rows[0]["efficiency"] == pytest.approx(1.0)
        effs = [row["efficiency"] for row in rows]
        assert effs == sorted(effs, reverse=True)
        assert effs[-1] > 0.9  # overlap keeps weak scaling near-ideal
        samples = [row["samples_per_second"] for row in rows]
        assert samples == sorted(samples)

    def test_slow_interconnect_lowers_weak_efficiency(self):
        def efficiency_at_64(interconnect):
            rows = weak_scaling_rows(interconnect, "ring", 1 << 20, node_counts=(1, 64))
            return rows[-1]["efficiency"]

        slow = InterconnectModel(bandwidth=1e9)
        assert efficiency_at_64(slow) < efficiency_at_64(InterconnectModel())

    @pytest.mark.parametrize("sizes", [{"per_node_batch": 0}, {"node_counts": (0,)}])
    def test_empty_sizes_rejected(self, sizes):
        with pytest.raises(PlanError):
            weak_scaling_rows(InterconnectModel(), "ring", 1 << 20, **sizes)

    def test_strong_scaling_efficiency_collapses(self):
        rows = strong_scaling_rows(InterconnectModel(), "ring", 1 << 20)
        # Fixed global batch: per-node work shrinks until comm dominates.
        assert rows[-1]["efficiency"] < rows[1]["efficiency"]

    def test_overlap_beats_serialized(self):
        for row in overlap_rows(InterconnectModel(), "ring", 1 << 20):
            assert row["overlapped_seconds"] <= row["serialized_seconds"]


class TestValidator:
    def _broken(self, report, **changes):
        broken = copy.deepcopy(report)
        broken.update(changes)
        return broken

    def test_missing_key_flagged(self, report):
        broken = copy.deepcopy(report)
        del broken["parity"]
        assert any("parity" in v for v in validate(broken))

    def test_wrong_type_flagged(self, report):
        broken = self._broken(report, topology=7)
        assert any("topology" in v for v in validate(broken))

    def test_broken_parity_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["parity"]["bitwise_identical"] = False
        assert any(
            "bitwise_identical" in v for v in validate(broken)
        )

    def test_slow_overlap_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["overlap_ablation"][0]["speedup"] = 1.05
        assert any("1.2x bar" in v for v in validate(broken))

    def test_unsorted_curve_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["weak_scaling"].reverse()
        assert any("sorted" in v for v in validate(broken))

    def test_missing_traffic_flagged(self, report):
        broken = copy.deepcopy(report)
        broken["comm_counters"]["comm.link_bytes"] = 0
        assert any("link_bytes" in v for v in validate(broken))

    def test_non_object_rejected(self):
        assert validate([]) == ["document: expected object, got list"]


class TestParityCheck:
    def test_default_check_passes(self):
        parity = run_parity_check(steps=1)
        assert parity["bitwise_identical"] is True
        assert parity["pairwise_vs_first"] == {"1": True, "2": True, "4": True}
