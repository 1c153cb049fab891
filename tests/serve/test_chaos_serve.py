"""The chaos-serve harness: availability, parity audit, report schema."""

import pytest

from repro.common.schema import validate
from repro.faults import default_chaos_serve_faults, run_chaos_serve

pytestmark = [pytest.mark.serve, pytest.mark.faults]


@pytest.fixture(scope="module")
def report():
    """One shared small chaos run — the assertions all read, never mutate."""
    return run_chaos_serve(
        fault_spec=default_chaos_serve_faults(),
        n_requests=64,
        rate_rps=4000.0,
    )


class TestChaosServeRun:
    def test_availability_with_zero_wrong_answers(self, report):
        # The resilience contract: under a fault plan that hangs ~45% of
        # staged DMAs and fences two CPEs, every request still gets a
        # bit-identical answer or a typed rejection.
        assert report.offered == 64
        assert report.availability >= 0.99
        assert report.wrong_answers == 0
        assert report.zero_wrong_answers
        assert report.counters_balanced

    def test_breaker_cycled_under_faults(self, report):
        assert report.breaker_opened >= 1
        assert any("closed->open" in t for t in report.breaker_transitions)

    def test_recovery_machinery_engaged(self, report):
        # At a ~45% per-attempt failure rate, retries must have fired; the
        # taxonomy tallies must cover everything offered.
        assert report.retries >= 1
        answered = (
            report.completed
            + report.shed
            + report.rejected
            + report.deadline_misses
        )
        assert answered + report.errors <= report.offered
        assert report.completed >= 1

    def test_latency_recorded_for_both_phases(self, report):
        assert report.p99_ms_fault > 0.0
        assert report.p99_ms_clean > 0.0
        assert report.p50_ms_fault <= report.p99_ms_fault
        assert report.p50_ms_clean <= report.p99_ms_clean

    def test_as_dict_passes_schema(self, report):
        assert validate(report.as_dict()) == []

    def test_render_summarizes(self, report):
        text = report.render()
        assert "availability" in text
        assert "wrong answers: 0" in text
        assert "breaker" in text


class TestSchemaValidation:
    def _valid(self, report):
        return report.as_dict()

    def test_missing_key_reported(self, report):
        payload = self._valid(report)
        del payload["availability"]
        errors = validate(payload)
        assert any("availability" in e for e in errors)

    def test_wrong_type_reported(self, report):
        payload = self._valid(report)
        payload["completed"] = "many"
        errors = validate(payload)
        assert any("completed" in e for e in errors)

    def test_wrong_answers_must_be_zero(self, report):
        payload = self._valid(report)
        payload["wrong_answers"] = 1
        errors = validate(payload)
        assert any("wrong answer" in e for e in errors)

    def test_availability_bounds_checked(self, report):
        payload = self._valid(report)
        payload["availability"] = 1.5
        errors = validate(payload)
        assert any("availability" in e for e in errors)

    def test_unbalanced_counters_reported(self, report):
        payload = self._valid(report)
        payload["counters_balanced"] = False
        errors = validate(payload)
        assert any("balance" in e for e in errors)

    def test_malformed_transition_labels_reported(self, report):
        payload = self._valid(report)
        payload["breaker_transitions"] = ["opened!"]
        errors = validate(payload)
        assert any("transition" in e for e in errors)
