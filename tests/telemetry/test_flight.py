"""Flight recorder: ring bounds, causal chains, dump round-trip."""

import json

import pytest

from repro.common.schema import FLIGHT_SCHEMA
from repro.telemetry import (
    NULL_FLIGHT,
    FlightEvent,
    FlightRecorder,
    NullFlightRecorder,
    load_flight_dump,
)
from repro.telemetry.flight import EVENT_KINDS, GLOBAL_KINDS


class TestRecording:
    def test_typed_vocabulary_enforced(self):
        fr = FlightRecorder()
        with pytest.raises(ValueError, match="unknown flight event kind"):
            fr.record("request.submitted")  # typo'd kind
        fr.record("request.submit", request=1)
        assert fr.recorded == 1

    def test_global_kinds_are_a_subset(self):
        assert set(GLOBAL_KINDS) <= EVENT_KINDS

    def test_ring_overwrites_oldest(self):
        fr = FlightRecorder(capacity=3)
        for i in range(7):
            fr.record("cluster.step", step=i)
        assert len(fr) == 3
        assert fr.recorded == 7
        assert fr.dropped == 4
        steps = [e.args["step"] for e in fr.events()]
        assert steps == [4, 5, 6]
        # Sequence numbers keep counting across the wrap.
        assert [e.seq for e in fr.events()] == [4, 5, 6]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_timestamps_monotone(self):
        fr = FlightRecorder()
        for i in range(5):
            fr.record("batch.attempt", batch=0, attempt=i)
        ts = [e.t_us for e in fr.events()]
        assert ts == sorted(ts)
        assert all(t >= 0.0 for t in ts)


def _scripted_ring():
    """A hand-scripted request-17 lifecycle with bystander traffic."""
    fr = FlightRecorder()
    fr.record("request.submit", request=17, priority=0)
    fr.record("request.submit", request=99, priority=0)  # bystander
    fr.record("batch.form", batch=4, requests=[17, 18], size=2)
    fr.record("batch.attempt", batch=4, attempt=0)
    fr.record("breaker.transition", transition="closed->open")  # in-window
    fr.record("batch.retry", batch=4, attempt=1, error="DMATimeoutError")
    fr.record("batch.ok", batch=4, attempt=1)
    fr.record("request.complete", request=17, batch=4)
    fr.record("engine.rebuilt", engine=0)  # after the window: excluded
    fr.record("batch.form", batch=5, requests=[99], size=1)  # bystander
    return fr


class TestCausalChain:
    def test_chain_stitches_direct_batch_and_global(self):
        fr = _scripted_ring()
        kinds = [e.kind for e in fr.chain(17)]
        assert kinds == [
            "request.submit",
            "batch.form",
            "batch.attempt",
            "breaker.transition",
            "batch.retry",
            "batch.ok",
            "request.complete",
        ]

    def test_bystander_request_excluded(self):
        fr = _scripted_ring()
        for event in fr.chain(17):
            assert not event.involves_request(99)

    def test_global_event_outside_window_excluded(self):
        fr = _scripted_ring()
        assert "engine.rebuilt" not in [e.kind for e in fr.chain(17)]

    def test_membership_via_requests_list(self):
        fr = _scripted_ring()
        # 18 never appears as request=, only inside batch 4's membership —
        # its chain is the batch-level story.
        kinds = [e.kind for e in fr.chain(18)]
        assert kinds[0] == "batch.form"
        assert "batch.retry" in kinds

    def test_unknown_request_has_empty_chain(self):
        fr = _scripted_ring()
        assert fr.chain(12345) == []
        assert "no flight events" in fr.explain(12345)

    def test_explain_renders_one_line_per_event(self):
        fr = _scripted_ring()
        text = fr.explain(17)
        assert text.startswith("request 17: 7 event(s)")
        assert len(text.splitlines()) == 8
        assert "batch.retry" in text
        assert "error=DMATimeoutError" in text


def _without_kind(payload):
    del payload["events"][0]["kind"]
    return payload


def _string_seq(payload):
    payload["events"][0]["seq"] = "one"
    return payload


class TestDumpRoundTrip:
    def test_dump_and_load(self, tmp_path):
        fr = _scripted_ring()
        path = str(tmp_path / "flight.json")
        assert fr.dump(path) == path
        events = load_flight_dump(path)
        assert [e.as_dict() for e in events] == [
            e.as_dict() for e in fr.events()
        ]
        assert all(isinstance(e, FlightEvent) for e in events)

    def test_dump_carries_schema_and_drop_accounting(self, tmp_path):
        fr = FlightRecorder(capacity=2)
        for i in range(5):
            fr.record("cluster.step", step=i)
        payload = fr.as_dict()
        assert payload["schema"] == FLIGHT_SCHEMA
        assert payload["recorded"] == 5
        assert payload["dropped"] == 3
        assert len(payload["events"]) == 2

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/v9", "events": []}')
        with pytest.raises(ValueError, match="schema"):
            load_flight_dump(str(path))

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (_without_kind, r"events\[0\]\.kind"),
            (_string_seq, r"events\[0\]\.seq"),
            (lambda d: [d], "expected object"),
        ],
        ids=["no_kind", "string_seq", "top_level_list"],
    )
    def test_load_reports_malformed_dumps(self, tmp_path, mutate, needle):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(mutate(_scripted_ring().as_dict())))
        with pytest.raises(ValueError, match=needle):
            load_flight_dump(str(path))


class TestNullRecorder:
    def test_null_is_inert(self):
        n = NullFlightRecorder()
        n.record("request.submit", request=1)  # no vocabulary check, no store
        assert not n.enabled
        assert not n
        assert len(n) == 0
        assert n.events() == []
        assert n.chain(1) == []
        assert n.explain(1) == "flight recorder: disabled"
        assert n.as_dict()["events"] == []

    def test_null_refuses_to_dump(self, tmp_path):
        with pytest.raises(RuntimeError, match="disabled"):
            NULL_FLIGHT.dump(str(tmp_path / "x.json"))
