"""Span recording and Chrome ``trace_event`` export."""

import json

import pytest

from repro.common.schema import validate
from repro.telemetry import NULL_TRACER, PID_SIM, PID_WALL, SpanTracer
from repro.telemetry.spans import TID_HOST


class TestSpanRecording:
    def test_span_records_on_exit(self):
        tracer = SpanTracer()
        with tracer.span("handle.call", cat="handle", backend="mesh"):
            pass
        assert len(tracer) == 1
        span = tracer.spans[0]
        assert span.name == "handle.call"
        assert span.cat == "handle"
        assert span.pid == PID_WALL
        assert span.tid == TID_HOST
        assert span.args == {"backend": "mesh"}
        assert span.dur_us >= 0

    def test_nested_spans_contained(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        # inner exits first, so it is recorded first
        inner, outer = tracer.spans
        assert inner.name == "inner"
        assert outer.ts_us <= inner.ts_us
        assert outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us

    def test_exception_tags_error_and_propagates(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("nope")
        assert tracer.spans[0].args["error"] == "ValueError"

    def test_record_sim_converts_seconds_to_us(self):
        tracer = SpanTracer()
        tracer.record_sim("tile[0].get", 0.5, 1.5, track="dma-get", cat="tile")
        span = tracer.spans[0]
        assert span.pid == PID_SIM
        assert span.tid == "dma-get"
        assert span.ts_us == pytest.approx(0.5e6)
        assert span.dur_us == pytest.approx(1.0e6)

    def test_record_sim_rejects_negative_interval(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            SpanTracer().record_sim("bad", 2.0, 1.0)


class TestChromeExport:
    def _trace(self):
        tracer = SpanTracer()
        with tracer.span("run", cat="engine"):
            pass
        tracer.record_sim("tile[0].get", 0.0, 1.0, track="dma-get")
        tracer.record_sim("tile[0].compute", 1.0, 2.0, track="compute")
        tracer.record_sim("tile[1].get", 1.0, 2.0, track="dma-get")
        return tracer, tracer.to_chrome_trace()

    def test_object_format(self):
        _, data = self._trace()
        assert set(data) == {"traceEvents", "displayTimeUnit"}
        assert data["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in data["traceEvents"]}
        assert phases == {"M", "X"}

    def test_process_metadata_names_both_timebases(self):
        _, data = self._trace()
        names = {
            (e["pid"], e["args"]["name"])
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert (PID_WALL, "host (wall clock)") in names
        assert (PID_SIM, "simulated timeline") in names

    def test_sim_tracks_get_stable_integer_tids(self):
        _, data = self._trace()
        thread_names = {
            e["args"]["name"]: e["tid"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == PID_SIM
        }
        assert thread_names == {"dma-get": 1, "compute": 2}  # first-seen order
        sim_events = [
            e for e in data["traceEvents"] if e["ph"] == "X" and e["pid"] == PID_SIM
        ]
        assert [e["tid"] for e in sim_events] == [1, 2, 1]
        assert all(isinstance(e["tid"], int) for e in sim_events)

    def test_validates_and_round_trips(self, tmp_path):
        tracer, data = self._trace()
        assert validate(data) == []
        path = tracer.write(str(tmp_path / "trace.json"))
        with open(path) as fh:
            written = json.load(fh)
        assert validate(written) == []
        assert written == data

    def test_validator_flags_garbage(self):
        assert validate({"nope": 1})
        bad_event = {"traceEvents": [{"ph": "X", "name": "x"}]}
        assert validate(bad_event)


class TestNullTracer:
    def test_span_is_reusable_noop(self):
        with NULL_TRACER.span("anything", cat="x", arg=1):
            pass
        NULL_TRACER.record_sim("x", 0.0, 1.0)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.to_chrome_trace()["traceEvents"] == []

    def test_write_refuses(self, tmp_path):
        with pytest.raises(RuntimeError, match="disabled"):
            NULL_TRACER.write(str(tmp_path / "never.json"))
