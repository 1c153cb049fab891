"""Trace/profile schema edge cases: the corners viewers choke on."""

import json

import pytest

from repro.__main__ import main
from repro.common.schema import ORACLE_SCHEMA, PROFILE_SCHEMA, validate
from repro.telemetry import SpanTracer


def _event(**overrides):
    base = {"name": "conv", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 1}
    base.update(overrides)
    return base


def _metadata(pid, tid, label, name="thread_name"):
    return {"name": name, "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": label}}


class TestCompleteEventEdges:
    def test_empty_trace_is_valid(self):
        assert validate({"traceEvents": []}) == []

    def test_zero_duration_is_valid(self):
        # Instantaneous spans happen (a cache-hit lookup rounds to 0us).
        trace = {"traceEvents": [_event(dur=0.0), _event(ts=0.0)]}
        assert validate(trace) == []

    def test_negative_duration_flagged(self):
        errors = validate({"traceEvents": [_event(dur=-2.0)]})
        assert any("traceEvents[0].dur: must be >= 0" in e for e in errors)

    def test_negative_timestamp_flagged(self):
        errors = validate({"traceEvents": [_event(ts=-1.0)]})
        assert any("traceEvents[0].ts: must be >= 0" in e for e in errors)

    def test_boolean_duration_is_not_a_number(self):
        errors = validate({"traceEvents": [_event(dur=True)]})
        assert any("traceEvents[0].dur: expected number" in e for e in errors)

    def test_non_integer_pid_flagged(self):
        errors = validate({"traceEvents": [_event(pid="host")]})
        assert any("traceEvents[0].pid: expected int" in e for e in errors)

    def test_non_object_event_flagged(self):
        errors = validate({"traceEvents": ["not-an-event"]})
        assert any("traceEvents[0]: expected object" in e for e in errors)


class TestDuplicateMetadata:
    def test_identical_redeclaration_is_valid(self):
        # Merging two traces repeats the shared track declarations.
        trace = {"traceEvents": [_metadata(1, 0, "host"), _metadata(1, 0, "host")]}
        assert validate(trace) == []

    def test_conflicting_labels_flagged(self):
        trace = {
            "traceEvents": [_metadata(1, 0, "host"), _metadata(1, 0, "worker")]
        }
        errors = validate(trace)
        assert len(errors) == 1
        assert "conflicts" in errors[0]
        assert "'host'" in errors[0] and "'worker'" in errors[0]

    def test_same_label_different_track_is_valid(self):
        trace = {
            "traceEvents": [_metadata(1, 0, "host"), _metadata(1, 1, "host")]
        }
        assert validate(trace) == []


class TestMergedTraceRoundTrip:
    def test_merged_serve_plus_cluster_trace_validates(self, tmp_path, capsys):
        # A serve-side wall trace and a cluster-side sim trace, merged the
        # way an offline viewer session does: concatenate traceEvents.
        # The shared process/thread metadata is redeclared identically —
        # the checker must accept that, and the CLI must exit 0.
        serve = SpanTracer()
        serve.record_wall("request", 0.0, 120.0, track="serve", request=1)
        serve.record_wall("execute", 40.0, 110.0, track="serve", batch=0)
        cluster = SpanTracer()
        cluster.record_sim("allreduce", 0.0, 0.002, track="bucket0", step=0)
        cluster.record_sim("compute", 0.0, 0.004, track="node0", step=0)
        merged = serve.to_chrome_trace()
        merged["traceEvents"] = (
            merged["traceEvents"] + cluster.to_chrome_trace()["traceEvents"]
        )
        assert validate(merged) == []
        path = tmp_path / "merged.json"
        path.write_text(json.dumps(merged))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace_event JSON" in out

    def test_conflicting_merge_fails_through_cli(self, tmp_path, capsys):
        trace = {
            "traceEvents": [_metadata(1, 0, "host"), _metadata(1, 0, "serve")]
        }
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(trace))
        assert main(["validate", str(path)]) == 1
        assert "conflicts" in capsys.readouterr().out


def _profile_doc():
    return {
        "schema": PROFILE_SCHEMA,
        "params": "Ni=32 No=32 16x16 K=3 B=16",
        "chip_gflops": 12.5,
        "counters": {"conv.forward.calls": 1, "dma.bytes": 4096.0},
        "drift": {
            "threshold": 0.25,
            "flagged": 1,
            "rows": [{"flagged": True}, {"flagged": False}],
        },
        "oracle": {
            "threshold": 0.5,
            "flagged": 1,
            "rows": [
                _oracle_row("direct", measured=4000, attainment=0.5),
                _oracle_row("im2col", measured=8000, attainment=0.25),
            ],
        },
    }


def _oracle_row(algorithm, measured, attainment, bound=2000):
    return {
        "params": [32, 32, 16, 3, 16],
        "algorithm": algorithm,
        "plan": algorithm,
        "measured_bytes": measured,
        "bound_bytes": bound,
        "attainment": attainment,
        "gflops": 100.0,
        "flagged": attainment < 0.5,
    }


class TestProfileDocument:
    def test_valid_document_passes(self):
        assert validate(_profile_doc()) == []

    def test_schema_tag_checked(self):
        doc = _profile_doc()
        doc["schema"] = "repro.profile/v0"
        assert any(e.startswith("schema:") for e in validate(doc))

    def test_flagged_count_cross_checked(self):
        doc = _profile_doc()
        doc["drift"]["flagged"] = 2
        errors = validate(doc)
        assert any("drift.flagged" in e and "1 row(s)" in e for e in errors)

    def test_oracle_section_held_to_oracle_invariants(self):
        """The section gets the same violations as a standalone oracle
        document: here a wrong attainment and no direct baseline row."""
        section = {
            "threshold": 0.5,
            "flagged": 0,
            "rows": [_oracle_row("im2col", measured=4000, attainment=0.9)],
        }
        alone = validate({"schema": ORACLE_SCHEMA, **section})
        assert len(alone) == 2
        doc = _profile_doc()
        doc["oracle"] = section
        assert validate(doc) == [f"oracle.{error}" for error in alone]

    def test_counter_values_must_be_numbers(self):
        doc = _profile_doc()
        doc["counters"]["dma.bytes"] = "lots"
        assert any("dma.bytes" in e for e in validate(doc))

    def test_boolean_chip_gflops_rejected(self):
        doc = _profile_doc()
        doc["chip_gflops"] = True
        assert any("chip_gflops" in e for e in validate(doc))

    def test_cli_profile_mode(self, tmp_path, capsys):
        good = tmp_path / "profile.json"
        good.write_text(json.dumps(_profile_doc()))
        assert main(["validate", str(good)]) == 0
        assert PROFILE_SCHEMA in capsys.readouterr().out
        bad_doc = _profile_doc()
        del bad_doc["oracle"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bad_doc))
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "oracle: required key is missing" in out

    def test_cli_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err
