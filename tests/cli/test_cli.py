"""The ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.common import schema

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


class TestInfo:
    def test_prints_architecture(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "742.4 Gflops" in out
        assert "64 KiB" in out
        assert "8x8" in out


class TestPlan:
    def test_plans_and_times(self, capsys):
        assert main(["plan", "--ni", "64", "--no", "64", "--out", "16",
                     "--batch", "32"]) == 0
        out = capsys.readouterr().out
        assert "chosen:" in out
        assert "timed (4 CG):" in out

    def test_defaults(self, capsys):
        assert main(["plan"]) == 0
        assert "Ni=256" in capsys.readouterr().out


class TestKernel:
    def test_dumps_reordered_kernel(self, capsys):
        assert main(["kernel", "--ni", "16"]) == 0
        out = capsys.readouterr().out
        assert "vfmad" in out
        assert "EE=" in out

    def test_original_flag(self, capsys):
        assert main(["kernel", "--ni", "16", "--original"]) == 0
        out = capsys.readouterr().out
        assert "52 cycles" in out  # 2 iterations x 26

    def test_timeline_flag(self, capsys):
        assert main(["kernel", "--ni", "8", "--timeline"]) == 0
        assert "cycle | P0" in capsys.readouterr().out


class TestExperiments:
    def test_subset(self, capsys):
        assert main(["experiments", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "Table II" not in out


class TestZoo:
    def test_times_network(self, capsys):
        assert main(["zoo", "cifar_quick", "--batch", "32"]) == 0
        out = capsys.readouterr().out
        assert "conv1" in out
        assert "images/s" in out

    def test_unknown_network(self, capsys):
        assert main(["zoo", "resnet"]) == 1
        assert "unknown network" in capsys.readouterr().out


class TestTrace:
    def test_renders_gantt(self, capsys):
        assert main(["trace", "--ni", "64", "--no", "64", "--out", "8",
                     "--batch", "32", "--tiles", "4"]) == 0
        out = capsys.readouterr().out
        assert "tile" in out
        assert "overlap" in out

    def test_zero_tiles_renders_none(self, capsys):
        assert main(["trace", "--ni", "64", "--no", "64", "--out", "8",
                     "--batch", "32", "--tiles", "0"]) == 0
        assert "(no tiles)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["trace", "profile"])
    def test_negative_tiles_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--tiles", "-1"])
        assert exit_info.value.code == 2
        assert "--tiles: must be >= 0, got -1" in capsys.readouterr().err


class TestProfile:
    ARGS = ["profile", "--ni", "32", "--no", "32", "--out", "16",
            "--batch", "16", "--tiles", "4"]

    def test_prints_drift_and_counters(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "model-vs-measured drift" in out
        assert "counters:" in out
        assert "engine.flops" in out
        assert "4 tile interval(s) traced" in out

    def test_trace_out_is_valid_chrome_json(self, capsys, tmp_path):
        trace = str(tmp_path / "profile.json")
        assert main(self.ARGS + ["--trace-out", trace]) == 0
        assert "valid chrome://tracing JSON" in capsys.readouterr().out
        assert main(["validate", trace]) == 0

    def test_table3_row_selects_paper_config(self, capsys):
        assert main(["profile", "--row", "1", "--tiles", "2"]) == 0
        assert "Ni=128" in capsys.readouterr().out

    def test_bad_row_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "--row", "99"])

    def test_guarded_probe_counts_faults_and_fallbacks(self, capsys):
        assert main(self.ARGS + ["--guarded", "--fenced", "2",
                                 "--dma-derate", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "guarded probe: ran on" in out
        assert "faults." in out


def _committed(name):
    return lambda tmp_path: str(BENCH_DIR / name)


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def _trace(tmp_path):
    from repro.telemetry import SpanTracer

    tracer = SpanTracer()
    tracer.record_sim("tile[0].get", 0.0, 1.0, track="dma-get")
    return tracer.write(str(tmp_path / "trace.json"))


def _profile(tmp_path):
    path = str(tmp_path / "profile.json")
    assert main(TestProfile.ARGS + ["--json-out", path]) == 0
    return path


def _metrics(tmp_path):
    from repro.telemetry import Metrics, metrics_snapshot
    from repro.telemetry.counters import Counters

    metrics, counters = Metrics(), Counters()
    metrics.observe("serve.latency_ms", 1.5)
    metrics.sample("serve.queue_depth", 0.0, 2)
    counters.add("serve.requests.completed", 1)
    return _write(tmp_path, "metrics.json", metrics_snapshot(metrics, counters))


def _flight(tmp_path):
    from repro.telemetry import FlightRecorder

    flight = FlightRecorder()
    flight.record("request.submit", request=1, priority=0)
    return flight.dump(str(tmp_path / "flight.json"))


def _chaos_fleet(tmp_path):
    path = str(tmp_path / "chaos_fleet.json")
    assert main(["serve", "--chips", "3", "--chaos", "--requests", "24",
                 "--smoke", "--json-out", path]) == 0
    return path


def _chaos_serve(tmp_path):
    """A chaos-serve report: the committed bench record under the report's
    own tag, which holds no breaker bar (a smoke need not trip it)."""
    record = _committed_record("BENCH_chaos_serve.json")
    record["schema"] = schema.CHAOS_SERVE_SCHEMA
    return _write(tmp_path, "chaos.json", record)


def _oracle(tmp_path):
    from repro.core.params import ConvParams
    from repro.telemetry import oracle_report

    small = ConvParams.from_output(ni=32, no=32, ro=16, co=16, kr=3, kc=3, b=16)
    return _write(tmp_path, "oracle.json", oracle_report([small]).as_dict())


#: One document of every kind: the committed records plus small fresh ones.
DOCUMENTS = {
    schema.ALGOS_SCHEMA: _committed("BENCH_algos.json"),
    schema.AUTOTUNE_SCHEMA: _committed("BENCH_autotune.json"),
    schema.FLEET_SCHEMA: _committed("BENCH_fleet.json"),
    schema.CHAOS_SERVE_SCHEMA: _chaos_serve,
    schema.CHAOS_SERVE_BENCH_SCHEMA: _committed("BENCH_chaos_serve.json"),
    schema.CHAOS_FLEET_SCHEMA: _chaos_fleet,
    schema.DATAPARALLEL_SCHEMA: _committed("BENCH_dataparallel.json"),
    schema.FASTPATH_SCHEMA: _committed("BENCH_fastpath.json"),
    schema.PROFILE_SCHEMA: _profile,
    schema.METRICS_SCHEMA: _metrics,
    schema.FLIGHT_SCHEMA: _flight,
    schema.ORACLE_SCHEMA: _oracle,
    schema.SERVE_SCHEMA: _committed("BENCH_serve.json"),
    schema.TELEMETRY_SCHEMA: _committed("BENCH_telemetry.json"),
    "Chrome trace_event JSON": _trace,
}


class TestValidate:
    def test_every_tag_has_a_document(self):
        assert set(schema.KINDS) < set(DOCUMENTS)

    @pytest.mark.parametrize("kind", sorted(DOCUMENTS))
    def test_document_of_every_kind_passes(self, kind, tmp_path, capsys):
        path = DOCUMENTS[kind](tmp_path)
        capsys.readouterr()
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == f"{path}: valid {kind}\n"

    @pytest.mark.parametrize(
        "path", sorted(BENCH_DIR.glob("BENCH_*.json")), ids=lambda path: path.name
    )
    def test_every_committed_record_passes(self, path):
        assert schema.validate(json.loads(path.read_text())) == []

    @pytest.mark.parametrize("document", [{"rows": []}, {"schema": "repro.x/v9"}])
    def test_unknown_or_missing_tag(self, document, tmp_path, capsys):
        path = _write(tmp_path, "doc.json", document)
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "unknown tag" in out
        assert all(tag in out for tag in schema.KINDS)

    @pytest.mark.parametrize("content", [None, "{not json", "\xff\xfe"])
    def test_unreadable_file(self, content, tmp_path, capsys):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_bytes(content.encode("latin-1"))
        assert main(["validate", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{path}: cannot read")

    def test_several_files_exit_with_the_worst_status(self, tmp_path, capsys):
        good = str(BENCH_DIR / "BENCH_fleet.json")
        bad = _write(tmp_path, "bad.json", {"schema": schema.FLEET_SCHEMA})
        missing = str(tmp_path / "missing.json")
        assert main(["validate", good, good]) == 0
        assert main(["validate", good, bad, good]) == 1
        assert main(["validate", missing, good]) == 1
        out = capsys.readouterr().out
        assert f"{bad}: INVALID" in out and f"{missing}: cannot read" in out


def _committed_record(name):
    with open(BENCH_DIR / name) as fh:
        return json.load(fh)


class TestAutotuneRecord:
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("heuristic_vs_tuned", "tuned_gflops", 400.0),
            ("heuristic_vs_tuned", "measured", 10**6),
            ("fused_vs_unfused", "speedup", 1.29),
            ("batch_sharding", "scaling", 2.5),
            ("plan_cache", "warm_measured", 1),
            ("parity", "matches_reference", False),
        ],
    )
    def test_each_bar_gives_one_line(self, section, key, value):
        record = _committed_record("BENCH_autotune.json")
        record[section][key] = value
        violations = schema.validate(record)
        assert len(violations) == 1
        assert violations[0].startswith(f"{section}.{key}:")


class TestFastpathRecord:
    @pytest.mark.parametrize(
        "key, value", [("bit_identical", False), ("speedup", 4.9)]
    )
    def test_each_bar_gives_one_line(self, key, value):
        record = _committed_record("BENCH_fastpath.json")
        record["conv_forward"][key] = value
        violations = schema.validate(record)
        assert len(violations) == 1
        assert violations[0].startswith(f"conv_forward.{key}:")


def _one_violation(name, path, value):
    """The one violation of a committed record with ``path`` set to ``value``."""
    record = _committed_record(name)
    *parents, key = path
    section = record
    for step in parents:
        section = section[step]
    section[key] = value
    violations = schema.validate(record)
    assert len(violations) == 1, violations
    return violations[0]


class TestServeRecord:
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("throughput", "bit_identical_outputs"), False,
             "throughput.bit_identical_outputs"),
            (("throughput", "speedup"), 2.9, "throughput.speedup"),
            (("throughput", "batched", "completed"), 127,
             "throughput.batched.completed"),
            (("warm_cache", "warm_tuner_measurements"), 0,
             "warm_cache.warm_tuner_measurements"),
            (("warm_cache", "steady_state_tuner_measurements"), 7,
             "warm_cache.steady_state_tuner_measurements"),
            (("warm_cache", "steady_state_filter_packs"), 1,
             "warm_cache.steady_state_filter_packs"),
            (("warm_cache", "restart_tuner_measurements"), 1,
             "warm_cache.restart_tuner_measurements"),
            (("filter_pack", "packed_seconds"), 0.006,
             "filter_pack.packed_seconds"),
        ],
    )
    def test_each_bar_gives_one_line(self, path, value, field):
        violation = _one_violation("BENCH_serve.json", path, value)
        assert violation.startswith(f"{field}:")


class TestAlgosRecord:
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("rows", 1, "winner_gflops"), 500.0, "rows[1].winner_gflops"),
            (("rows", 0, "winner_algorithm"), "fft", "rows[0].winner_algorithm"),
            (("non_direct_winners",), 0, "non_direct_winners"),
            (("non_direct_winners",), 5, "non_direct_winners"),
            (("oracle", "flagged"), 1, "oracle.flagged"),
        ],
    )
    def test_each_bar_gives_one_line(self, path, value, field):
        violation = _one_violation("BENCH_algos.json", path, value)
        assert violation.startswith(f"{field}:")


class TestChaosServeRecord:
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("breaker_opened",), 0, "breaker_opened"),
            (("breaker_transitions",), ["open->half-open", "half-open->closed"],
             "breaker_transitions"),
        ],
    )
    def test_each_bar_gives_one_line(self, path, value, field):
        violation = _one_violation("BENCH_chaos_serve.json", path, value)
        assert violation.startswith(f"{field}:")

    def test_report_without_breaker_opens_is_valid(self):
        record = _committed_record("BENCH_chaos_serve.json")
        record.update(
            schema=schema.CHAOS_SERVE_SCHEMA, breaker_opened=0, breaker_transitions=[]
        )
        assert schema.validate(record) == []


class TestTelemetryRecord:
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("metrics_flight", "disabled_bytes_allocated"), 64,
             "metrics_flight.disabled_bytes_allocated"),
            (("schedule_walk", "enabled_overhead_pct"), 50.0,
             "schedule_walk.enabled_overhead_pct"),
            (("table3_drift", "flagged"), 3, "table3_drift.flagged"),
            (("table3_drift", "rows", 0, "flagged"), False,
             "table3_drift.flagged"),
        ],
    )
    def test_each_bar_gives_one_line(self, path, value, field):
        violation = _one_violation("BENCH_telemetry.json", path, value)
        assert violation.startswith(f"{field}:")


class TestSmokeGates:
    """Each smoke reports a broken document once: the schema's line only."""

    def test_train_smoke_reports_broken_parity_once(self, monkeypatch, capsys):
        import repro.scale.report

        record = _committed_record("BENCH_dataparallel.json")
        record["parity"]["bitwise_identical"] = False
        monkeypatch.setattr(
            repro.scale.report, "build_dataparallel_report",
            lambda **kwargs: record,
        )
        assert main(["train", "--smoke"]) == 1
        failures = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("train smoke FAIL")
        ]
        assert len(failures) == 1 and "parity.bitwise_identical" in failures[0]

    def test_chaos_smoke_reports_zero_availability_once(
        self, monkeypatch, capsys
    ):
        import repro.faults
        from repro.faults.chaos import ChaosServeReport

        record = _committed_record("BENCH_chaos_serve.json")
        fields = {k: record[k] for k in ChaosServeReport.__dataclass_fields__}
        report = ChaosServeReport(**{**fields, "availability": 0.0})
        monkeypatch.setattr(
            repro.faults, "run_chaos_serve", lambda **kwargs: report
        )
        assert main(["serve", "--chaos", "--smoke"]) == 1
        failures = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("chaos smoke FAIL")
        ]
        assert failures == ["chaos smoke FAIL: availability: 0.0 below 0.99"]

    def test_fleet_chaos_smoke_reports_no_failover_once(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.faults
        from repro.faults.chaos import ChaosFleetReport
        from repro.telemetry import FlightRecorder

        with open(_chaos_fleet(tmp_path)) as fh:
            record = json.load(fh)
        fields = {k: record[k] for k in ChaosFleetReport.__dataclass_fields__}
        report = ChaosFleetReport(**{**fields, "failovers": 0})
        report.flight = FlightRecorder()
        monkeypatch.setattr(
            repro.faults, "run_chaos_fleet", lambda **kwargs: report
        )
        flight = str(tmp_path / "flight.json")
        capsys.readouterr()
        assert main(["serve", "--chips", "3", "--chaos", "--smoke",
                     "--flight-out", flight]) == 1
        failures = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("fleet chaos smoke FAIL")
        ]
        assert failures == [
            "fleet chaos smoke FAIL: failovers: chip loss produced no "
            "failover routing"
        ]
        assert main(["validate", flight]) == 0


class TestCalibrate:
    def test_reports_constants(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "0.70" in out
        assert "0.50" in out


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--chips", "0"], "--chips: must be >= 1, got 0"),
            (["serve", "--chips", "-1"], "--chips: must be >= 1, got -1"),
            (["serve", "--requests", "0"], "--requests: must be >= 1, got 0"),
            (["metrics", "--requests", "0"], "--requests: must be >= 1, got 0"),
            (["serve", "--chips", "1", "--chaos"], "at least 2 chips, got 1"),
        ],
    )
    def test_bad_serve_counts_exit_with_usage(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and message in err
