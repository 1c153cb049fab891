"""Metrics registry: histograms, gauges, series, exposition, snapshots."""

import json
import math
import random

import pytest

from repro.common.schema import validate
from repro.telemetry import (
    NULL_METRICS,
    Gauge,
    LogHistogram,
    Metrics,
    NullMetrics,
    metrics_snapshot,
    parse_openmetrics,
    to_openmetrics,
)
from repro.telemetry.counters import Counters
from repro.telemetry.metrics import (
    BUCKET_GROWTH,
    TimeSeries,
    bucket_bounds,
    bucket_index,
    exposition_matches_snapshot,
    metric_name,
    render_strip,
)


class TestBuckets:
    def test_bucket_covers_its_bounds(self):
        for i in (-20, -1, 0, 1, 7, 40):
            lo, hi = bucket_bounds(i)
            assert bucket_index(lo) == i
            # Just below the upper bound still lands in bucket i (staying
            # clear of the boundary guard epsilon).
            assert bucket_index(hi * (1 - 1e-6)) == i

    def test_resolution_is_one_growth_step(self):
        lo, hi = bucket_bounds(12)
        assert hi / lo == pytest.approx(BUCKET_GROWTH)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bucket_index(0.0)
        with pytest.raises(ValueError):
            bucket_index(-3.0)


class TestLogHistogram:
    def test_quantiles_within_one_bucket_of_exact(self):
        rng = random.Random(7)
        samples = [rng.lognormvariate(1.0, 0.8) for _ in range(5000)]
        h = LogHistogram()
        for s in samples:
            h.observe(s)
        ordered = sorted(samples)
        for q in (0.5, 0.9, 0.99):
            exact = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
            got = h.quantile(q)
            # One geometric bucket (~9%) of slack either way.
            assert exact / BUCKET_GROWTH <= got <= exact * BUCKET_GROWTH

    def test_order_independent(self):
        values = [0.3, 11.0, 2.5, 2.5, 97.0, 0.3, 5.0]
        a, b = LogHistogram(), LogHistogram()
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.as_dict() == b.as_dict()

    def test_quantiles_monotone_and_clamped(self):
        h = LogHistogram()
        for v in (1.0, 2.0, 4.0, 8.0):
            h.observe(v)
        assert h.p50 <= h.p90 <= h.p99 <= h.max
        assert h.quantile(0.0) >= 0.0
        assert h.quantile(1.0) == h.max

    def test_zero_and_negative_land_in_zero_bucket(self):
        h = LogHistogram()
        h.observe(0.0)
        h.observe(-1.5)
        h.observe(10.0)
        assert h.count == 3
        assert h.zero_count == 2
        assert h.quantile(0.5) <= 0.0  # median is a non-positive sample
        assert h.as_dict()["buckets"]  # the positive one is bucketed

    def test_empty_histogram_reads_zero(self):
        h = LogHistogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.p99 == 0.0

    def test_mean_and_sum(self):
        h = LogHistogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.total == pytest.approx(6.0)
        assert h.mean == pytest.approx(2.0)

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            LogHistogram().quantile(1.5)


class TestGauge:
    def test_tracks_last_min_max_updates(self):
        g = Gauge()
        for v in (4.0, -1.0, 9.0):
            g.set(v)
        assert g.value == 9.0
        assert g.min == -1.0
        assert g.max == 9.0
        assert g.updates == 3

    def test_unset_gauge_reads_zero(self):
        assert Gauge().as_dict() == {
            "value": 0.0, "min": 0.0, "max": 0.0, "updates": 0,
        }


class TestTimeSeries:
    def test_ring_bound_drops_oldest(self):
        s = TimeSeries(capacity=4)
        for t in range(10):
            s.record(t, t * 10.0)
        assert len(s) == 4
        assert s.recorded == 10
        assert s.dropped == 6
        assert s.points() == [(6.0, 60.0), (7.0, 70.0), (8.0, 80.0), (9.0, 90.0)]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            TimeSeries(capacity=0)

    def test_strip_chart_renders(self):
        points = [[t / 10.0, float(t % 5)] for t in range(30)]
        art = render_strip(points, width=20)
        assert "#" in art
        assert "t in [" in art
        assert render_strip([]) == "  (empty)"


class TestMetricsRegistry:
    def test_writes_create_and_accumulate(self):
        m = Metrics()
        m.observe("a.hist", 3.0)
        m.observe("a.hist", 5.0)
        m.set_gauge("a.gauge", 7.0)
        m.sample("a.series", 0.0, 1.0)
        m.sample("a.series", 1.0, 2.0)
        assert m.histogram("a.hist").count == 2
        assert m.gauge("a.gauge").value == 7.0
        assert len(m.series("a.series")) == 2
        assert len(m) == 3
        assert m.histogram_names() == ["a.hist"]

    def test_series_capacity_flows_from_registry(self):
        m = Metrics(series_capacity=3)
        for t in range(8):
            m.sample("s", t, t)
        assert m.series("s").dropped == 5

    def test_reset_clears_everything(self):
        m = Metrics()
        m.observe("h", 1.0)
        m.reset()
        assert len(m) == 0

    def test_dashboard_names_every_metric(self):
        m = Metrics()
        m.observe("serve.latency_ms", 4.2)
        m.set_gauge("serve.queue_depth", 3)
        m.sample("serve.queue_depth", 0.1, 3)
        text = m.render_dashboard()
        assert "serve.latency_ms" in text
        assert "serve.queue_depth" in text
        assert "p99" in text
        assert Metrics().render_dashboard() == "metrics: (none recorded)"


class TestNullMetrics:
    def test_null_is_inert(self):
        n = NullMetrics()
        n.observe("x", 1.0)
        n.set_gauge("x", 1.0)
        n.sample("x", 0.0, 1.0)
        assert not n.enabled
        assert not n
        assert len(n) == 0
        assert n.histogram("x") is None
        assert n.as_dict() == {"histograms": {}, "gauges": {}, "series": {}}
        assert n.render_dashboard() == "metrics: disabled"

    def test_shared_singleton(self):
        assert isinstance(NULL_METRICS, NullMetrics)
        assert Metrics.enabled and not NullMetrics.enabled


def _populated():
    m = Metrics()
    rng = random.Random(3)
    for _ in range(200):
        m.observe("serve.latency_ms", rng.lognormvariate(1.0, 0.5))
    m.observe("serve.batch_size", 8)
    m.set_gauge("serve.queue_depth", 5)
    for t in range(20):
        m.sample("serve.queue_depth", t * 0.01, t % 7)
    c = Counters()
    c.add("serve.requests.completed", 200)
    c.record_max("serve.queue_depth", 9)  # collides with the gauge family
    return m, c


class TestOpenMetrics:
    def test_metric_name_sanitizes(self):
        assert metric_name("serve.latency_ms") == "repro_serve_latency_ms"
        assert metric_name("9lives") == "repro__9lives"
        assert metric_name("a-b c") == "repro_a_b_c"

    def test_round_trip_with_counter_collision(self):
        m, c = _populated()
        text = to_openmetrics(m, c)
        families = parse_openmetrics(text)
        # The record_max counter shares the gauge's dotted name: the
        # counter family must carry the _counter suffix, the gauge not.
        assert families["repro_serve_queue_depth"]["type"] == "gauge"
        assert families["repro_serve_queue_depth_counter"]["type"] == "counter"
        assert (
            families["repro_serve_queue_depth_counter"]["samples"][
                "repro_serve_queue_depth_counter_total"
            ]
            == 9
        )
        summary = families["repro_serve_latency_ms"]
        assert summary["type"] == "summary"
        assert summary["samples"]["repro_serve_latency_ms_count"] == 200

    def test_exposition_terminates_with_eof(self):
        m, c = _populated()
        text = to_openmetrics(m, c)
        assert text.endswith("# EOF\n")
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics(text.replace("# EOF\n", ""))
        with pytest.raises(ValueError, match="after # EOF"):
            parse_openmetrics(text + "repro_stray 1\n")

    def test_sample_without_type_rejected(self):
        with pytest.raises(ValueError, match="no TYPE"):
            parse_openmetrics("repro_orphan 3\n# EOF\n")

    def test_malformed_type_line_rejected(self):
        with pytest.raises(ValueError, match="unknown type"):
            parse_openmetrics("# TYPE repro_x histogram\n# EOF\n")


class TestSnapshot:
    def test_snapshot_validates_and_matches_exposition(self):
        m, c = _populated()
        snap = metrics_snapshot(m, c)
        assert validate(snap) == []
        # JSON round-trip must survive the validator too (tuples -> lists).
        snap = json.loads(json.dumps(snap))
        assert validate(snap) == []
        assert exposition_matches_snapshot(to_openmetrics(m, c), snap) == []

    def test_schema_tag_required(self):
        m, _ = _populated()
        snap = metrics_snapshot(m)
        snap["schema"] = "bogus"
        assert any("schema" in e for e in validate(snap))

    def test_bucket_sum_mismatch_flagged(self):
        m, _ = _populated()
        snap = json.loads(json.dumps(metrics_snapshot(m)))
        hist = snap["histograms"]["serve.latency_ms"]
        first = next(iter(hist["buckets"]))
        hist["buckets"][first] += 1
        assert any("bucket" in e for e in validate(snap))

    def test_time_travel_flagged(self):
        m, _ = _populated()
        snap = json.loads(json.dumps(metrics_snapshot(m)))
        points = snap["series"]["serve.queue_depth"]["points"]
        points[1][0] = points[0][0] - 1.0
        assert any("back in time" in e for e in validate(snap))

    def test_exposition_mismatch_named(self):
        m, c = _populated()
        text = to_openmetrics(m, c)
        snap = metrics_snapshot(m, c)
        snap["gauges"]["serve.queue_depth"]["value"] += 1.0
        errors = exposition_matches_snapshot(text, snap)
        assert any("serve.queue_depth" in e for e in errors)

    def test_extra_exposition_family_flagged(self):
        m, c = _populated()
        text = to_openmetrics(m, c).replace(
            "# EOF", "# TYPE repro_phantom gauge\nrepro_phantom 1\n# EOF"
        )
        errors = exposition_matches_snapshot(text, metrics_snapshot(m, c))
        assert any("repro_phantom" in e for e in errors)
