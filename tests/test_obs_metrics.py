"""Unit tests for repro.obs.metrics and repro.obs.instrument."""

import json

import pytest

from repro.datasources.base import Query, SourceEntry, SourceMatch
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    InstrumentedSource,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    instrument_source,
)
from repro.taxonomy import LabelSet


class TestCounter:
    def test_starts_at_zero(self):
        counter = Counter("events_total")
        assert counter.value() == 0.0
        assert counter.total() == 0.0

    def test_inc_accumulates(self):
        counter = Counter("events_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_are_independent(self):
        counter = Counter("lookups_total", labelnames=("source", "outcome"))
        counter.inc(source="dnb", outcome="match")
        counter.inc(3, source="dnb", outcome="miss")
        assert counter.value(source="dnb", outcome="match") == 1
        assert counter.value(source="dnb", outcome="miss") == 3
        assert counter.total() == 4

    def test_zero_inc_registers_series(self):
        counter = Counter("lookups_total", labelnames=("outcome",))
        counter.inc(0, outcome="miss")
        assert ("miss",) in counter.series()

    def test_negative_inc_rejected(self):
        counter = Counter("events_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_wrong_labels_rejected(self):
        counter = Counter("lookups_total", labelnames=("source",))
        with pytest.raises(ValueError):
            counter.inc(1, outcome="match")
        with pytest.raises(ValueError):
            counter.inc(1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("queue_depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12

    def test_labeled(self):
        gauge = Gauge("rate", labelnames=("kind",))
        gauge.set(0.5, kind="hit")
        assert gauge.value(kind="hit") == 0.5
        assert gauge.value(kind="miss") == 0.0


class TestHistogram:
    def test_observe_updates_count_sum_mean(self):
        histogram = Histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(5.55)
        assert histogram.mean() == pytest.approx(1.85)

    def test_bucket_counts_are_cumulative(self):
        histogram = Histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        series = histogram.series()[()]
        assert series.bucket_counts == [1, 2, 3]
        assert series.count == 4

    def test_quantile_estimates_from_buckets(self):
        histogram = Histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
        for _ in range(99):
            histogram.observe(0.05)
        histogram.observe(5.0)
        assert histogram.quantile(0.5) == 0.1
        assert histogram.quantile(1.0) == 10.0

    def test_empty_quantile_and_mean(self):
        histogram = Histogram("latency_seconds")
        assert histogram.quantile(0.95) == 0.0
        assert histogram.mean() == 0.0

    def test_time_context_manager_observes(self):
        histogram = Histogram("latency_seconds")
        with histogram.time():
            pass
        assert histogram.count() == 1
        assert histogram.sum() >= 0.0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("latency_seconds", buckets=(1.0, 0.1))

    def test_default_buckets_are_log_scale_latency(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 1e-5
        assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("events_total")
        second = registry.counter("events_total")
        assert first is second

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("events_total")
        with pytest.raises(ValueError):
            registry.gauge("events_total")

    def test_labelnames_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("events_total", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("events_total", labelnames=("b",))

    def test_iteration_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zzz")
        registry.gauge("aaa")
        assert [metric.name for metric in registry] == ["aaa", "zzz"]

    def test_get(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        assert registry.get("events_total") is counter
        assert registry.get("missing") is None


class TestPrometheusExposition:
    def test_counter_lines(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "lookups_total", "Lookups.", ("source", "outcome")
        )
        counter.inc(2, source="dnb", outcome="match")
        text = registry.to_prometheus()
        assert "# HELP lookups_total Lookups." in text
        assert "# TYPE lookups_total counter" in text
        assert 'lookups_total{source="dnb",outcome="match"} 2' in text

    def test_histogram_lines(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        text = registry.to_prometheus()
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 2' in text
        assert "latency_seconds_count 2" in text
        assert "latency_seconds_sum 0.55" in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", labelnames=("path",))
        counter.inc(1, path='a"b\\c')
        assert 'path="a\\"b\\\\c"' in registry.to_prometheus()

    def test_empty_registry_is_empty_text(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestJsonSnapshot:
    def test_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("events_total", labelnames=("kind",)).inc(
            1, kind="x"
        )
        registry.gauge("rate").set(0.5)
        registry.histogram("latency_seconds", buckets=(1.0,)).observe(0.5)
        document = json.loads(registry.to_json())
        assert document["counters"]["events_total"]["series"] == [
            {"labels": ["x"], "value": 1.0}
        ]
        assert document["gauges"]["rate"]["series"][0]["value"] == 0.5
        histogram = document["histograms"]["latency_seconds"]
        assert histogram["buckets"] == [1.0]
        assert histogram["series"][0]["count"] == 1


class TestNullRegistry:
    def test_instruments_record_nothing(self):
        counter = NULL_REGISTRY.counter("events_total")
        counter.inc(5)
        assert counter.total() == 0.0
        gauge = NULL_REGISTRY.gauge("rate")
        gauge.set(1.0)
        assert gauge.value() == 0.0
        histogram = NULL_REGISTRY.histogram("latency_seconds")
        with histogram.time():
            histogram.observe(1.0)
        assert histogram.count() == 0

    def test_snapshot_is_empty(self):
        assert NullRegistry().to_prometheus() == ""


class _FakeSource:
    name = "fake"

    def __init__(self):
        self.queries = []

    def lookup(self, query):
        self.queries.append(query)
        if query.asn == 1:
            entry = SourceEntry(
                entity_id="e", org_id="o", name="Org", domain="org.net",
                native_categories=(), labels=LabelSet(),
            )
            return SourceMatch(source=self.name, entry=entry)
        return None

    def lookup_by_org(self, org_id):
        return "by-org"

    def coverage_count(self):
        return 7


class TestInstrumentedSource:
    def test_counts_match_and_miss(self):
        registry = MetricsRegistry()
        source = InstrumentedSource(_FakeSource(), registry)
        assert source.lookup(Query(asn=1)) is not None
        assert source.lookup(Query(asn=2)) is None
        counter = registry.get("asdb_source_lookups_total")
        assert counter.value(source="fake", outcome="match") == 1
        assert counter.value(source="fake", outcome="miss") == 1

    def test_preregisters_both_outcomes(self):
        registry = MetricsRegistry()
        InstrumentedSource(_FakeSource(), registry)
        counter = registry.get("asdb_source_lookups_total")
        assert counter.value(source="fake", outcome="match") == 0
        assert ("fake", "match") in counter.series()
        assert ("fake", "miss") in counter.series()

    def test_observes_latency(self):
        registry = MetricsRegistry()
        source = InstrumentedSource(_FakeSource(), registry)
        source.lookup(Query(asn=1))
        histogram = registry.get("asdb_source_lookup_seconds")
        assert histogram.count(source="fake") == 1

    def test_delegates_rest_of_contract(self):
        inner = _FakeSource()
        source = InstrumentedSource(inner, MetricsRegistry())
        assert source.name == "fake"
        assert source.inner is inner
        assert source.lookup_by_org("o") == "by-org"
        assert source.coverage_count() == 7

    def test_instrument_source_null_passthrough(self):
        inner = _FakeSource()
        assert instrument_source(inner, None) is inner
        assert instrument_source(inner, NULL_REGISTRY) is inner

    def test_instrument_source_idempotent(self):
        registry = MetricsRegistry()
        wrapped = instrument_source(_FakeSource(), registry)
        assert instrument_source(wrapped, registry) is wrapped


class TestTimedHelper:
    """``Histogram.time()``, the one block timer."""

    def test_observes_even_on_exception(self):
        histogram = Histogram("latency_seconds")
        with pytest.raises(RuntimeError):
            with histogram.time():
                raise RuntimeError("boom")
        assert histogram.count() == 1

    def test_labels_forwarded(self):
        histogram = Histogram("latency_seconds", labelnames=("op",))
        with histogram.time(op="scrape"):
            pass
        assert histogram.count(op="scrape") == 1
