"""Tests for repro.obs.trace, narration, and pipeline integration."""

import time

import pytest

from repro import SystemConfig, build_asdb
from repro.core import Stage
from repro.obs import (
    ClassificationTrace,
    MetricsRegistry,
    NullTraceBuilder,
    Span,
    TraceBuilder,
    narrate_trace,
    trace_builder,
)
from repro.obs.narrate import format_seconds

PIPELINE_SPANS = (
    "cache", "asn_match", "domain_choice", "ml", "source_match", "consensus"
)


class TestTraceBuilder:
    def test_records_spans_in_order(self):
        builder = TraceBuilder(asn=64512)
        with builder.span("cache") as span:
            span.set_status("miss")
        with builder.span("ml") as span:
            span.set_status("disabled").note(domain="a.net", score=0.25)
        trace = builder.finish()
        assert isinstance(trace, ClassificationTrace)
        assert trace.asn == 64512
        assert [span.name for span in trace.spans] == ["cache", "ml"]
        assert trace.spans[0].status == "miss"
        assert trace.spans[1].attributes == {"domain": "a.net", "score": 0.25}

    def test_durations_and_offsets_are_monotone(self):
        builder = TraceBuilder(asn=1)
        with builder.span("a"):
            time.sleep(0.001)
        with builder.span("b"):
            pass
        trace = builder.finish()
        first, second = trace.spans
        assert first.duration >= 0.001
        assert second.start_offset > first.start_offset
        assert trace.total_seconds >= first.duration + second.duration

    def test_span_lookup_and_stage_seconds(self):
        builder = TraceBuilder(asn=1)
        with builder.span("a"):
            pass
        with builder.span("a"):
            pass
        trace = builder.finish()
        assert trace.span("a") is trace.spans[0]
        assert trace.span("missing") is None
        seconds = trace.stage_seconds()
        assert seconds["a"] == pytest.approx(
            trace.spans[0].duration + trace.spans[1].duration
        )

    def test_to_dict_is_json_able(self):
        builder = TraceBuilder(asn=7)
        with builder.span("cache") as span:
            span.set_status("hit").note(key="name:acme")
        document = builder.finish().to_dict()
        assert document["asn"] == 7
        assert document["spans"][0]["name"] == "cache"
        assert document["spans"][0]["attributes"] == {"key": "name:acme"}


class TestTraceBuilderFactory:
    def test_enabled_returns_real_builder(self):
        assert isinstance(trace_builder(1, enabled=True), TraceBuilder)

    def test_disabled_returns_null_builder(self):
        builder = trace_builder(1, enabled=False)
        assert isinstance(builder, NullTraceBuilder)
        with builder.span("cache") as span:
            span.set_status("hit").note(key="x")
        assert builder.finish() is None


class TestNarration:
    def test_header_and_span_lines(self):
        trace = ClassificationTrace(
            asn=64512,
            spans=(
                Span("cache", 0.0, 0.00001, "miss", {"key": "name:acme"}),
                Span("ml", 0.0001, 0.002, "isp", {"isp_score": 0.91}),
            ),
            total_seconds=0.0021,
        )
        text = narrate_trace(trace)
        assert text.startswith("AS64512 classified in 2.10 ms (2 stages)")
        assert "cache" in text and "miss" in text
        assert "key=name:acme" in text
        assert "isp_score=0.910" in text

    def test_format_seconds_units(self):
        assert format_seconds(0.0000052) == "5 us"
        assert format_seconds(0.0042) == "4.20 ms"
        assert format_seconds(2.5) == "2.50 s"


class TestPipelineTracing:
    @pytest.fixture(scope="class")
    def traced(self, small_world):
        built = build_asdb(
            small_world,
            SystemConfig(seed=5, metrics=MetricsRegistry(), trace=True),
        )
        dataset = built.asdb.classify_all()
        return built, dataset

    def test_every_record_carries_a_trace(self, traced):
        _, dataset = traced
        assert all(record.trace is not None for record in dataset)
        assert all(
            record.trace.asn == record.asn for record in dataset
        )

    def test_span_names_are_pipeline_stages(self, traced):
        _, dataset = traced
        for record in dataset:
            names = [span.name for span in record.trace.spans]
            assert names[0] == "cache"
            assert set(names) <= set(PIPELINE_SPANS)

    def test_cached_record_trace_stops_at_cache_hit(self, traced):
        _, dataset = traced
        cached = [r for r in dataset if r.stage is Stage.CACHED]
        assert cached, "world should produce sibling cache hits"
        for record in cached:
            assert record.trace.span("cache").status == "hit"
            assert len(record.trace.spans) == 1

    def test_uncached_record_reaches_consensus(self, traced):
        _, dataset = traced
        record = next(
            r for r in dataset
            if r.stage not in (Stage.CACHED, Stage.MATCHED_BY_ASN)
        )
        names = [span.name for span in record.trace.spans]
        assert "consensus" in names

    def test_trace_excluded_from_record_equality(self, traced):
        from dataclasses import replace

        _, dataset = traced
        record = next(iter(dataset))
        assert record == replace(record, trace=None)

    def test_no_trace_by_default(self, small_world):
        built = build_asdb(small_world, SystemConfig(seed=5))
        record = built.asdb.classify(small_world.asns()[0])
        assert record.trace is None


class TestObservabilityIsInert:
    def test_dataset_identical_with_and_without_observability(
        self, small_world
    ):
        plain = build_asdb(small_world, SystemConfig(seed=5))
        instrumented = build_asdb(
            small_world,
            SystemConfig(seed=5, metrics=MetricsRegistry(), trace=True),
        )
        csv_plain = plain.asdb.classify_all().to_csv()
        csv_instrumented = instrumented.asdb.classify_all().to_csv()
        assert csv_plain == csv_instrumented


class TestPipelineMetrics:
    @pytest.fixture(scope="class")
    def run(self, small_world):
        registry = MetricsRegistry()
        built = build_asdb(
            small_world, SystemConfig(seed=5, metrics=registry)
        )
        dataset = built.asdb.classify_all()
        return registry, built, dataset

    def test_stage_counter_totals_match_dataset(self, run):
        registry, _, dataset = run
        counter = registry.get("asdb_stage_total")
        assert counter.total() == len(dataset)
        for stage, count in dataset.stage_counts().items():
            assert counter.value(stage=stage.value) == count

    def test_all_stages_preregistered(self, run):
        registry, _, _ = run
        series = registry.get("asdb_stage_total").series()
        assert {key[0] for key in series} == {s.value for s in Stage}

    def test_cache_lookup_outcomes_match_cache_counters(self, run):
        registry, built, _ = run
        counter = registry.get("asdb_cache_lookups_total")
        cache = built.asdb.cache
        assert counter.value(outcome="hit") == cache.hits
        assert counter.value(outcome="miss") == cache.misses
        assert counter.value(outcome="none_key") == cache.none_keys

    def test_cache_hit_rate_gauge_tracks_cache(self, run):
        registry, built, _ = run
        gauge = registry.get("asdb_cache_hit_rate")
        assert gauge.value() == pytest.approx(built.asdb.cache.hit_rate)

    def test_classify_latency_observed_per_as(self, run):
        registry, _, dataset = run
        histogram = registry.get("asdb_classify_seconds")
        assert histogram.count() == len(dataset)

    def test_source_lookups_counted_with_outcomes(self, run):
        registry, _, _ = run
        counter = registry.get("asdb_source_lookups_total")
        sources = {key[0] for key in counter.series()}
        assert {"peeringdb", "ipinfo", "dnb", "crunchbase",
                "zvelo"} <= sources
        assert counter.total() > 0

    def test_source_match_decisions_preregistered(self, run):
        registry, _, _ = run
        counter = registry.get("asdb_source_match_decisions_total")
        outcomes = {key[1] for key in counter.series()}
        assert outcomes == {"accepted", "low_confidence",
                            "domain_mismatch"}

    def test_ml_and_scrape_metrics_present_when_ml_on(self, run):
        registry, _, _ = run
        assert registry.get("asdb_ml_batch_seconds").count() > 0
        assert registry.get("asdb_scrape_batch_seconds").count() > 0
        verdicts = registry.get("asdb_ml_verdicts_total")
        assert verdicts.total() > 0


class TestProfileAggregationEdgeCases:
    """Satellite: aggregate_spans / narrate_profile on degenerate
    inputs — empty runs, single-span runs, and stage-duration ties."""

    def _trace(self, asn, *spans):
        offset = 0.0
        built = []
        for name, duration in spans:
            built.append(Span(name, offset, duration, "", {}))
            offset += duration
        return ClassificationTrace(
            asn=asn, spans=tuple(built), total_seconds=offset
        )

    def test_empty_trace_list(self):
        from repro.obs import aggregate_spans, narrate_profile

        assert aggregate_spans([]) == []
        assert narrate_profile([]) == "no trace spans recorded"

    def test_traces_without_spans_produce_no_rows(self):
        from repro.obs import aggregate_spans, narrate_profile

        trace = self._trace(1)
        assert aggregate_spans([trace]) == []
        assert narrate_profile([trace]) == "no trace spans recorded"

    def test_single_span_run_owns_all_time(self):
        from repro.obs import aggregate_spans, narrate_profile

        trace = self._trace(1, ("ml", 0.5))
        assert aggregate_spans([trace]) == [("ml", 1, 0.5)]
        text = narrate_profile([trace])
        assert "top 1 of 1" in text
        assert "100.0%" in text

    def test_duration_ties_keep_first_seen_order(self):
        from repro.obs import aggregate_spans, narrate_profile

        traces = [self._trace(1, ("cache", 0.25), ("ml", 0.25))]
        rows = aggregate_spans(traces)
        assert rows == [("cache", 1, 0.25), ("ml", 1, 0.25)]
        text = narrate_profile(traces, top=1)
        assert "top 1 of 2" in text
        assert "cache" in text and "\n  ml" not in text

    def test_top_is_clamped_to_at_least_one_row(self):
        from repro.obs import narrate_profile

        traces = [self._trace(1, ("cache", 0.1), ("ml", 0.3))]
        text = narrate_profile(traces, top=0)
        assert "top 1 of 2" in text
        assert "ml" in text  # the slower stage wins the single slot
