"""Tests for the fault-injection + retry/breaker resilience layer.

Covers the tentpole (deterministic faults, retry/backoff, circuit
breaker, graceful degradation with scalar/batch parity) and the
error-path satellite bugfixes (generator cleanup + error traces,
``dump --parse`` on a missing file, ``lookup_by_org`` on a
non-indexable source).
"""

import pytest

from repro import SystemConfig, WorldConfig, build_asdb, generate_world
from repro.cli import main
from repro.core import Stage
from repro.core.pipeline import REQUEST_ASN_MATCH
from repro.core.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ResilientSource,
    RetryPolicy,
)
from repro.datasources.base import DataSource, Query, SourceEntry, SourceMatch
from repro.datasources.faults import (
    FaultPlan,
    FaultSpec,
    FaultySource,
    RateLimited,
    SourceOutage,
    is_malformed_match,
)
from repro.evaluation import (
    build_gold_standard,
    evaluate_source,
    pairwise_precision_rows,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceBuilder
from repro.taxonomy import LabelSet
from scalar_reference import classify_ascending


class _StaticSource(DataSource):
    """A source that always matches the same healthy entry."""

    name = "static"

    def __init__(self):
        self.calls = 0
        self.entry = SourceEntry(
            entity_id="E1",
            org_id="org-1",
            name="Acme Networks",
            domain="acme.net",
            native_categories=("ISP",),
            labels=LabelSet.from_layer2_slugs(["isp"]),
        )

    def lookup(self, query):
        self.calls += 1
        return SourceMatch(source=self.name, entry=self.entry, via="name")


class _NotIndexableSource(_StaticSource):
    """Keeps the base-class lookup_by_org (website-classifier shape)."""

    name = "webclass"


def _tiny_world(seed=7, n_orgs=40):
    return generate_world(WorldConfig(n_orgs=n_orgs, seed=seed))


def _query(tag="q"):
    return Query(name=f"{tag} networks", domain=f"{tag}.net")


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan.uniform(0.4, seed=11)
        query = _query()
        first = plan.decide("dnb", query, attempt=0)
        again = plan.decide("dnb", query, attempt=0)
        assert first == again

    def test_decisions_vary_by_attempt_and_source(self):
        plan = FaultPlan.uniform(0.5, seed=11)
        decisions = {
            (source, attempt): plan.decide(source, _query(), attempt)
            for source in ("dnb", "crunchbase", "zvelo")
            for attempt in range(6)
        }
        assert len(set(decisions.values())) > 1

    def test_down_plan_is_a_permanent_outage(self):
        plan = FaultPlan.down("dnb", seed=3)
        for attempt in range(10):
            assert plan.decide("dnb", _query(), attempt).outage
        assert not plan.decide("crunchbase", _query(), 0).raises

    def test_quiet_spec_never_fires(self):
        plan = FaultPlan(seed=5)
        decision = plan.decide("dnb", _query(), 0)
        assert not decision.raises
        assert not decision.malformed
        assert decision.latency_seconds == 0.0


class TestFaultySource:
    def test_outage_and_rate_limit_raise(self):
        source = _StaticSource()
        down = FaultySource(source, FaultPlan.down("static", seed=1))
        with pytest.raises(SourceOutage):
            down.lookup(_query())
        assert source.calls == 0  # never reached the real source

        limited = FaultySource(
            _StaticSource(),
            FaultPlan(seed=1, default=FaultSpec(rate_limit_rate=1.0)),
        )
        with pytest.raises(RateLimited):
            limited.lookup(_query())

    def test_malformed_entries_are_detectable(self):
        faulty = FaultySource(
            _StaticSource(),
            FaultPlan(seed=2, default=FaultSpec(malformed_rate=1.0)),
        )
        match = faulty.lookup(_query())
        assert match is not None
        assert is_malformed_match(match)
        assert not is_malformed_match(_StaticSource().lookup(_query()))
        assert not is_malformed_match(None)

    def test_scalar_and_bulk_draw_identical_faults(self):
        plan = FaultPlan.uniform(0.5, seed=9)
        queries = [_query(f"org{i}") for i in range(20)]

        def outcome(source, call):
            try:
                return ("ok", call())
            except (SourceOutage, RateLimited) as exc:
                return ("fault", type(exc).__name__)

        scalar = FaultySource(_StaticSource(), plan)
        per_query = [
            outcome(scalar, lambda q=q: scalar.lookup(q)) for q in queries
        ]
        bulk = FaultySource(_StaticSource(), plan)
        for index, query in enumerate(queries):
            got = outcome(bulk, lambda: bulk.lookup_many([query])[0])
            assert got == per_query[index]

    def test_lookup_by_org_is_fault_free(self, small_world):
        from repro.system import build_sources

        dnb = build_sources(small_world, seed=0)[0]
        down = FaultySource(dnb, FaultPlan.down("dnb", seed=0))
        org = small_world.org_of_asn(small_world.asns()[0])
        assert down.lookup_by_org(org.org_id) == dnb.lookup_by_org(
            org.org_id
        )


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_probes=2)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, recovery_probes=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_then_close(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_probes=2)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()  # rejection 1
        assert breaker.allow()      # rejection 2 -> half-open probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_probes=1)
        breaker.record_failure()
        assert breaker.allow()
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.transitions == (
            BREAKER_OPEN, BREAKER_HALF_OPEN, BREAKER_OPEN
        )

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestResilientSource:
    def test_transient_fault_clears_on_retry(self):
        # Find a query whose attempt 0 faults but attempt 1 succeeds
        # cleanly: retries re-roll the fault dice deterministically.
        plan = FaultPlan(seed=13, default=FaultSpec(outage_rate=0.5))
        query = next(
            q for q in (_query(f"t{i}") for i in range(200))
            if plan.decide("static", q, 0).outage
            and not plan.decide("static", q, 1).outage
        )
        inner = _StaticSource()
        source = ResilientSource(
            FaultySource(inner, plan),
            RetryPolicy(seed=13, max_retries=2, backoff_base=0.0),
        )
        outcome = source.try_lookup(query)
        assert not outcome.failed
        assert outcome.attempts == 2
        assert outcome.match is not None
        assert inner.calls == 1

    def test_permanent_outage_degrades_without_raising(self):
        registry = MetricsRegistry()
        source = ResilientSource(
            FaultySource(_StaticSource(), FaultPlan.down("static", seed=1)),
            RetryPolicy(
                seed=1, max_retries=2, backoff_base=0.0,
                breaker_enabled=False,
            ),
            metrics=registry,
        )
        outcome = source.try_lookup(_query())
        assert outcome.failed
        assert outcome.attempts == 3
        assert "outage" in outcome.error
        assert source.lookup(_query()) is None  # plain contract: no raise
        errors = registry.counter(
            "asdb_source_errors_total", labelnames=("source", "kind")
        )
        assert errors.value(source="static", kind="outage") >= 3
        retries = registry.counter(
            "asdb_retries_total", labelnames=("source",)
        )
        assert retries.value(source="static") >= 2

    def test_malformed_entries_count_as_failures(self):
        source = ResilientSource(
            FaultySource(
                _StaticSource(),
                FaultPlan(seed=2, default=FaultSpec(malformed_rate=1.0)),
            ),
            RetryPolicy(seed=2, max_retries=1, backoff_base=0.0),
        )
        outcome = source.try_lookup(_query())
        assert outcome.failed
        assert "malformed" in outcome.error
        assert outcome.match is None  # garbage never escapes

    def test_injected_latency_over_timeout_fails_without_sleeping(self):
        sleeps = []
        source = ResilientSource(
            FaultySource(
                _StaticSource(),
                FaultPlan(
                    seed=3,
                    default=FaultSpec(
                        latency_rate=1.0, latency_seconds=5.0
                    ),
                ),
            ),
            RetryPolicy(
                seed=3, max_retries=1, backoff_base=0.0,
                timeout_seconds=1.0,
            ),
            sleep=sleeps.append,
        )
        outcome = source.try_lookup(_query())
        assert outcome.failed
        assert "timeout" in outcome.error
        assert sleeps == []  # simulated latency, zero wall time

    def test_breaker_opens_and_sheds_calls(self):
        registry = MetricsRegistry()
        source = ResilientSource(
            FaultySource(_StaticSource(), FaultPlan.down("static", seed=4)),
            RetryPolicy(
                seed=4, max_retries=0, backoff_base=0.0,
                breaker_failure_threshold=2, breaker_recovery_probes=50,
            ),
            metrics=registry,
        )
        source.try_lookup(_query("a"))
        source.try_lookup(_query("b"))
        assert source.breaker.state == BREAKER_OPEN
        shed = source.try_lookup(_query("c"))
        assert shed.failed
        assert shed.error == "breaker_open"
        assert shed.attempts == 0
        gauge = registry.gauge(
            "asdb_breaker_state", labelnames=("source",)
        )
        assert gauge.value(source="static") == 2

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(seed=5, backoff_base=0.01, backoff_cap=0.02)
        first = policy.backoff_seconds("dnb", "key", 0)
        assert first == policy.backoff_seconds("dnb", "key", 0)
        assert first != policy.backoff_seconds("dnb", "key", 1)
        assert 0.0 < first <= 0.02
        assert policy.backoff_seconds("dnb", "key", 9) <= 0.02
        quiet = RetryPolicy(seed=5, backoff_base=0.0)
        assert quiet.backoff_seconds("dnb", "key", 3) == 0.0

    def test_untouched_contract_delegates(self):
        inner = _StaticSource()
        source = ResilientSource(inner, RetryPolicy(backoff_base=0.0))
        assert source.name == "static"
        assert source.coverage_count() == inner.coverage_count()
        assert source.inner is inner
        many = source.lookup_many([_query("a"), _query("b")])
        assert len(many) == 2 and all(m is not None for m in many)


class TestPipelineParityUnderFaults:
    """Same seed + FaultPlan => the scalar reference pass and the batch
    engine are identical, including the degraded_sources provenance."""

    def _records(self, world, workers, plan, policy, train_ml=False):
        """``workers=None`` runs the scalar reference pass."""
        built = build_asdb(
            world,
            SystemConfig(
                seed=7, train_ml=train_ml, workers=workers or 1,
                faults=plan, retry=policy,
            ),
        )
        if workers is None:
            return list(classify_ascending(built.asdb))
        return list(built.asdb.classify_all())

    def _assert_identical(self, scalar, batched):
        assert len(scalar) == len(batched)
        for record, twin in zip(scalar, batched):
            assert twin.asn == record.asn
            assert twin.labels == record.labels, record.asn
            assert twin.stage is record.stage, record.asn
            assert twin.domain == record.domain, record.asn
            assert twin.sources == record.sources, record.asn
            assert twin.degraded_sources == record.degraded_sources, (
                record.asn
            )

    def test_uniform_faults_parity(self):
        world = _tiny_world(seed=7, n_orgs=50)
        plan = FaultPlan.uniform(0.3, seed=7)
        # Breaker off: open/half-open shedding depends on call order,
        # which batching legitimately changes; pure retry does not.
        policy = RetryPolicy(
            seed=7, backoff_base=0.0, breaker_enabled=False
        )
        for train_ml in (False, True):
            scalar = self._records(world, None, plan, policy, train_ml)
            batched = self._records(world, 4, plan, policy, train_ml)
            self._assert_identical(scalar, batched)
            assert any(record.degraded_sources for record in scalar)
            assert train_ml == any(
                record.stage is Stage.CLASSIFIER for record in scalar
            )

    def test_permanently_down_source_parity_with_breaker(self):
        # A permanently-down source degrades identically whether the
        # breaker sheds the call or the probe fails, so strict parity
        # holds even with the breaker on.
        world = _tiny_world(seed=11, n_orgs=40)
        plan = FaultPlan.down("crunchbase", seed=11)
        policy = RetryPolicy(seed=11, max_retries=1, backoff_base=0.0)
        scalar = self._records(world, None, plan, policy)
        batched = self._records(world, 4, plan, policy)
        self._assert_identical(scalar, batched)

    def test_no_faults_means_no_degraded_and_same_output(self):
        world = _tiny_world(seed=5, n_orgs=40)
        plain = build_asdb(
            world, SystemConfig(seed=5, train_ml=False)
        ).asdb.classify_all()
        wrapped = build_asdb(
            world,
            SystemConfig(
                seed=5, train_ml=False,
                retry=RetryPolicy(
                    seed=5, backoff_base=0.0, timeout_seconds=None
                ),
            ),
        ).asdb.classify_all()
        assert wrapped.to_csv() == plain.to_csv()
        assert all(not record.degraded_sources for record in wrapped)


class TestGracefulDegradation:
    def test_down_source_still_yields_complete_dataset(self):
        world = _tiny_world(seed=9, n_orgs=40)
        registry = MetricsRegistry()
        built = build_asdb(
            world,
            SystemConfig(
                seed=9, train_ml=False, metrics=registry,
                faults=FaultPlan.down("peeringdb", seed=9),
                retry=RetryPolicy(
                    seed=9, max_retries=1, backoff_base=0.0,
                    breaker_failure_threshold=2,
                ),
            ),
        )
        dataset = built.asdb.classify_all()
        assert len(dataset) == len(world.asns())
        assert all(
            "peeringdb" in record.degraded_sources
            for record in dataset
            if record.stage.value != "cached"
        )
        errors = registry.counter(
            "asdb_source_errors_total", labelnames=("source", "kind")
        )
        assert errors.value(source="peeringdb", kind="outage") > 0
        breaker = registry.gauge(
            "asdb_breaker_state", labelnames=("source",)
        )
        assert breaker.value(source="peeringdb") in (1, 2)
        transitions = registry.counter(
            "asdb_breaker_transitions_total", labelnames=("source", "to")
        )
        assert transitions.value(source="peeringdb", to="open") >= 1

    def test_degraded_sources_survive_json_roundtrip(self):
        from repro.core.persistence import dataset_from_json, dataset_to_json

        world = _tiny_world(seed=9, n_orgs=30)
        built = build_asdb(
            world,
            SystemConfig(
                seed=9, train_ml=False,
                faults=FaultPlan.down("dnb", seed=9),
                retry=RetryPolicy(seed=9, max_retries=0, backoff_base=0.0),
            ),
        )
        dataset = built.asdb.classify_all()
        payload = dataset_to_json(dataset)
        assert '"degraded_sources"' in payload
        restored = dataset_from_json(payload)
        for record in dataset:
            assert (
                restored.get(record.asn).degraded_sources
                == record.degraded_sources
            )

    def test_healthy_json_has_no_degraded_key(self):
        from repro.core.persistence import dataset_to_json

        world = _tiny_world(seed=5, n_orgs=20)
        dataset = build_asdb(
            world, SystemConfig(seed=5, train_ml=False)
        ).asdb.classify_all()
        assert '"degraded_sources"' not in dataset_to_json(dataset)


class TestDriverErrorCleanup:
    """Regression: a served call that raises must close the suspended
    stage generator and finish the trace with an error status."""

    def test_classify_closes_generator_and_fails_trace(
        self, monkeypatch
    ):
        from repro.core import parallel

        world = _tiny_world(seed=5, n_orgs=20)
        asdb = build_asdb(
            world, SystemConfig(seed=5, train_ml=False, trace=True)
        ).asdb
        cleaned = []
        builders = []

        def probe(asn, tb):
            try:
                yield (REQUEST_ASN_MATCH, asn)
                pytest.fail("reply should never arrive")
            finally:
                cleaned.append(asn)

        def recording_trace_builder(asn, enabled):
            builders.append(TraceBuilder(asn))
            return builders[-1]

        monkeypatch.setattr(
            parallel, "trace_builder", recording_trace_builder
        )
        asdb._classify_steps = probe
        # A bare source (no resilience wrapper) that raises: the error
        # propagates instead of degrading.
        asdb._peeringdb = _ExplodingSource()
        asn = world.asns()[0]
        with pytest.raises(RuntimeError, match="source exploded"):
            asdb.classify(asn)
        assert cleaned == [asn]
        assert asn not in asdb.dataset
        (builder,) = builders
        trace = builder.finish()
        assert trace.error == "RuntimeError: source exploded"
        assert "aborted: RuntimeError" in _narrated(trace)

    def test_batch_failure_marks_every_suspended_leader(self, monkeypatch):
        from repro.core import parallel
        from repro.obs.trace import trace_builder as real_trace_builder

        world = _tiny_world(seed=5, n_orgs=20)
        asdb = build_asdb(
            world, SystemConfig(seed=5, train_ml=False, trace=True)
        ).asdb
        builders = []

        def recording_trace_builder(asn, enabled):
            builder = real_trace_builder(asn, enabled)
            builders.append(builder)
            return builder

        monkeypatch.setattr(
            parallel, "trace_builder", recording_trace_builder
        )
        monkeypatch.setattr(
            asdb._resolver, "match_sources_many", _raise_runtime_error
        )
        with pytest.raises(RuntimeError, match="source exploded"):
            asdb.classify_batch(workers=3)
        assert builders
        failed = [
            builder for builder in builders
            if builder.finish().error is not None
        ]
        assert failed, "no leader trace carries the batch failure"
        assert all(
            "RuntimeError: source exploded" == builder.finish().error
            for builder in failed
        )

    def test_scalar_classify_still_works_after_monkeypatch_style_probe(
        self,
    ):
        # Sanity: the cleanup path does not disturb a healthy pass.
        world = _tiny_world(seed=5, n_orgs=20)
        asdb = build_asdb(
            world, SystemConfig(seed=5, train_ml=False, trace=True)
        ).asdb
        record = asdb.classify(world.asns()[0])
        assert record.trace is not None
        assert record.trace.error is None


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("source exploded")


class _ExplodingSource(DataSource):
    name = "peeringdb"

    def lookup(self, query):
        _raise_runtime_error()


def _narrated(trace):
    from repro.obs import narrate_trace

    return narrate_trace(trace)


class TestLookupByOrgBugfix:
    def test_base_error_names_the_source(self):
        source = _NotIndexableSource()
        with pytest.raises(NotImplementedError, match="'webclass'"):
            source.lookup_by_org("org-1")

    def test_evaluate_source_treats_it_as_no_coverage(self, small_world):
        gold = build_gold_standard(small_world, size=25, seed=0)
        evaluation = evaluate_source(
            _NotIndexableSource(), small_world, gold
        )
        assert evaluation.coverage.value == 0.0

    def test_pairwise_rows_skip_non_indexable_sources(self, small_world):
        from repro.system import build_sources

        dnb = build_sources(small_world, seed=0)[0]
        gold = build_gold_standard(small_world, size=25, seed=0)
        rows = pairwise_precision_rows(
            small_world, gold,
            {"dnb": dnb, "webclass": _NotIndexableSource()},
        )
        assert rows[("webclass",)].total == 0
        assert rows[("dnb", "webclass")].total == 0
        assert rows[("dnb",)].total > 0


class TestCliResilience:
    def test_inject_faults_run_completes(self, capsys):
        code = main([
            "classify", "--n-orgs", "30", "--seed", "5", "--no-ml",
            "--inject-faults", "0.3", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "classified" in out
        assert "fault injection:" in out
        assert "source errors absorbed" in out

    def test_inject_faults_metrics_exported(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.txt"
        code = main([
            "classify", "--n-orgs", "30", "--seed", "5", "--no-ml",
            "--inject-faults", "--retry", "1",
            "--metrics-out", str(metrics_file),
        ])
        assert code == 0
        text = metrics_file.read_text()
        assert "asdb_source_errors_total" in text
        assert "asdb_retries_total" in text
        assert "asdb_breaker_state" in text

    def test_worker_count_does_not_change_faulted_output(
        self, tmp_path, capsys
    ):
        # The breaker's shedding depends on the order of source calls;
        # every worker count makes them in one order.
        outputs = []
        for workers in ("1", "2", "4"):
            out = tmp_path / f"faults{workers}.json"
            assert main([
                "classify", "--n-orgs", "60", "--seed", "11",
                "--inject-faults", "--workers", workers,
                "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert b'"degraded_sources"' in outputs[0]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_dump_parse_missing_file_exits_2(self, capsys):
        code = main(["dump", "--parse", "/no/such/dump.txt"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "/no/such/dump.txt" in captured.err
