"""The content-addressed feature cache and executor output equivalence.

Covers the :class:`~repro.ml.FeatureCache` memo itself, its wiring into
:class:`~repro.ml.WebClassificationPipeline` (hit/miss accounting, the
``asdb_featcache_*`` metric families, invalidation on ``fit``), and the
PR's acceptance criterion: ``classify_all`` output is byte-identical —
CSV *and* JSON — across the sequential path, the batch engine, and a
pre-warmed feature cache.
"""

import random

import pytest

from repro import SystemConfig, WorldConfig, build_asdb, generate_world
from repro.core.persistence import dataset_to_json
from repro.ml import FeatureCache, build_training_examples, content_digest
from repro.obs import MetricsRegistry


def _world(seed=5, n_orgs=60):
    return generate_world(
        WorldConfig(n_orgs=n_orgs, seed=seed, multi_as_probability=0.5)
    )


class TestFeatureCacheUnit:
    def test_get_put_roundtrip(self):
        cache = FeatureCache()
        key = content_digest("some scraped corpus")
        assert cache.get(key) is None
        cache.put(key, (0.25, 0.75))
        assert cache.get(key) == (0.25, 0.75)
        assert len(cache) == 1

    def test_stats_track_hits_and_misses(self):
        cache = FeatureCache()
        cache.get("absent")
        cache.put("present", (0.1, 0.2))
        cache.get("present")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = FeatureCache()
        cache.put("a", (0.0, 0.0))
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_digest_is_content_addressed(self):
        assert content_digest("abc") == content_digest("abc")
        assert content_digest("abc") != content_digest("abd")
        assert content_digest("") != content_digest(" ")


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def system(self):
        world = _world()
        registry = MetricsRegistry()
        built = build_asdb(
            world, SystemConfig(seed=7, metrics=registry)
        )
        return world, registry, built

    def _domains(self, world, count=25):
        return sorted(world.web.domains())[:count]

    def test_warm_repeat_is_all_hits_and_identical(self, system):
        world, _, built = system
        pipeline = built.ml_pipeline
        pipeline.feature_cache.clear()
        domains = self._domains(world)
        cold = pipeline.classify_domains(domains)
        before = pipeline.feature_cache.stats()
        warm = pipeline.classify_domains(domains)
        after = pipeline.feature_cache.stats()
        assert warm == cold  # exact floats, not approximate
        assert after.hits - before.hits == after.size
        assert after.misses == before.misses

    def test_scalar_and_batch_share_the_cache(self, system):
        world, _, built = system
        pipeline = built.ml_pipeline
        pipeline.feature_cache.clear()
        domains = self._domains(world, count=10)
        scalar = [pipeline.classify_domain(d) for d in domains]
        before = pipeline.feature_cache.stats()
        batch = pipeline.classify_domains(domains)
        after = pipeline.feature_cache.stats()
        assert batch == scalar
        assert after.misses == before.misses  # batch was served warm

    def test_metric_families_exported(self, system):
        world, registry, built = system
        built.ml_pipeline.classify_domains(self._domains(world, count=5))
        snapshot = registry.to_prometheus()
        assert "asdb_featcache_lookups_total" in snapshot
        assert "asdb_featcache_size" in snapshot
        lookups = registry.counter(
            "asdb_featcache_lookups_total", "", ("outcome",)
        )
        stats = built.ml_pipeline.feature_cache.stats()
        assert lookups.value(outcome="hit") == stats.hits
        assert lookups.value(outcome="miss") == stats.misses
        size = registry.gauge("asdb_featcache_size", "")
        assert size.value() == stats.size

    def test_fit_invalidates_the_cache(self, system):
        world, _, built = system
        pipeline = built.ml_pipeline
        pipeline.classify_domains(self._domains(world, count=5))
        assert len(pipeline.feature_cache) > 0
        # Refit: any cached scores predate the new model and must not
        # survive it.
        examples = build_training_examples(
            world, built.dnb, random.Random(71)
        )
        pipeline.fit(examples)
        assert len(pipeline.feature_cache) == 0


class TestExecutorByteIdentity:
    """Acceptance: CSV and JSON exports byte-identical across paths."""

    @pytest.fixture(scope="class")
    def baseline(self):
        world = _world(seed=11, n_orgs=50)
        dataset = build_asdb(
            world, SystemConfig(seed=9)
        ).asdb.classify_all()
        return world, dataset.to_csv(), dataset_to_json(dataset)

    def test_thread_batch_identical(self, baseline):
        world, csv_text, json_text = baseline
        dataset = build_asdb(
            world, SystemConfig(seed=9, workers=4)
        ).asdb.classify_all()
        assert dataset.to_csv() == csv_text
        assert dataset_to_json(dataset) == json_text

    def test_prewarmed_feature_cache_identical(self, baseline):
        world, csv_text, json_text = baseline
        built = build_asdb(world, SystemConfig(seed=9))
        # Warm the score cache with every scrapable domain, then verify
        # the cached path reproduces the cold output byte for byte.
        built.ml_pipeline.classify_domains(sorted(world.web.domains()))
        dataset = built.asdb.classify_all()
        assert dataset.to_csv() == csv_text
        assert dataset_to_json(dataset) == json_text
