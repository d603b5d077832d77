"""The batch classification engine: determinism, bulk endpoints, cache.

The tentpole guarantee under test: ``classify_batch(workers=N)`` is
byte-identical to the sequential ascending-ASN ``classify_all`` pass —
same labels, stages, domains, sources, and cache keys per record, same
CSV serialization — on worlds with heavy organization-sibling overlap
(where the cluster planner and the shared cache actually matter).
"""

import threading

import pytest

from repro import SystemConfig, WorldConfig, build_asdb, generate_world
from repro.core import OrganizationCache, plan_clusters
from repro.core.cache import org_cache_key
from repro.datasources.base import Query
from repro.system import build_sources
from repro.web.translate import translate_many, translate_to_english


def _sibling_world(seed, n_orgs=70):
    """A world where most organizations own several ASes."""
    return generate_world(
        WorldConfig(n_orgs=n_orgs, seed=seed, multi_as_probability=0.6)
    )


def _assert_records_identical(sequential, batched):
    assert len(sequential) == len(batched)
    for record in sequential:
        twin = batched.get(record.asn)
        assert twin.labels == record.labels, record.asn
        assert twin.stage is record.stage, record.asn
        assert twin.domain == record.domain, record.asn
        assert twin.sources == record.sources, record.asn
        assert twin.org_key == record.org_key, record.asn
        assert twin.cache_keys == record.cache_keys, record.asn
    assert batched.to_csv() == sequential.to_csv()


class TestBatchIdentity:
    @pytest.mark.parametrize("seed", [5, 21, 47])
    def test_workers_4_identical_to_sequential(self, seed):
        world = _sibling_world(seed)
        sequential = build_asdb(
            world, SystemConfig(seed=seed, train_ml=False)
        ).asdb.classify_all()
        batched = build_asdb(
            world, SystemConfig(seed=seed, train_ml=False)
        ).asdb.classify_batch(workers=4)
        _assert_records_identical(sequential, batched)

    def test_with_ml_identical_to_sequential(self):
        world = _sibling_world(5, n_orgs=60)
        sequential = build_asdb(
            world, SystemConfig(seed=7)
        ).asdb.classify_all()
        batched = build_asdb(
            world, SystemConfig(seed=7)
        ).asdb.classify_batch(workers=4)
        _assert_records_identical(sequential, batched)

    def test_workers_1_identical_to_sequential(self):
        world = _sibling_world(9)
        sequential = build_asdb(
            world, SystemConfig(seed=3, train_ml=False)
        ).asdb.classify_all()
        batched = build_asdb(
            world, SystemConfig(seed=3, train_ml=False)
        ).asdb.classify_batch(workers=1)
        _assert_records_identical(sequential, batched)

    def test_cache_disabled_identical_to_sequential(self):
        world = _sibling_world(13)
        config = SystemConfig(seed=3, train_ml=False, use_cache=False)
        sequential = build_asdb(world, config).asdb.classify_all()
        batched = build_asdb(world, config).asdb.classify_batch(workers=4)
        _assert_records_identical(sequential, batched)

    def test_classify_all_workers_dispatches_to_batch(self):
        world = _sibling_world(9)
        sequential = build_asdb(
            world, SystemConfig(seed=3, train_ml=False)
        ).asdb.classify_all()
        via_config = build_asdb(
            world, SystemConfig(seed=3, train_ml=False, workers=4)
        ).asdb.classify_all()
        _assert_records_identical(sequential, via_config)

    def test_batch_subset_of_asns(self):
        world = _sibling_world(5)
        asns = world.asns()[: len(world.asns()) // 2]
        asdb = build_asdb(
            world, SystemConfig(seed=5, train_ml=False)
        ).asdb
        reference = build_asdb(
            world, SystemConfig(seed=5, train_ml=False)
        ).asdb
        for asn in asns:
            reference.classify(asn)
        batched = asdb.classify_batch(asns=asns, workers=4)
        _assert_records_identical(reference.dataset, batched)


class TestClusterPlanning:
    def test_partition_covers_every_asn_once(self):
        world = _sibling_world(5)
        clusters = plan_clusters(world.registry)
        seen = [asn for cluster in clusters for asn in cluster.members]
        assert sorted(seen) == world.asns()
        assert len(seen) == len(set(seen))

    def test_members_ascending_and_leader_lowest(self):
        world = _sibling_world(5)
        for cluster in plan_clusters(world.registry):
            assert list(cluster.members) == sorted(cluster.members)
            assert cluster.leader == cluster.members[0]

    def test_keys_are_the_pre_domain_cache_keys(self):
        world = _sibling_world(5)
        for cluster in plan_clusters(world.registry):
            for asn in cluster.members:
                key = org_cache_key(world.registry.contact(asn), domain=None)
                assert key == cluster.key

    def test_siblings_actually_cluster(self):
        world = _sibling_world(5)
        clusters = plan_clusters(world.registry)
        assert any(len(cluster.members) > 1 for cluster in clusters)

    def test_no_grouping_yields_singletons(self):
        world = _sibling_world(5)
        clusters = plan_clusters(world.registry, group_siblings=False)
        assert all(len(cluster.members) == 1 for cluster in clusters)
        assert len(clusters) == len(world.asns())


class TestBulkEndpoints:
    def _queries(self, world):
        queries = []
        for asn in world.asns():
            contact = world.registry.contact(asn)
            org = world.org_of_asn(asn)
            queries.append(
                Query(
                    name=contact.name,
                    domain=org.domain,
                    address=contact.address,
                    phone=contact.phone,
                    asn=asn,
                )
            )
            # Domainless variant exercises the name-keyed paths.
            queries.append(Query(name=contact.name, asn=asn))
        return queries

    def test_lookup_many_elementwise_identical_for_every_source(self):
        world = _sibling_world(5)
        queries = self._queries(world)
        for source in build_sources(world, seed=5):
            assert source.lookup_many(queries) == [
                source.lookup(query) for query in queries
            ], source.name

    def test_ml_classify_domains_identical_to_scalar(self):
        world = _sibling_world(5, n_orgs=60)
        built = build_asdb(world, SystemConfig(seed=7))
        pipeline = built.ml_pipeline
        domains = sorted(world.web.domains())[:60] + ["nonexistent.invalid"]
        batch = pipeline.classify_domains(domains)
        scalar = [pipeline.classify_domain(domain) for domain in domains]
        assert batch == scalar  # includes exact float scores

    def test_scrape_many_identical_to_scalar(self):
        from repro.web.scraper import Scraper

        world = _sibling_world(5, n_orgs=60)
        scraper = Scraper(world.web)
        domains = sorted(world.web.domains())[:80] + ["nonexistent.invalid"]
        assert scraper.scrape_many(domains) == [
            scraper.scrape(domain) for domain in domains
        ]

    def test_translate_many_identical_to_scalar(self):
        world = _sibling_world(5, n_orgs=60)
        texts = []
        for domain in sorted(world.web.domains())[:80]:
            site = world.web.fetch(domain)
            if site is not None and site.homepage.scrapable_text:
                texts.append(site.homepage.scrapable_text)
        assert texts
        assert translate_many(texts) == [
            translate_to_english(text) for text in texts
        ]

    def test_match_sources_many_identical_to_scalar(self):
        world = _sibling_world(5)
        resolver = build_asdb(
            world, SystemConfig(seed=5, train_ml=False)
        ).resolver
        items = []
        for asn in world.asns()[:60]:
            contact = world.registry.contact(asn)
            items.append((contact, world.org_of_asn(asn).domain))
            items.append((contact, None))
        assert resolver.match_sources_many(items) == [
            resolver.match_sources(contact, domain)
            for contact, domain in items
        ]


class TestThreadSafeCache:
    def test_concurrent_hammer_keeps_counters_consistent(self):
        cache = OrganizationCache()
        operations_per_thread = 400
        n_threads = 8

        def hammer(thread_id):
            for index in range(operations_per_thread):
                key = f"name:org{(thread_id + index) % 10}"
                cache.get(key)
                cache.put(key, ("record", thread_id, index))
                cache.get(None)
                if index % 7 == 0:
                    cache.invalidate(key)

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats()
        total_keyed = n_threads * operations_per_thread
        assert stats.hits + stats.misses == total_keyed
        assert stats.none_keys == total_keyed
        assert 0.0 <= stats.hit_rate <= 1.0

    def test_stats_snapshot_is_consistent(self):
        cache = OrganizationCache()
        cache.get("name:a")
        cache.put("name:a", "record")
        cache.get("name:a")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_invalidate_record_drops_every_alias(self):
        cache = OrganizationCache()
        record = object()
        cache.put("name:a", record)
        cache.put("domain:a.com", record)
        cache.put("name:other", "unrelated")
        cache.invalidate_record(record)
        assert cache.get("name:a") is None
        assert cache.get("domain:a.com") is None
        assert cache.get("name:other") == "unrelated"


class TestReclassify:
    def test_superseded_record_is_replaced_not_duplicated(self):
        world = _sibling_world(5)
        asdb = build_asdb(
            world, SystemConfig(seed=5, train_ml=False)
        ).asdb
        asdb.classify_all()
        size = len(asdb.dataset)
        asn = world.asns()[0]
        old = asdb.dataset.get(asn)
        new = asdb.reclassify(asn)
        assert len(asdb.dataset) == size
        assert asdb.dataset.get(asn) is new
        assert asdb.dataset.get(asn) is not old

    def test_reclassify_purges_stale_cache_aliases(self):
        world = _sibling_world(5)
        asdb = build_asdb(
            world, SystemConfig(seed=5, train_ml=False)
        ).asdb
        asdb.classify_all()
        asn = next(
            record.asn for record in asdb.dataset if record.cache_keys
        )
        old = asdb.dataset.get(asn)
        # A community-correction style alias beyond the record's own keys.
        asdb.cache.put("name:stale alias", old)
        asdb.reclassify(asn)
        assert all(
            value is not old for value in asdb.cache._store.values()
        )


class TestCliWorkers:
    def test_classify_workers_output_identical(self, tmp_path, capsys):
        from repro.cli import main

        out_seq = tmp_path / "seq.csv"
        out_par = tmp_path / "par.csv"
        base = ["classify", "--n-orgs", "40", "--seed", "3", "--no-ml"]
        assert main(base + ["--out", str(out_seq)]) == 0
        assert main(
            base + ["--workers", "4", "--out", str(out_par)]
        ) == 0
        capsys.readouterr()
        assert out_par.read_bytes() == out_seq.read_bytes()


class TestBatchMetrics:
    def test_batch_gauges_and_histograms_emitted(self):
        from repro.obs import MetricsRegistry

        world = _sibling_world(5)
        registry = MetricsRegistry()
        asdb = build_asdb(
            world,
            SystemConfig(seed=5, train_ml=False, metrics=registry),
        ).asdb
        asdb.classify_batch(workers=4)
        snapshot = {metric.name for metric in registry}
        for name in (
            "asdb_batch_workers",
            "asdb_batch_asns",
            "asdb_batch_clusters",
            "asdb_batch_cluster_size",
            "asdb_batch_seconds",
        ):
            assert name in snapshot
        workers = registry.gauge("asdb_batch_workers", "")
        assert workers.value() == 4
        asns = registry.gauge("asdb_batch_asns", "")
        assert asns.value() == len(world.asns())
