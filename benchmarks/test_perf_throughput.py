"""Performance: ML training and classification throughput (Section 4.1),
plus the indexed-store streaming-sweep gates.

Paper: "Our model uses 6 CPU cores and 5 seconds to train, and it
requires about 1 second to classify 150 domains."  These benches time
the from-scratch stack (single core) against the same workload shape.

The streaming-sweep benches gate the storage spine instead: batched
upserts into the indexed sqlite store at 100k+ sharded-world records
(records/sec floor) and a 1M-record pass proving O(batch) peak
residency.  Their numbers land in ``BENCH_throughput.json`` at the
repo root (CI uploads it as an artifact), respecting
``REPRO_BENCH_ROUNDS`` like every other smoke-able bench.
"""

import json
import os
import random
import time
from pathlib import Path

from repro.core.pipeline import ASdb
from repro.core.store import SqliteDatasetStore
from repro.ml import WebClassificationPipeline, build_training_examples
from repro.reporting import render_table
from repro.web import Scraper
from repro.world.generator import iter_record_shards

#: CI smoke runs set this to 1 to keep the job fast; the statistics are
#: then indicative only, which is fine for a smoke signal.
BENCH_ROUNDS = max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "3")))

BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_throughput.json"
)


def _record(key, payload):
    """Merge one benchmark's numbers into ``BENCH_throughput.json``."""
    document = {}
    if BENCH_PATH.exists():
        document = json.loads(BENCH_PATH.read_text())
    document[key] = payload
    BENCH_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )


def _sweep_records(store, n_records, seed):
    """Stream synthetic record shards through the store the way a
    maintenance sweep does: add every record, flush per window."""
    total = 0
    for shard in iter_record_shards(n_records, seed=seed):
        for record in shard:
            store.add(record)
        store.flush()
        total += len(shard)
    return total


def test_perf_ml_training(benchmark, bench_world, built_system, report):
    rng = random.Random(71)
    examples = build_training_examples(bench_world, built_system.dnb, rng)

    def _train():
        return WebClassificationPipeline(
            Scraper(bench_world.web), seed=1
        ).fit(examples)

    pipeline = benchmark.pedantic(_train, rounds=BENCH_ROUNDS, iterations=1)
    assert pipeline.fitted
    stats = benchmark.stats.stats
    report(
        "perf_ml_training",
        render_table(
            ["Metric", "Value"],
            [
                ["training set size", len(examples)],
                ["mean wall time", f"{stats.mean:.2f}s"],
                ["paper reference", "5s on 6 cores"],
            ],
            title="Performance: ML pipeline training",
        ),
    )
    # Generous sanity band; the point is "seconds, not minutes".
    assert stats.mean < 60.0


def test_perf_classify_150_domains(
    benchmark, bench_world, built_system, report
):
    pipeline = built_system.ml_pipeline
    domains = [
        org.domain
        for org in bench_world.iter_organizations()
        if org.domain is not None
    ][:150]
    assert len(domains) == 150

    def _classify():
        # Cold-path measurement: drop memoized scores so every round
        # pays for translation + featurization + scoring.
        pipeline.feature_cache.clear()
        return [pipeline.classify_domain(domain) for domain in domains]

    verdicts = benchmark.pedantic(_classify, rounds=BENCH_ROUNDS, iterations=1)
    assert len(verdicts) == 150
    stats = benchmark.stats.stats
    report(
        "perf_classification",
        render_table(
            ["Metric", "Value"],
            [
                ["domains classified", 150],
                ["mean wall time", f"{stats.mean:.2f}s"],
                ["paper reference", "~1s for 150 domains"],
            ],
            title="Performance: classifying 150 domains",
        ),
    )
    assert stats.mean < 30.0


def test_perf_full_pipeline_throughput(
    benchmark, bench_world, built_system, report
):
    """End-to-end per-AS classification rate (cache disabled by using
    fresh ASdb state each round via reclassify)."""
    sample = bench_world.asns()[:200]

    def _classify_all():
        for asn in sample:
            built_system.asdb.reclassify(asn)
        return len(sample)

    count = benchmark.pedantic(
        _classify_all, rounds=min(2, BENCH_ROUNDS), iterations=1
    )
    stats = benchmark.stats.stats
    rate = count / stats.mean
    report(
        "perf_full_pipeline",
        render_table(
            ["Metric", "Value"],
            [
                ["ASes per round", count],
                ["mean wall time", f"{stats.mean:.2f}s"],
                ["throughput", f"{rate:.0f} ASes/s"],
            ],
            title="Performance: full Figure-4 pipeline throughput",
        ),
    )
    assert rate > 5  # sanity: the pipeline is not pathologically slow


def test_perf_parallel_batch_speedup(bench_world, built_system, report):
    """The per-AS ``classify(asn)`` loop vs the 4-worker batch engine,
    plus the batched 150-domain ML path vs the per-domain loop.

    ``classify_all()`` runs on the batch engine too, so the sequential
    side is the loop that classifies one AS per call.

    Timed manually (not via ``benchmark``) because the comparison needs
    two systems over the same world within one test, and the batch run
    must additionally prove byte-identical output.
    """

    def fresh_asdb():
        # Reuse the session system's trained/wired components; fresh
        # cache and dataset so both passes start cold.
        return ASdb(
            registry=bench_world.registry,
            resolver=built_system.resolver,
            peeringdb=built_system.peeringdb,
            ipinfo=built_system.ipinfo,
            ml_pipeline=built_system.ml_pipeline,
        )

    pipeline = built_system.ml_pipeline

    pipeline.feature_cache.clear()
    asdb = fresh_asdb()
    start = time.perf_counter()
    for asn in bench_world.asns():
        asdb.classify(asn)
    sequential_seconds = time.perf_counter() - start
    sequential = asdb.dataset

    pipeline.feature_cache.clear()
    start = time.perf_counter()
    batched = fresh_asdb().classify_batch(workers=4)
    batch_seconds = time.perf_counter() - start

    assert batched.to_csv() == sequential.to_csv()
    speedup = sequential_seconds / batch_seconds

    domains = [
        org.domain
        for org in bench_world.iter_organizations()
        if org.domain is not None
    ][:150]
    pipeline.feature_cache.clear()
    start = time.perf_counter()
    loop_verdicts = [pipeline.classify_domain(d) for d in domains]
    ml_loop_seconds = time.perf_counter() - start
    pipeline.feature_cache.clear()
    start = time.perf_counter()
    batch_verdicts = pipeline.classify_domains(domains)
    ml_batch_seconds = time.perf_counter() - start
    assert batch_verdicts == loop_verdicts

    cores = os.cpu_count() or 1
    report(
        "perf_parallel",
        render_table(
            ["Metric", "Value"],
            [
                ["ASes classified", len(sequential)],
                ["CPU cores", cores],
                ["per-AS classify(asn) loop", f"{sequential_seconds:.2f}s"],
                ["classify_batch(workers=4)", f"{batch_seconds:.2f}s"],
                ["batch speedup", f"{speedup:.2f}x"],
                ["output", "byte-identical CSV"],
                ["ML 150-domain loop", f"{ml_loop_seconds:.2f}s"],
                ["ML 150-domain batch", f"{ml_batch_seconds:.2f}s"],
                ["ML batch speedup", f"{ml_loop_seconds / ml_batch_seconds:.2f}x"],
            ],
            title="Performance: parallel batch engine (4 workers)",
        ),
    )
    # The batched ML path must never be slower than the per-domain loop
    # (small tolerance for timer jitter on tiny workloads).
    assert ml_batch_seconds <= ml_loop_seconds * 1.10
    # Core-aware speedup gate: 4 workers can only deliver a 2x wall-time
    # win when the machine actually has cores to run them on.  On small
    # CI runners (< 4 cores) the batch engine still must not *lose* to
    # the sequential pass, but the 2x bar would be flaky or impossible.
    if cores >= 4:
        assert speedup >= 2.0
    else:
        assert speedup >= 1.0


def test_perf_streaming_sweep_100k(tmp_path, report):
    """Records-per-second gate for the streaming-sweep write path:
    100k sharded-world records upserted into the indexed sqlite store,
    one transaction per shard window, fresh database each round."""
    n_records = 100_000
    batch_size = 5_000
    best_seconds = None
    store = None
    for round_index in range(BENCH_ROUNDS):
        path = tmp_path / f"sweep-{round_index}.sqlite"
        store = SqliteDatasetStore(path, batch_size=batch_size)
        start = time.perf_counter()
        total = _sweep_records(store, n_records, seed=20211102)
        elapsed = time.perf_counter() - start
        assert total == n_records
        assert len(store) == n_records
        # The O(batch) witness: the buffer never held more than one
        # window of records, no matter how large the dataset got.
        assert store.resident_high_water <= batch_size
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
        if round_index != BENCH_ROUNDS - 1:
            store.close()
    rate = n_records / best_seconds
    _record(
        "streaming_sweep_100k",
        {
            "records": n_records,
            "batch_size": batch_size,
            "rounds": BENCH_ROUNDS,
            "best_seconds": round(best_seconds, 4),
            "records_per_sec": round(rate, 1),
            "resident_high_water": store.resident_high_water,
        },
    )
    report(
        "perf_streaming_sweep",
        render_table(
            ["Metric", "Value"],
            [
                ["records upserted", n_records],
                ["store batch size", batch_size],
                ["best wall time", f"{best_seconds:.2f}s"],
                ["throughput", f"{rate:.0f} records/s"],
                ["peak resident records", store.resident_high_water],
            ],
            title="Performance: streaming sweep into sqlite store",
        ),
    )
    store.close()
    # Conservative floor: the store sustains well over 20k records/s on
    # a development laptop; gate far below that to absorb CI noise while
    # still catching an accidental O(n) rewrite or per-record fsync.
    assert rate > 5_000


def test_perf_streaming_sweep_1m_resident(tmp_path, report):
    """Acceptance gate at the million-AS scale: a full streaming pass
    over 1M sharded records holds O(batch) records resident, and the
    indexed aggregates stay cheap afterwards."""
    n_records = 1_000_000
    batch_size = 10_000
    store = SqliteDatasetStore(tmp_path / "million.sqlite",
                               batch_size=batch_size)
    start = time.perf_counter()
    total = _sweep_records(store, n_records, seed=7)
    elapsed = time.perf_counter() - start
    assert total == n_records
    assert len(store) == n_records
    assert store.resident_high_water <= batch_size

    # Aggregates run as SQL over the indexes, never materializing the
    # dataset: they must answer in a small fraction of the write time.
    start = time.perf_counter()
    stages = store.stage_counts()
    histogram = store.category_histogram()
    coverage = store.coverage()
    aggregate_seconds = time.perf_counter() - start
    assert sum(stages.values()) == n_records
    assert histogram and 0.0 <= coverage <= 1.0

    rate = n_records / elapsed
    _record(
        "streaming_sweep_1m",
        {
            "records": n_records,
            "batch_size": batch_size,
            "seconds": round(elapsed, 4),
            "records_per_sec": round(rate, 1),
            "resident_high_water": store.resident_high_water,
            "aggregate_seconds": round(aggregate_seconds, 4),
        },
    )
    report(
        "perf_streaming_sweep_1m",
        render_table(
            ["Metric", "Value"],
            [
                ["records upserted", n_records],
                ["store batch size", batch_size],
                ["wall time", f"{elapsed:.2f}s"],
                ["throughput", f"{rate:.0f} records/s"],
                ["peak resident records", store.resident_high_water],
                ["SQL aggregates", f"{aggregate_seconds:.2f}s"],
            ],
            title="Performance: 1M-record streaming pass (O(batch) resident)",
        ),
    )
    store.close()
    assert rate > 5_000
    assert aggregate_seconds < elapsed
