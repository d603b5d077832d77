"""Ablation: the organization cache (Figure 4's first stage).

Sibling ASes of an already-classified organization are answered from
cache; this bench measures the hit rate and verifies cached answers agree
with fresh ones.
"""

import time

from repro import SystemConfig, build_asdb
from repro.core import Stage
from repro.reporting import render_table


def test_ablation_cache(benchmark, bench_world, gold_standard, report):
    held_out = tuple(gold_standard.asns())

    def _classify(use_cache):
        built = build_asdb(
            bench_world,
            SystemConfig(
                seed=7,
                exclude_asns_from_training=held_out,
                use_cache=use_cache,
            ),
        )
        start = time.perf_counter()
        dataset = built.asdb.classify_all()
        elapsed = time.perf_counter() - start
        return built, dataset, elapsed

    def _run():
        with_cache = _classify(True)
        without_cache = _classify(False)
        return with_cache, without_cache

    (built_c, dataset_c, time_c), (built_n, dataset_n, time_n) = (
        benchmark.pedantic(_run, rounds=1, iterations=1)
    )

    cached_count = dataset_c.stage_counts().get(Stage.CACHED, 0)

    def sibling_consistency(dataset):
        """Fraction of multi-AS organizations whose classified ASes all
        carry identical labels."""
        consistent = total = 0
        for org_id in sorted(bench_world.organizations):
            asns = bench_world.asns_of_org(org_id)
            if len(asns) < 2:
                continue
            labels = [
                dataset.get(asn).labels
                for asn in asns
                if dataset.get(asn) and dataset.get(asn).classified
            ]
            if len(labels) < 2:
                continue
            total += 1
            consistent += all(l == labels[0] for l in labels)
        return consistent / total if total else 1.0

    consistency_c = sibling_consistency(dataset_c)
    consistency_n = sibling_consistency(dataset_n)

    rows = [
        ["cached answers", cached_count,
         f"{cached_count / len(dataset_c):.1%} of ASes"],
        ["cache hit rate", f"{built_c.asdb.cache.hit_rate:.1%}", ""],
        ["sibling consistency (cache)", f"{consistency_c:.1%}",
         "same org => same labels"],
        ["sibling consistency (no cache)", f"{consistency_n:.1%}",
         "per-AS WHOIS variance shows"],
    ]
    table = render_table(
        ["Metric", "Value", "Note"],
        rows,
        title="Ablation: organization cache",
    )
    report("ablation_cache", table)

    assert cached_count > 0
    # The cache's purpose: one organization, one classification.  Without
    # it, per-AS WHOIS variance fragments the answers.
    assert consistency_c >= consistency_n
    assert consistency_c >= 0.90
    # Caching never slows the system down materially (generous band:
    # wall-clock under a loaded benchmark session is noisy).
    assert time_c <= time_n * 1.5
