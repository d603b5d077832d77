"""Which public functions the traced run wraps, and the per-layer
metrics and tables it derives from the spans.

Layer names are the program's modules: ``world``, ``ml``, ``whois``,
``datasources``, ``matching``, ``parallel`` (``core.parallel``),
``snapshots``, ``maintenance``, ``index`` and ``history``
(``serving.index``) and ``serving`` (``serving.app``).  Time that no
per-layer metric reads -- the rest of ``build_asdb`` and of the index
builders, the benchmark's code between calls -- is printed as
unattributed (see :data:`ATTRIBUTED`).
"""

from __future__ import annotations

import os
from typing import Dict

import repro.system
from repro.core.snapshots import SnapshotStore
from repro.matching.domains import DomainFrequencyIndex
from repro.ml.pipeline import WebClassificationPipeline
from repro.serving import HistoryIndex, ReadIndex

import spans

PHASE_KINDS = ("setup", "release", "cycle")

#: Per phase kind, the spans that the per-layer metrics of
#: :func:`per_layer` read.  Only time in these spans, or nested in them,
#: counts as a layer's.
ATTRIBUTED = {
    "setup": frozenset({
        "world.generate_world", "datasources.build_sources",
        "matching.frequency_index", "ml.training_examples", "ml.fit",
    }),
    "release": frozenset({
        "parallel.classify_batch", "whois.parsed", "whois.contact",
        "datasources.lookup_many", "matching.choose_domain",
        "matching.match_sources_many", "ml.classify_domains",
        "snapshots.save", "snapshots.load", "index.build", "history.build",
    }),
    "cycle": frozenset({
        "maintenance.sweep", "maintenance.forget",
        "parallel.classify_batch", "snapshots.save",
        "snapshots.deltas_since", "index.apply_delta", "history.extend",
        "serving.refresh",
    }),
}


def _saved_bytes(args, kwargs, info) -> int:
    store = args[0]
    names = [info.filename] + ([info.checkpoint] if info.checkpoint else [])
    return sum(os.path.getsize(os.path.join(store.root, name))
               for name in names)


def _chain_records(args, kwargs, chain) -> int:
    return sum(len(changed) + len(removed)
               for _, changed, removed in chain or ())


def _length(position: int):
    return lambda args, kwargs, result: len(args[position])


def install(tracer: spans.Tracer) -> None:
    """Wrap the class-level entry points (objects the program creates
    itself, or creates inside a call the benchmark makes)."""
    tracer.wrap(repro.system, "build_sources", "datasources.build_sources")
    tracer.wrap(DomainFrequencyIndex, "from_candidates",
                "matching.frequency_index")
    tracer.wrap(repro.system, "build_training_examples",
                "ml.training_examples")
    tracer.wrap(WebClassificationPipeline, "fit", "ml.fit")
    tracer.wrap(SnapshotStore, "save", "snapshots.save", _saved_bytes)
    tracer.wrap(SnapshotStore, "load", "snapshots.load")
    tracer.wrap(SnapshotStore, "deltas_since", "snapshots.deltas_since",
                _chain_records)
    tracer.wrap(ReadIndex, "build", "index.build")
    tracer.wrap(ReadIndex, "apply_delta", "index.apply_delta")
    tracer.wrap(HistoryIndex, "build", "history.build")
    tracer.wrap(HistoryIndex, "extend", "history.extend")


def instrumenter(tracer: spans.Tracer):
    """``instrument(kind, obj)`` callback for :func:`lifecycle.run`:
    wraps the public functions of each object the lifecycle builds."""

    def instrument(kind: str, obj) -> None:
        if kind == "world":
            tracer.wrap(obj.registry, "parsed", "whois.parsed")
            tracer.wrap(obj.registry, "contact", "whois.contact")
        elif kind == "built":
            for source in (obj.peeringdb, obj.ipinfo):
                tracer.wrap(source, "lookup_many", "datasources.lookup_many",
                            _length(0))
            tracer.wrap(obj.resolver, "choose_domain",
                        "matching.choose_domain")
            tracer.wrap(obj.resolver, "match_sources_many",
                        "matching.match_sources_many", _length(0))
            tracer.wrap(obj.ml_pipeline, "classify_domains",
                        "ml.classify_domains", _length(0))
            tracer.wrap(obj.asdb, "classify_batch",
                        "parallel.classify_batch")
            tracer.wrap(obj.asdb, "forget", "maintenance.forget")
        elif kind == "daemon":
            tracer.wrap(obj, "sweep", "maintenance.sweep",
                        lambda args, kwargs, report: report.reclassified)
        elif kind == "app":
            tracer.wrap(obj, "refresh", "serving.refresh")

    return instrument


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def _phase_spans(all_spans, kind: str):
    return [span for span in all_spans if span[6].startswith(kind + "-")]


def _total(members, name: str) -> float:
    return sum(span[3] - span[2] for span in members if span[1] == name)


def _count(members, name: str) -> int:
    return sum(span[7] for span in members if span[1] == name)


def per_layer(all_spans, result) -> Dict[str, float]:
    """The per-layer metrics of one traced run.  Times and counts are
    per phase instance: set-up and release figures per set-up/release,
    cycle figures per cycle, serving figures over all bursts."""
    setup = _phase_spans(all_spans, "setup")
    release = _phase_spans(all_spans, "release")
    cycle = _phase_spans(all_spans, "cycle")
    setups = max(1, len({span[6] for span in setup}))
    releases = max(1, len({span[6] for span in release}))
    cycles = max(1, len({span[6] for span in cycle}))
    selfs = spans.self_times(release)
    names = {span[0]: span[1] for span in all_spans}
    whois_outer = [
        span for span in release
        if span[1].startswith("whois.")
        and not names.get(span[4], "").startswith("whois.")
    ]
    refresh_ids = {span[0] for span in cycle
                   if span[1] == "index.refresh_incremental"}
    cache = result.cache_stats
    keyed = cache.hits + cache.misses
    feat_hits, feat_misses = result.featcache
    served = result.cache_hits + result.cache_misses
    handle_ms = (result.handler_seconds / result.handled * 1000.0
                 if result.handled else 0.0)
    client_ms = (sum(result.latencies) / len(result.latencies) * 1000.0
                 if result.latencies else 0.0)
    return {
        "world.generate_s": _total(setup, "world.generate_world") / setups,
        "datasources.build_s":
            _total(setup, "datasources.build_sources") / setups,
        "matching.frequency_index_s":
            _total(setup, "matching.frequency_index") / setups,
        "ml.training_examples_s":
            _total(setup, "ml.training_examples") / setups,
        "ml.fit_s": _total(setup, "ml.fit") / setups,
        "whois.parse_s":
            sum(span[3] - span[2] for span in whois_outer) / releases,
        "whois.calls": len(whois_outer) / releases,
        "cache.hit_share": cache.hits / keyed if keyed else 0.0,
        "cache.lookups": keyed + cache.none_keys,
        "datasources.asn_match_s":
            _total(release, "datasources.lookup_many") / releases,
        "datasources.queries":
            _count(release, "datasources.lookup_many") / releases,
        "matching.domain_choice_s":
            _total(release, "matching.choose_domain") / releases,
        "matching.source_match_s":
            _total(release, "matching.match_sources_many") / releases,
        "matching.contacts":
            _count(release, "matching.match_sources_many") / releases,
        "ml.classify_s": _total(release, "ml.classify_domains") / releases,
        "ml.domains": _count(release, "ml.classify_domains") / releases,
        "ml.featcache_hit_share":
            feat_hits / (feat_hits + feat_misses)
            if feat_hits + feat_misses else 0.0,
        "parallel.batch_s":
            _total(release, "parallel.classify_batch") / releases,
        "parallel.self_s": sum(
            selfs[span[0]] for span in release
            if span[1] == "parallel.classify_batch") / releases,
        "snapshots.save_full_s": _total(release, "snapshots.save") / releases,
        "snapshots.load_s": _total(release, "snapshots.load") / releases,
        "snapshots.save_delta_s": _total(cycle, "snapshots.save") / cycles,
        "snapshots.bytes_written": _count(cycle, "snapshots.save") / cycles,
        "snapshots.deltas_since_s":
            _total(cycle, "snapshots.deltas_since") / cycles,
        "maintenance.sweep_s": _total(cycle, "maintenance.sweep") / cycles,
        "maintenance.purge_s": _total(cycle, "maintenance.forget") / cycles,
        "maintenance.classify_s":
            _total(cycle, "parallel.classify_batch") / cycles,
        "maintenance.reclassified":
            _count(cycle, "maintenance.sweep") / cycles,
        "index.build_s": _total(release, "index.build") / releases,
        "index.apply_delta_s": _total(cycle, "index.apply_delta") / cycles,
        "index.delta_records": sum(
            span[7] for span in cycle
            if span[1] == "snapshots.deltas_since"
            and span[4] in refresh_ids) / cycles,
        "history.build_s": _total(release, "history.build") / releases,
        "history.extend_s": _total(cycle, "history.extend") / cycles,
        "serving.refresh_s": _total(cycle, "serving.refresh") / cycles,
        "serving.refresh_incremental_share": result.refresh_incremental
            / (result.workload.cycles * len(result.lifecycles)),
        "serving.handle_mean_ms": handle_ms,
        "serving.response_cache_hit_share":
            result.cache_hits / served if served else 0.0,
        "serving.requests": result.handled,
        "serving.failed": result.request_failures,
        "serving.outside_handler_ms": client_ms - handle_ms,
        "loadgen.busy_share":
            result.client_cpu_seconds / result.burst_seconds
            if result.burst_seconds else 0.0,
    }


#: A phase instance fails the check when more of its wall time than
#: this is unattributed.
MAX_UNATTRIBUTED = 0.10


def report(all_spans, result) -> bool:
    """Print the per-phase tables; returns whether every phase
    instance's unattributed time stays within
    :data:`MAX_UNATTRIBUTED` of its wall time."""
    tables = spans.phase_report(all_spans, ATTRIBUTED)
    ok = True
    for kind in PHASE_KINDS:
        entry = tables.get(kind)
        if entry is None:
            continue
        instances = entry["instances"]
        wall = sum(item[1] for item in instances)
        worst = max(instances, key=lambda item: item[2])
        ok = ok and worst[2] <= MAX_UNATTRIBUTED
        print(f"\nphase {kind}: {len(instances)} instance(s), "
              f"{wall:.3f} s wall; unattributed <= {worst[2]:.1%} of every "
              f"instance (highest: {worst[0]})")
        print(f"  {'layer':<40} {'calls':>8} {'total s':>9} "
              f"{'self s':>9} {'wall share':>10}")
        rows = sorted(entry["rows"].items(),
                      key=lambda item: -item[1]["wall_s"])
        for name, row in rows:
            print(f"  {name:<40} {row['calls']:>8d} {row['total_s']:>9.3f} "
                  f"{row['self_s']:>9.3f} {row['wall_s'] / wall:>10.1%}")
    burst_wall = sum(span[3] - span[2] for span in all_spans
                     if span[1] == "phase.burst")
    handler = result.handler_seconds
    loop = max(0.0, result.server_cpu_seconds - handler)
    idle = burst_wall - handler - loop
    print(f"\nphase burst: {result.bursts} instance(s), "
          f"{burst_wall:.3f} s wall (server side; idle is the remainder)")
    print(f"  {'layer':<40} {'requests':>8} {'s':>9} {'wall share':>10}")
    for name, seconds in (("serving.handle", handler),
                          ("event loop + socket", loop),
                          ("server idle", idle)):
        print(f"  {name:<40} {result.handled:>8d} {seconds:>9.3f} "
              f"{seconds / burst_wall if burst_wall else 0.0:>10.1%}")
    return ok
