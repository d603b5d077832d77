"""The parallel batch classification engine.

:func:`run_batch` classifies many ASes through the same Figure-4 stage
logic as the sequential pipeline, restructured for throughput:

1. **Cluster planning** (:func:`plan_clusters`) — ASNs are grouped into
   *organization-sibling clusters* by their pre-domain cache key (the
   normalized-name key the pipeline's cache stage reads).  The lowest
   ASN of each cluster is its *leader*; siblings ride the cache entry
   the leader writes, so each organization is classified exactly once
   per batch.  ASes with no usable name key form singleton clusters, as
   does everything when caching is disabled.
2. **Leader fan-out** — every leader's stage generator
   (:meth:`~repro.core.pipeline.ASdb._classify_steps`) is advanced on a
   ``ThreadPoolExecutor``.  Whenever generators suspend on an external
   request, the engine serves each request kind through the bulk
   endpoints: PeeringDB/IPinfo ``lookup_many`` for the ASN-match stage,
   ``WebClassificationPipeline.classify_domains`` for the ML stage, and
   ``EntityResolver.match_sources_many`` for the source-match stage.
3. **Sibling pass** — after the leaders (and their cache writes)
   finish, each cluster's remaining members run the scalar per-AS pass
   as an in-order chain on the pool (chains of different clusters in
   parallel); almost all of them resolve from the now-warm cache.
4. **Deterministic merge** — records are returned in ascending ASN
   order and the caller merges them into the dataset.

Determinism argument (why batch output is byte-identical to the
sequential ascending-ASN pass):

* The pipeline's cache *reads* use only the pre-domain name key, and
  clusters partition ASNs by exactly that key — so no AS ever reads a
  cache entry written by another cluster.  (Name keys and domain keys
  live in disjoint ``name:`` / ``domain:`` namespaces, so cross-cluster
  domain-key writes cannot be read as some other cluster's name key.)
* Within a cluster, members run strictly in ascending order — leader
  first, then the sibling chain — because cache state evolves member
  by member: a leader whose classification comes back empty writes no
  entry, and a *later* member may be the one that populates the key
  its successors hit, exactly as in the sequential pass.
* Every external call is deterministic per query (sources derive
  per-query RNGs from the query content; scraping, translation, and
  the ML transforms are pure functions of their input), and every bulk
  endpoint is contractually elementwise identical to its scalar
  counterpart.
* The dataset orders records by ASN, so merge order cannot leak
  thread scheduling into the output.

Tracing caveat: with ``trace=True``, span *contents* (statuses, noted
attributes) are unchanged, but span durations around batched stages
measure time-to-resume rather than per-AS work — batch traces are for
decisions, not for per-stage timing.  On batch runs per-stage timing
comes from the run ledger instead: the ``batch.asn_match``,
``batch.ml`` and ``batch.source_match`` spans time each bulk call and
note how many queries, domains or contacts it served.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..datasources.base import Query
from ..obs.trace import trace_builder
from .cache import org_cache_key
from .database import ASdbRecord
from .pipeline import REQUEST_ASN_MATCH, REQUEST_ML, REQUEST_SOURCES

__all__ = ["Cluster", "plan_clusters", "run_batch"]


@dataclass(frozen=True)
class Cluster:
    """One organization-sibling cluster in a batch plan.

    Attributes:
        key: The shared pre-domain cache key (None for keyless
            singletons).
        members: The cluster's ASNs, ascending; ``members[0]`` is the
            leader that runs the full pipeline.
    """

    key: Optional[str]
    members: Tuple[int, ...]

    @property
    def leader(self) -> int:
        """The ASN classified first (lowest in the cluster)."""
        return self.members[0]


def plan_clusters(
    registry,
    asns: Optional[Sequence[int]] = None,
    group_siblings: bool = True,
) -> List[Cluster]:
    """Group ``asns`` (default: the whole registry, ascending) into
    organization-sibling clusters keyed by the pre-domain cache key.

    ASes whose contact yields no key are never cached, so they become
    singleton clusters; with ``group_siblings=False`` (cache disabled)
    everything does.  Clusters are ordered by leader ASN.
    """
    ordered = sorted(registry.asns() if asns is None else asns)
    if not group_siblings:
        return [Cluster(key=None, members=(asn,)) for asn in ordered]
    by_key: Dict[str, List[int]] = {}
    clusters: List[Cluster] = []
    for asn in ordered:
        key = org_cache_key(registry.contact(asn), domain=None)
        if key is None:
            clusters.append(Cluster(key=None, members=(asn,)))
        else:
            by_key.setdefault(key, []).append(asn)
    clusters.extend(
        Cluster(key=key, members=tuple(members))
        for key, members in by_key.items()
    )
    clusters.sort(key=lambda cluster: cluster.leader)
    return clusters


class _LeaderState:
    """One in-flight leader: its stage generator plus bookkeeping."""

    __slots__ = (
        "asn", "gen", "tb", "request", "record", "active_seconds",
        "runlog", "parent_id",
    )

    def __init__(self, asn: int, gen, tb, runlog, parent_id) -> None:
        self.asn = asn
        self.gen = gen
        self.tb = tb
        self.request: Optional[Tuple] = None
        self.record: Optional[ASdbRecord] = None
        self.active_seconds = 0.0
        self.runlog = runlog
        self.parent_id = parent_id

    def advance(self, reply: object = None) -> None:
        """Resume the generator until its next request (or its return).

        Runs on a pool thread; when the generator returns, the leader's
        accumulated active time is written as a ``batch.leader`` ledger
        span from that thread, so the ledger's causal tree shows which
        thread classified which organization.
        """
        start = time.perf_counter()
        try:
            if reply is None:
                self.request = next(self.gen)
            else:
                self.request = self.gen.send(reply)
        except StopIteration as stop:
            self.request = None
            self.record = stop.value
            self.runlog.emit_span(
                "batch.leader",
                self.active_seconds + (time.perf_counter() - start),
                parent=self.parent_id,
                status="ok",
                attributes={"asn": self.asn},
            )
        finally:
            self.active_seconds += time.perf_counter() - start


def run_batch(
    asdb,
    asns: Optional[Sequence[int]] = None,
    workers: int = 1,
) -> List[ASdbRecord]:
    """Classify ``asns`` through the cluster/batch engine; records are
    returned in ascending ASN order (the caller merges them).

    ``asdb`` is the :class:`~repro.core.pipeline.ASdb` instance; the
    engine is a core-package friend and drives its private stage
    generator directly.
    """
    workers = max(1, workers)
    metrics = asdb.metrics
    m_workers = metrics.gauge(
        "asdb_batch_workers", "Worker threads of the last batch run."
    )
    m_asns = metrics.gauge(
        "asdb_batch_asns", "ASNs in the last batch run."
    )
    m_clusters = metrics.gauge(
        "asdb_batch_clusters",
        "Organization clusters in the last batch run.",
    )
    m_cluster_size = metrics.histogram(
        "asdb_batch_cluster_size",
        "ASes per organization cluster.",
        buckets=(1, 2, 3, 5, 10, 25, 100),
    )
    m_phase_seconds = metrics.histogram(
        "asdb_batch_seconds",
        "Batch engine wall time per phase.",
        ("phase",),
    )

    clusters = plan_clusters(
        asdb._registry, asns=asns, group_siblings=asdb._use_cache
    )
    m_workers.set(workers)
    m_asns.set(sum(len(cluster.members) for cluster in clusters))
    m_clusters.set(len(clusters))
    for cluster in clusters:
        m_cluster_size.observe(len(cluster.members))

    # An empty batch (e.g. a maintenance sweep over an unchanged
    # registry) needs no thread pool.
    if not clusters:
        return []

    runlog = asdb.runlog
    records: List[ASdbRecord] = []
    with runlog.span("classify_batch") as batch_span:
        batch_span.note(
            workers=workers,
            asns=sum(len(cluster.members) for cluster in clusters),
            clusters=len(clusters),
        )
        batch_id = batch_span.span_id
        with ThreadPoolExecutor(max_workers=workers) as pool:
            leaders = [
                _LeaderState(
                    cluster.leader,
                    asdb._classify_steps(
                        cluster.leader,
                        tb := (
                            trace_builder(
                                cluster.leader,
                                asdb._trace_enabled,
                                tags=asdb._trace_tags,
                            )
                            if asdb._trace_tags
                            else trace_builder(
                                cluster.leader, asdb._trace_enabled
                            )
                        ),
                    ),
                    tb,
                    runlog=runlog,
                    parent_id=batch_id,
                )
                for cluster in clusters
            ]

            try:
                # Phase: leader fronts (cache probe, WHOIS parse) on the
                # pool.
                with m_phase_seconds.time(phase="front"), \
                        runlog.span("batch.front", parent=batch_id):
                    list(pool.map(_LeaderState.advance, leaders))

                # Phases: serve suspended requests through the bulk
                # endpoints until every leader generator has returned.
                pending = [
                    state for state in leaders if state.request is not None
                ]
                while pending:
                    _serve_round(
                        asdb, pool, pending, m_phase_seconds, runlog,
                        batch_id,
                    )
                    pending = [
                        state for state in pending
                        if state.request is not None
                    ]
            except BaseException as exc:
                for state in leaders:
                    if state.record is None:
                        state.tb.fail(f"{type(exc).__name__}: {exc}")
                raise
            finally:
                # A bulk call that raised leaves other leaders suspended
                # mid-stage; closing their generators unwinds the open
                # ``tb.span`` blocks so no span (or half-mutated cache
                # write) leaks past the failed batch.
                for state in leaders:
                    if state.record is None:
                        state.gen.close()

            for state in leaders:
                records.append(_finalize_leader(asdb, state))

            # Phase: organization siblings ride the leaders' cache
            # entries (scalar per-AS pass; nearly all are cache hits).
            # Members of one cluster run as an in-order chain on a
            # single worker: a leader with an empty classification
            # writes no cache entry, so a *later* member may be the one
            # that populates the key its successors hit — exactly as in
            # the sequential pass.  Chains of different clusters never
            # share a name key, so they are free to run concurrently.
            with m_phase_seconds.time(phase="siblings"), \
                    runlog.span("batch.siblings", parent=batch_id):
                chains = [
                    cluster.members[1:]
                    for cluster in clusters
                    if len(cluster.members) > 1
                ]
                for chain in pool.map(
                    _classify_chain,
                    [asdb] * len(chains),
                    chains,
                    [batch_id] * len(chains),
                ):
                    records.extend(chain)

    records.sort(key=lambda record: record.asn)
    return records


def _classify_chain(
    asdb, members: Sequence[int], parent_id=None
) -> List[ASdbRecord]:
    """Classify one cluster's non-leader members, in ascending order.

    Runs on a pool thread; with a ledger configured the chain writes a
    ``batch.chain`` span from that thread.
    """
    start = time.perf_counter()
    chain = [asdb._classify_one(asn) for asn in members]
    asdb.runlog.emit_span(
        "batch.chain",
        time.perf_counter() - start,
        parent=parent_id,
        status="ok",
        attributes={"members": len(members)},
    )
    return chain


def _serve_round(
    asdb, pool, pending, m_phase_seconds, runlog, parent_id,
) -> None:
    """Serve one round of suspended requests, one bulk call per kind.

    With a ledger configured, each bulk phase writes a
    ``batch.<phase>`` span under the batch span.
    """
    by_kind: Dict[str, List] = {}
    for state in pending:
        by_kind.setdefault(state.request[0], []).append(state)

    replies: List[Tuple] = []  # (state, reply)

    waiting = by_kind.get(REQUEST_ASN_MATCH, ())
    if waiting:
        with m_phase_seconds.time(phase="asn_match"), \
                runlog.span("batch.asn_match", parent=parent_id) as span:
            span.note(queries=len(waiting))
            queries = [Query(asn=state.request[1]) for state in waiting]
            replies.extend(zip(waiting, _asn_lookup_many(asdb, queries)))

    waiting = by_kind.get(REQUEST_ML, ())
    if waiting:
        with m_phase_seconds.time(phase="ml"), \
                runlog.span("batch.ml", parent=parent_id) as span:
            span.note(domains=len(waiting))
            verdicts = asdb._ml.classify_domains(
                [state.request[1] for state in waiting]
            )
            replies.extend(zip(waiting, verdicts))

    waiting = by_kind.get(REQUEST_SOURCES, ())
    if waiting:
        with m_phase_seconds.time(phase="source_match"), \
                runlog.span("batch.source_match", parent=parent_id) as span:
            span.note(contacts=len(waiting))
            resolved = asdb._resolver.match_sources_many(
                [(state.request[1], state.request[2]) for state in waiting]
            )
            replies.extend(zip(waiting, resolved))

    with m_phase_seconds.time(phase="resume"):
        list(pool.map(
            lambda pair: pair[0].advance(pair[1]), replies
        ))


def _asn_lookup_many(asdb, queries: Sequence[Query]) -> List[Tuple]:
    """Bulk form of the scalar driver's stage-1 reply: one
    ``(peeringdb, ipinfo, degraded names)`` triple per query,
    elementwise identical to :meth:`~repro.core.pipeline.ASdb._asn_lookup`.
    """
    per_source: List[List[Tuple]] = []
    for source in (asdb._peeringdb, asdb._ipinfo):
        if hasattr(source, "try_lookup_many"):
            per_source.append([
                (outcome.match, outcome.failed)
                for outcome in source.try_lookup_many(queries)
            ])
        else:
            per_source.append([
                (match, False) for match in source.lookup_many(queries)
            ])
    replies: List[Tuple] = []
    for (pdb_match, pdb_failed), (ip_match, ip_failed) in zip(*per_source):
        degraded: List[str] = []
        if pdb_failed:
            degraded.append(asdb._peeringdb.name)
        if ip_failed:
            degraded.append(asdb._ipinfo.name)
        replies.append((pdb_match, ip_match, tuple(degraded)))
    return replies


def _finalize_leader(asdb, state: _LeaderState) -> ASdbRecord:
    """The scalar driver's per-AS epilogue, for a batch-driven leader."""
    record = state.record
    asdb._m_classify_seconds.observe(state.active_seconds)
    asdb._m_stage_total.inc(1, stage=record.stage.value)
    trace = state.tb.finish()
    if trace is not None:
        record = replace(record, trace=trace)
    return record
