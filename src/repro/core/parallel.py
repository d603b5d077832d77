"""The classification engine: the one driver of the Figure-4 stages.

:func:`run_batch` classifies ASes through
:meth:`~repro.core.pipeline.ASdb._classify_steps`, the per-AS stage
generator, and is its only driver: :meth:`ASdb.classify` runs a
one-ASN batch, and :meth:`ASdb.classify_all` and
:meth:`ASdb.classify_batch` run the registry (or the given ASNs).

1. **Cluster planning** (:func:`plan_clusters`) — ASNs are grouped into
   *organization-sibling clusters* by their pre-domain cache key (the
   normalized-name key the pipeline's cache stage reads).  ASes with no
   usable name key form singleton clusters, as does everything when
   caching is disabled.
2. **Chains** — each cluster is one *chain* that classifies its members
   in ascending order.  A chain holds the generator of its current
   member; when that member returns, the next one starts at once, so a
   sibling that hits the cache entry its predecessor wrote finishes in
   the same step, and one that misses suspends on its first request.
3. **Bulk rounds** — every chain is advanced to its first request (the
   ``front`` phase); then, until every chain is done, the suspended
   requests are served one bulk call per kind — PeeringDB/IPinfo
   ``lookup_many`` for the ASN-match stage,
   ``WebClassificationPipeline.classify_domains`` for the ML stage and
   ``EntityResolver.match_sources_many`` for the source-match stage —
   and the chains resume with their answers.  Chains advance on a
   ``ThreadPoolExecutor`` of ``workers`` threads, or inline on the
   calling thread when there is one worker or one chain.  Every bulk
   call runs on the calling thread, in chain order.
4. **Deterministic merge** — records are returned in ascending ASN
   order and the caller merges them into the dataset.

Determinism argument (why the output does not depend on ``workers``,
and equals the ascending-ASN pass that classifies one AS at a time):

* The pipeline's cache *reads* use only the pre-domain name key, and
  clusters partition ASNs by exactly that key — so no AS ever reads a
  cache entry written by another cluster.  (Name keys and domain keys
  live in disjoint ``name:`` / ``domain:`` namespaces, so cross-cluster
  domain-key writes cannot be read as some other cluster's name key.)
* Within a chain, members run strictly in ascending order, because
  cache state evolves member by member: a member whose classification
  comes back empty writes no entry, and a *later* member may be the one
  that populates the key its successors hit, exactly as in the
  one-at-a-time pass.
* Every external call is deterministic per query (sources derive
  per-query RNGs from the query content; scraping, translation, and
  the ML transforms are pure functions of their input), and every bulk
  endpoint is contractually elementwise identical to its scalar
  counterpart.
* Source calls happen only in the bulk rounds, so every worker count
  makes the same calls in the same order: a circuit breaker sees one
  call sequence whatever ``workers`` is.
* The dataset orders records by ASN, so merge order cannot leak
  thread scheduling into the output.

Tracing caveat: with ``trace=True``, span *contents* (statuses, noted
attributes) are exact, but span durations around the served stages
measure time-to-resume rather than per-AS work — for any batch of more
than one AS, whatever the worker count.  ``asdb_classify_seconds``
observes each AS's active time: the time its generator ran, without
the bulk calls.  Per-stage timing comes from the run ledger instead:
the ``batch.asn_match``, ``batch.ml`` and ``batch.source_match`` spans
time each bulk call and note how many queries, domains or contacts it
served, and one ``batch.chain`` span per cluster carries the chain's
active time.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..datasources.base import Query, lookup_outcomes
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
            leader, classified first.
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


class _Chain:
    """One cluster in flight: the current member's stage generator,
    trace builder and pending request, the finished members' records,
    and the active time of the member and of the chain."""

    __slots__ = (
        "asdb", "members", "gen", "tb", "request", "records",
        "member_seconds", "chain_seconds", "parent_id",
    )

    def __init__(self, asdb, members: Tuple[int, ...], parent_id) -> None:
        self.asdb = asdb
        self.members = members
        self.gen = None
        self.tb = None
        self.request: Optional[Tuple] = None
        self.records: List[ASdbRecord] = []
        self.member_seconds = 0.0
        self.chain_seconds = 0.0
        self.parent_id = parent_id

    def advance(self, reply: object = None) -> None:
        """Run the chain until its current member suspends on a request
        (left in :attr:`request`) or its last member returns.

        Each member that returns is finished here and the next one
        starts in the same call.  The last member's return writes one
        ``batch.chain`` ledger span, from the thread that ran it, with
        the chain's active time.
        """
        mark = time.perf_counter()
        try:
            while True:
                try:
                    if self.gen is None:
                        self._start(self.members[len(self.records)])
                        self.request = next(self.gen)
                    else:
                        self.request = self.gen.send(reply)
                    return
                except StopIteration as stop:
                    now = time.perf_counter()
                    self._finish(stop.value, self.member_seconds + now - mark)
                    mark = now
                if len(self.records) == len(self.members):
                    self.request = None
                    self.asdb.runlog.emit_span(
                        "batch.chain",
                        self.chain_seconds,
                        parent=self.parent_id,
                        status="ok",
                        attributes={
                            "asn": self.members[0],
                            "members": len(self.members),
                        },
                    )
                    return
        finally:
            self.member_seconds += time.perf_counter() - mark

    def _start(self, asn: int) -> None:
        asdb = self.asdb
        self.tb = (
            trace_builder(asn, asdb._trace_enabled, tags=asdb._trace_tags)
            if asdb._trace_tags
            else trace_builder(asn, asdb._trace_enabled)
        )
        self.gen = asdb._classify_steps(asn, self.tb)

    def _finish(self, record: ASdbRecord, seconds: float) -> None:
        """Close out the member that returned ``record`` after
        ``seconds`` of active time: meter it and attach its trace."""
        asdb = self.asdb
        asdb._m_classify_seconds.observe(seconds)
        asdb._m_stage_total.inc(1, stage=record.stage.value)
        trace = self.tb.finish()
        if trace is not None:
            record = replace(record, trace=trace)
        self.records.append(record)
        self.chain_seconds += seconds
        self.member_seconds = 0.0
        self.gen = self.tb = None


def run_batch(
    asdb,
    asns: Optional[Sequence[int]] = None,
    workers: int = 1,
) -> List[ASdbRecord]:
    """Classify ``asns`` (default: the whole registry); records are
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
    # registry) has nothing to drive.
    if not clusters:
        return []

    runlog = asdb.runlog
    with runlog.span("classify_batch") as batch_span:
        batch_span.note(
            workers=workers,
            asns=sum(len(cluster.members) for cluster in clusters),
            clusters=len(clusters),
        )
        batch_id = batch_span.span_id
        chains = [
            _Chain(asdb, cluster.members, batch_id) for cluster in clusters
        ]
        # One worker or one chain runs inline: a pool would only add
        # thread starts.
        pool = (
            ThreadPoolExecutor(max_workers=workers)
            if workers > 1 and len(chains) > 1
            else None
        )
        run = map if pool is None else pool.map
        try:
            with m_phase_seconds.time(phase="front"), \
                    runlog.span("batch.front", parent=batch_id):
                list(run(_Chain.advance, chains))

            # Serve suspended requests through the bulk endpoints until
            # every chain is done.
            pending = [chain for chain in chains if chain.request is not None]
            while pending:
                _serve_round(
                    asdb, run, pending, m_phase_seconds, runlog, batch_id
                )
                pending = [
                    chain for chain in pending if chain.request is not None
                ]
        except BaseException as exc:
            for chain in chains:
                if chain.gen is not None:
                    chain.tb.fail(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if pool is not None:
                pool.shutdown()
            # A bulk call that raised leaves other members suspended
            # mid-stage; closing their generators unwinds the open
            # ``tb.span`` blocks so no span (or half-mutated cache
            # write) leaks past the failed batch.
            for chain in chains:
                if chain.gen is not None:
                    chain.gen.close()

    records = [record for chain in chains for record in chain.records]
    records.sort(key=lambda record: record.asn)
    return records


def _serve_round(
    asdb, run, pending, m_phase_seconds, runlog, parent_id,
) -> None:
    """Serve one round of suspended requests, one bulk call per kind,
    then resume every served chain through ``run`` (``map`` or the
    pool's).

    With a ledger configured, each bulk phase writes a
    ``batch.<phase>`` span under the batch span.
    """
    by_kind: Dict[str, List[_Chain]] = {}
    for chain in pending:
        by_kind.setdefault(chain.request[0], []).append(chain)

    served: List[_Chain] = []
    replies: List[object] = []

    waiting = by_kind.get(REQUEST_ASN_MATCH, ())
    if waiting:
        with m_phase_seconds.time(phase="asn_match"), \
                runlog.span("batch.asn_match", parent=parent_id) as span:
            span.note(queries=len(waiting))
            queries = [Query(asn=chain.request[1]) for chain in waiting]
            served.extend(waiting)
            replies.extend(_asn_lookup_many(asdb, queries))

    waiting = by_kind.get(REQUEST_ML, ())
    if waiting:
        with m_phase_seconds.time(phase="ml"), \
                runlog.span("batch.ml", parent=parent_id) as span:
            span.note(domains=len(waiting))
            served.extend(waiting)
            replies.extend(asdb._ml.classify_domains(
                [chain.request[1] for chain in waiting]
            ))

    waiting = by_kind.get(REQUEST_SOURCES, ())
    if waiting:
        with m_phase_seconds.time(phase="source_match"), \
                runlog.span("batch.source_match", parent=parent_id) as span:
            span.note(contacts=len(waiting))
            served.extend(waiting)
            replies.extend(asdb._resolver.match_sources_many(
                [(chain.request[1], chain.request[2]) for chain in waiting]
            ))

    with m_phase_seconds.time(phase="resume"):
        list(run(_Chain.advance, served, replies))


def _asn_lookup_many(asdb, queries: Sequence[Query]) -> List[Tuple]:
    """Stage 1's reply for each query: ``(peeringdb match, ipinfo
    match, names of the sources that failed it)``."""
    sources = (asdb._peeringdb, asdb._ipinfo)
    replies: List[Tuple] = []
    for (pdb_match, pdb_failed), (ip_match, ip_failed) in zip(
        *(lookup_outcomes(source, queries) for source in sources)
    ):
        degraded = tuple(
            source.name
            for source, failed in zip(sources, (pdb_failed, ip_failed))
            if failed
        )
        replies.append((pdb_match, ip_match, degraded))
    return replies
