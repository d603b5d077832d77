"""The ASdb system (Figure 4): classify the owner of every AS.

Pipeline per AS, upon receipt of WHOIS data:

1. **Org cache** - if the owning organization was already classified
   (e.g. via a sibling AS), return the cached classification.
2. **Match by ASN** - query PeeringDB and IPinfo.  Only a PeeringDB ISP
   label counts as a high-confidence match; it is translated, stored, and
   returned immediately.
3. **Pick most likely domain** - pool WHOIS candidate domains with the
   ASN-keyed sources' domain hints and run the Figure-4 extraction
   algorithm (top-10 mail providers removed, common domains filtered,
   most-similar selection).
4. **ML classification** - feed the chosen domain to the Section-4.1
   scrape/translate/TF-IDF/SGD pipeline (ISP and hosting flags).
5. **Match to data sources** - D&B, Crunchbase, and Zvelo by name,
   domain, and address; matches contradicting the chosen domain are
   rejected.
6. **Consensus** - union of agreeing sources, else the accuracy-ranked
   auto-choose heuristic; the ML verdict wins unless at least two
   agreeing sources contradict it.

Observability: pass a :class:`~repro.obs.MetricsRegistry` to meter every
stage (latency histograms, stage counters, cache hit rate, per-source
lookup outcomes), and ``trace=True`` to attach a per-AS
:class:`~repro.obs.ClassificationTrace` (one span per stage above) to
each :class:`ASdbRecord`.  With neither configured the pipeline runs
exactly as before.

Execution: the stage sequence is a generator
(:meth:`ASdb._classify_steps`) that *yields* each external request (ASN
lookups, ML verdict, source matches) and is resumed with the answer.
Its one driver is :func:`repro.core.parallel.run_batch`, which groups
organization siblings into in-order chains and serves the requests of
all suspended chains through the bulk endpoints.  :meth:`ASdb.classify`
runs a one-ASN batch, :meth:`ASdb.classify_all` and
:meth:`ASdb.classify_batch` the registry or the given ASNs; the output
is byte-identical to classifying the same ASNs one at a time in
ascending order, at any worker count.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..datasources.base import DataSource, SourceMatch
from ..matching.resolver import EntityResolver
from ..ml.pipeline import ClassifierVerdict, WebClassificationPipeline
from ..obs.instrument import instrument_source
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..obs.runlog import NULL_RUNLOG
from ..taxonomy import Label, LabelSet
from ..whois.registry import WhoisRegistry
from .cache import OrganizationCache, org_cache_key
from .consensus import ConsensusResult, resolve_consensus
from .database import ASdbDataset, ASdbRecord
from .stages import Stage

__all__ = ["ASdb"]

ConsensusStrategy = Callable[[Dict[str, SourceMatch]], ConsensusResult]

#: Request kinds yielded by :meth:`ASdb._classify_steps` (the contract
#: between the stage generator and its driver).
REQUEST_ASN_MATCH = "asn_match"
REQUEST_ML = "ml"
REQUEST_SOURCES = "sources"


class ASdb:
    """The deployed classification system over pluggable components.

    Args:
        registry: Bulk WHOIS registry (raw text; parsing happens inside).
        resolver: Entity resolver for domain choice + source matching.
        peeringdb: The PeeringDB source (stage 2's high-confidence check).
        ipinfo: The IPinfo source (classification + domain hints).
        ml_pipeline: Trained web classification pipeline, or None to run
            without the ML stage (ablation).
        consensus_strategy: Consensus function (ablation knob; defaults to
            the paper's union-on-overlap + accuracy-ranked fallback).
        use_cache: Organization-level caching (ablation knob).
        metrics: Metrics registry to emit counters/histograms into
            (None = no-op instruments, zero behavior change).
        trace: Attach a per-stage span trace to every record.
        workers: Default worker count for :meth:`classify_all`.
        runlog: Optional :class:`~repro.obs.runlog.RunLog` event ledger;
            every classification emits an ``as.trace`` event (when
            tracing is on) and the batch engine emits phase/worker
            spans into it.  None = the inert :data:`NULL_RUNLOG`.
    """

    def __init__(
        self,
        registry: WhoisRegistry,
        resolver: EntityResolver,
        peeringdb: DataSource,
        ipinfo: DataSource,
        ml_pipeline: Optional[WebClassificationPipeline] = None,
        consensus_strategy: ConsensusStrategy = resolve_consensus,
        use_cache: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        trace: bool = False,
        workers: int = 1,
        runlog=None,
    ) -> None:
        self._registry = registry
        self._resolver = resolver
        self._peeringdb = instrument_source(peeringdb, metrics)
        self._ipinfo = instrument_source(ipinfo, metrics)
        self._ml = ml_pipeline
        self._consensus = consensus_strategy
        self._use_cache = use_cache
        self._trace_enabled = trace
        self._workers = max(1, workers)
        self.runlog = runlog if runlog is not None else NULL_RUNLOG
        self._trace_tags: Dict[str, object] = {}
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.cache: OrganizationCache[ASdbRecord] = OrganizationCache()
        self.dataset = ASdbDataset()

        self._m_classify_seconds = self.metrics.histogram(
            "asdb_classify_seconds",
            "End-to-end classification latency per AS.",
        )
        self._m_stage_total = self.metrics.counter(
            "asdb_stage_total",
            "Classified records by producing pipeline stage.",
            ("stage",),
        )
        for stage in Stage:
            self._m_stage_total.inc(0, stage=stage.value)
        self._m_cache_lookups = self.metrics.counter(
            "asdb_cache_lookups_total",
            "Organization-cache lookups by outcome.",
            ("outcome",),
        )
        for outcome in ("hit", "miss", "none_key"):
            self._m_cache_lookups.inc(0, outcome=outcome)
        self._m_cache_hit_rate = self.metrics.gauge(
            "asdb_cache_hit_rate",
            "Organization-cache hit rate over keyed lookups.",
        )

    # -- public API ---------------------------------------------------------

    def classify(self, asn: int) -> ASdbRecord:
        """Classify one AS, updating the dataset and cache.

        A one-ASN batch; unlike :meth:`classify_batch` it does not
        flush a store-backed dataset, so a loop of calls keeps the
        store's write buffering.
        """
        (record,) = self._run([asn], workers=1)
        return record

    def classify_all(self, workers: Optional[int] = None) -> ASdbDataset:
        """Classify every AS in the registry: :meth:`classify_batch`
        with ``workers`` (default: the constructor's)."""
        return self.classify_batch(
            workers=self._workers if workers is None else workers
        )

    def classify_batch(
        self,
        asns: Optional[Sequence[int]] = None,
        workers: int = 1,
    ) -> ASdbDataset:
        """Classify ``asns`` (default: the whole registry) through the
        organization-clustered batch engine.

        Organization siblings are grouped by their pre-domain cache key
        into in-order chains; chains advance on ``workers`` threads and
        the ASN-match, ML and source-match stages run through the bulk
        endpoints.  Output is byte-identical to classifying the same
        ASNs one at a time in ascending order (see
        :mod:`repro.core.parallel`).
        """
        self._run(asns, workers)
        # Store-backed datasets buffer writes; completing a batch is a
        # durability point either way.
        self.dataset.flush()
        return self.dataset

    def _run(
        self, asns: Optional[Sequence[int]], workers: int
    ) -> List[ASdbRecord]:
        """Drive ``asns`` through the engine and merge the records."""
        from .parallel import run_batch

        records = run_batch(self, asns=asns, workers=workers)
        for record in records:
            self.dataset.add(record)
            if record.trace is not None:
                self.runlog.emit("as.trace", **record.trace.to_dict())
        self._m_cache_hit_rate.set(self.cache.stats().hit_rate)
        return records

    @contextmanager
    def tag_traces(self, **tags: object):
        """Stamp provenance tags on every trace built inside the block.

        The maintenance daemon wraps each sweep's reclassification in
        this so a record's trace says *which* sweep (day, window, run
        id) produced it — the paper's §5.3 correction-queue story needs
        that attribution after the fact.
        """
        previous = self._trace_tags
        merged = dict(previous)
        merged.update(tags)
        self._trace_tags = merged
        try:
            yield self
        finally:
            self._trace_tags = previous

    def forget(self, asn: int) -> Optional[ASdbRecord]:
        """Drop an AS's record and every cache alias that could serve it.

        The superseded record is removed from the dataset up front (so a
        failing re-run cannot leave a stale entry behind) and every cache
        key that could still serve it is invalidated — the keys the
        record lists, plus any other key mapping to the record object
        (e.g. a community correction stored under the org key alone).
        Returns the dropped record, or None if the AS was unknown.
        """
        old = self.dataset.remove(asn)
        if old is not None:
            self.cache.invalidate_keys(old.cache_keys + (old.org_key,))
            self.cache.invalidate_record(old)
        return old

    def reclassify(self, asn: int) -> ASdbRecord:
        """Re-run classification for an AS whose metadata changed."""
        self.forget(asn)
        return self.classify(asn)

    # -- pipeline -----------------------------------------------------------

    def _classify_steps(self, asn: int, tb):
        """The Figure-4 stage sequence for one AS, as a generator.

        Yields a request tuple for every external call — ``(asn_match,
        asn)``, ``(ml, domain)``, ``(sources, contact, domain)`` — and
        expects to be resumed (``send``) with the answer.  The batch
        engine (:func:`repro.core.parallel.run_batch`) suspends many
        generators at the same request kind and serves them through one
        bulk call; every stage decision lives in here.
        """
        parsed = self._registry.parsed(asn)
        contact = self._registry.contact(asn)
        as_name = parsed.as_name or contact.name

        # Stage 0: organization cache (pre-domain key uses the name).
        name_key = org_cache_key(contact, domain=None)
        if self._use_cache:
            with tb.span("cache") as span:
                cached = self.cache.get(name_key)
                outcome = (
                    "none_key" if name_key is None
                    else "hit" if cached is not None
                    else "miss"
                )
                self._m_cache_lookups.inc(1, outcome=outcome)
                span.set_status(outcome)
                span.note(key=name_key)
            if cached is not None:
                return ASdbRecord(
                    asn=asn,
                    labels=cached.labels,
                    stage=Stage.CACHED,
                    domain=cached.domain,
                    sources=cached.sources,
                    org_key=cached.org_key,
                    cache_keys=cached.cache_keys,
                    degraded_sources=cached.degraded_sources,
                )

        # Stage 1: ASN-keyed lookups.
        with tb.span("asn_match") as span:
            pdb_match, ipinfo_match, degraded = yield (REQUEST_ASN_MATCH, asn)
            high_confidence = self._is_high_confidence(pdb_match)
            span.note(
                peeringdb="match" if pdb_match is not None else "miss",
                ipinfo="match" if ipinfo_match is not None else "miss",
            )
            if degraded:
                span.note(degraded=degraded)
            span.set_status(
                "high_confidence" if high_confidence else "no_high_confidence"
            )
        if high_confidence:
            return self._finish(
                asn,
                contact,
                labels=pdb_match.labels,
                stage=Stage.MATCHED_BY_ASN,
                domain=pdb_match.entry.domain,
                sources=("peeringdb",),
                name_key=name_key,
                degraded=degraded,
            )

        # Stage 2: domain extraction with ASN-source hints.
        with tb.span("domain_choice") as span:
            hints: List[str] = []
            for match in (pdb_match, ipinfo_match):
                if match is not None and match.entry.domain:
                    hints.append(match.entry.domain)
            domain = self._resolver.choose_domain(contact, as_name, hints)
            span.set_status("chosen" if domain else "none")
            span.note(
                domain=domain,
                candidates=len(contact.candidate_domains),
                hints=tuple(hints),
            )

        # Stage 3: ML classification of the chosen domain.
        verdict: Optional[ClassifierVerdict] = None
        with tb.span("ml") as span:
            if self._ml is None:
                span.set_status("disabled")
            elif domain is None:
                span.set_status("no_domain")
            else:
                verdict = yield (REQUEST_ML, domain)
                if not verdict.scraped:
                    span.set_status("unscraped")
                else:
                    span.set_status(
                        self._verdict_slug(verdict.is_isp, verdict.is_hosting)
                    )
                    span.note(
                        isp_score=verdict.isp_score,
                        hosting_score=verdict.hosting_score,
                    )
                span.note(domain=domain)

        # Stage 4: identifier-keyed source matching.
        with tb.span("source_match") as span:
            resolved = yield (REQUEST_SOURCES, contact, domain)
            span.set_status(f"{len(resolved.matches)} accepted")
            for name in sorted(resolved.matches):
                span.note(**{name: "accepted"})
            for name, reason in sorted(resolved.rejected_reasons.items()):
                span.note(**{name: f"rejected ({reason})"})
            if resolved.degraded:
                span.note(degraded=resolved.degraded)
            degraded = degraded + tuple(
                name for name in resolved.degraded if name not in degraded
            )

        # Stage 5: consensus pool = identifier-keyed matches + ASN-keyed
        # matches that carry NAICSlite information.
        with tb.span("consensus") as span:
            pool: Dict[str, SourceMatch] = dict(resolved.matches)
            for match in (pdb_match, ipinfo_match):
                if match is not None and match.labels:
                    pool[match.source] = match

            consensus = self._consensus(pool)

            final_labels = consensus.labels
            final_stage = consensus.stage
            final_sources = consensus.trusted_sources
            ml_labels = self._ml_labels(verdict)
            if ml_labels:
                if final_stage is Stage.MULTI_AGREE and not (
                    final_labels.overlaps_layer2(ml_labels)
                ):
                    # At least two agreeing sources contradict the
                    # classifier: the sources win (Section 5.2's hosting
                    # post-mortem).
                    span.note(decision="sources_overrule_classifier")
                else:
                    # The classifier's label, unioned with whatever the
                    # agreeing sources add to it.
                    labels = ml_labels
                    supporters: List[str] = ["classifier"]
                    for name, match in sorted(pool.items()):
                        if match.labels.overlaps_layer2(ml_labels):
                            labels = labels.union(match.labels)
                            supporters.append(name)
                    final_labels = labels
                    final_stage = Stage.CLASSIFIER
                    final_sources = tuple(supporters)
            span.set_status(final_stage.value)
            span.note(
                pool=tuple(sorted(pool)),
                trusted=final_sources,
                labels=tuple(str(label) for label in final_labels),
            )

        return self._finish(
            asn, contact, final_labels, final_stage, domain,
            final_sources, name_key, degraded=degraded,
        )

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _is_high_confidence(match: Optional[SourceMatch]) -> bool:
        """Only a PeeringDB ISP label is a high-confidence ASN match."""
        return (
            match is not None
            and match.source == "peeringdb"
            and "isp" in match.labels.layer2_slugs()
        )

    @staticmethod
    def _verdict_slug(is_isp: bool, is_hosting: bool) -> str:
        if is_isp and is_hosting:
            return "isp+hosting"
        if is_isp:
            return "isp"
        if is_hosting:
            return "hosting"
        return "negative"

    @staticmethod
    def _ml_labels(verdict: Optional[ClassifierVerdict]) -> LabelSet:
        if verdict is None or not verdict.scraped:
            return LabelSet()
        slugs: List[str] = []
        if verdict.is_isp:
            slugs.append("isp")
        if verdict.is_hosting:
            slugs.append("hosting")
        return LabelSet.from_layer2_slugs(slugs)

    def _finish(
        self,
        asn: int,
        contact,
        labels: LabelSet,
        stage: Stage,
        domain: Optional[str],
        sources: Tuple[str, ...],
        name_key: Optional[str],
        degraded: Tuple[str, ...] = (),
    ) -> ASdbRecord:
        domain_key = org_cache_key(contact, domain)
        keys = tuple(
            key for key in dict.fromkeys((name_key, domain_key)) if key
        )
        record = ASdbRecord(
            asn=asn,
            labels=labels,
            stage=stage,
            domain=domain,
            sources=sources,
            org_key=domain_key or name_key,
            cache_keys=keys,
            degraded_sources=degraded,
        )
        if self._use_cache and labels:
            for key in keys:
                self.cache.put(key, record)
        return record
