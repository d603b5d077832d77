"""Entity resolution: from WHOIS contact data to data-source matches.

Implements the middle of Figure 4: pool candidate domains (WHOIS + the
ASN-keyed sources' hints), choose the most likely one, then match into the
identifier-keyed external sources.  To reduce entity disagreement, matches
whose returned domain contradicts the chosen domain are rejected
(Section 5.1), and D&B matches below a confidence threshold are dropped
(Figure 2 shows accuracy collapses below code 6).

The two halves are exposed separately (:meth:`EntityResolver.choose_domain`
and :meth:`EntityResolver.match_sources`) so the pipeline can time and
trace them as the distinct Figure-4 stages they are;
:meth:`EntityResolver.resolve` remains the one-call convenience.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..datasources.base import (
    DataSource, Query, SourceMatch, lookup_outcomes,
)
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..web.site import WebUniverse
from ..whois.extraction import ExtractedContact
from .domains import DomainFrequencyIndex, choose_domain
from .kernels import KernelStats

__all__ = ["ResolvedSources", "EntityResolver"]

#: D&B confidence codes below this are discarded (Table 5: thresholding at
#: 6 trades 8 points of coverage for 7 points of matching accuracy).
DEFAULT_DNB_CONFIDENCE_THRESHOLD = 6

#: Rejection reason slugs (also the ``outcome`` metric label values).
REASON_LOW_CONFIDENCE = "low_confidence"
REASON_DOMAIN_MISMATCH = "domain_mismatch"


@dataclass(frozen=True)
class ResolvedSources:
    """Everything entity resolution produced for one AS.

    Attributes:
        asn: The AS.
        chosen_domain: The "most likely domain" (Figure 4), or None.
        matches: Accepted matches keyed by source name.
        rejected: Source names whose match was rejected (low confidence or
            domain contradiction) - kept for evaluation breakdowns.
        rejected_reasons: Source name -> why its match was rejected
            (``low_confidence`` or ``domain_mismatch``).
        degraded: Sources that could not answer at all (outage, retry
            exhaustion, breaker open) — only populated when the sources
            are wrapped by the resilience layer.
    """

    asn: int
    chosen_domain: Optional[str]
    matches: Dict[str, SourceMatch] = field(default_factory=dict)
    rejected: Tuple[str, ...] = ()
    rejected_reasons: Dict[str, str] = field(default_factory=dict)
    degraded: Tuple[str, ...] = ()


class EntityResolver:
    """Figure-4 stage 2+3: domain choice and data-source matching.

    Args:
        web: The web universe (homepage titles feed "most similar"
            selection).
        frequency_index: Per-domain AS counts for common-domain filtering.
        sources: Identifier-keyed sources to match into (D&B, Crunchbase,
            Zvelo in the deployed system).
        dnb_confidence_threshold: Minimum accepted D&B confidence code.
        reject_domain_mismatch: Drop matches whose entry domain disagrees
            with the chosen domain (ablation knob).
        metrics: Optional metrics registry; emits domain-choice latency
            and per-source accept/reject decision counters.
    """

    def __init__(
        self,
        web: WebUniverse,
        frequency_index: DomainFrequencyIndex,
        sources: Sequence[DataSource],
        dnb_confidence_threshold: int = DEFAULT_DNB_CONFIDENCE_THRESHOLD,
        reject_domain_mismatch: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._web = web
        self._index = frequency_index
        self._sources = list(sources)
        self._dnb_threshold = dnb_confidence_threshold
        self._reject_mismatch = reject_domain_mismatch
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_choice_seconds = registry.histogram(
            "asdb_domain_choice_seconds",
            "Most-likely-domain selection latency per AS.",
        )
        self._m_decisions = registry.counter(
            "asdb_source_match_decisions_total",
            "Accept/reject decisions on source matches.",
            ("source", "outcome"),
        )
        for source in self._sources:
            for outcome in (
                "accepted", REASON_LOW_CONFIDENCE, REASON_DOMAIN_MISMATCH
            ):
                self._m_decisions.inc(0, source=source.name, outcome=outcome)
        self._m_kernel_candidates = registry.counter(
            "asdb_kernel_candidates_total",
            "Most-similar selection candidates by scoring outcome "
            "(computed = paid for the LCS, pruned = skipped by the "
            "exact upper bound).",
            ("outcome",),
        )
        for outcome in ("computed", "pruned"):
            self._m_kernel_candidates.inc(0, outcome=outcome)

    def choose_domain(
        self,
        contact: ExtractedContact,
        as_name: str,
        hint_domains: Sequence[str] = (),
    ) -> Optional[str]:
        """Pool WHOIS candidates with ASN-source hints; run the Figure-4
        domain-extraction algorithm."""
        start = time.perf_counter()
        pool: List[str] = list(contact.candidate_domains)
        for hint in hint_domains:
            if hint and hint not in pool:
                pool.append(hint)
        # A fresh per-call stats object keeps the batch engine's
        # concurrent choosers from racing on shared counters; deltas
        # flush into the (thread-safe) metric afterwards.
        stats = KernelStats()
        chosen = choose_domain(
            pool, as_name, self._web, self._index, stats=stats
        )
        self._m_choice_seconds.observe(time.perf_counter() - start)
        if stats.computed:
            self._m_kernel_candidates.inc(
                stats.computed, outcome="computed"
            )
        if stats.pruned:
            self._m_kernel_candidates.inc(stats.pruned, outcome="pruned")
        return chosen

    def match_sources(
        self,
        contact: ExtractedContact,
        domain: Optional[str],
    ) -> ResolvedSources:
        """Match into every configured source with a known domain (a
        one-item :meth:`match_sources_many`)."""
        return self.match_sources_many([(contact, domain)])[0]

    def match_sources_many(
        self,
        items: Sequence[Tuple[ExtractedContact, Optional[str]]],
    ) -> List[ResolvedSources]:
        """Match ``(contact, domain)`` pairs into every configured
        source, one bulk call per source for the whole batch.

        Lookups are deterministic per query, so each item's result does
        not depend on the batch around it.  A source that fails a query
        (:func:`~repro.datasources.base.lookup_outcomes`) is listed in
        that item's ``degraded``.
        """
        queries = [
            Query(
                name=contact.name,
                domain=domain,
                address=contact.address,
                phone=contact.phone,
                asn=contact.asn,
            )
            for contact, domain in items
        ]
        matches: List[Dict[str, SourceMatch]] = [{} for _ in items]
        rejected: List[List[str]] = [[] for _ in items]
        reasons: List[Dict[str, str]] = [{} for _ in items]
        degraded: List[List[str]] = [[] for _ in items]
        for source in self._sources:
            outcomes = lookup_outcomes(source, queries)
            for index, (match, failed) in enumerate(outcomes):
                if failed:
                    degraded[index].append(source.name)
                    continue
                if match is None:
                    continue
                reason = self._reject_reason(match, items[index][1])
                if reason is not None:
                    rejected[index].append(source.name)
                    reasons[index][source.name] = reason
                    self._m_decisions.inc(
                        1, source=source.name, outcome=reason
                    )
                    continue
                matches[index][source.name] = match
                self._m_decisions.inc(
                    1, source=source.name, outcome="accepted"
                )
        return [
            ResolvedSources(
                asn=contact.asn,
                chosen_domain=domain,
                matches=matches[index],
                rejected=tuple(rejected[index]),
                rejected_reasons=reasons[index],
                degraded=tuple(degraded[index]),
            )
            for index, (contact, domain) in enumerate(items)
        ]

    def resolve(
        self,
        contact: ExtractedContact,
        as_name: str,
        hint_domains: Sequence[str] = (),
    ) -> ResolvedSources:
        """Choose a domain, then match into every configured source."""
        domain = self.choose_domain(contact, as_name, hint_domains)
        return self.match_sources(contact, domain)

    def _reject_reason(
        self, match: SourceMatch, domain: Optional[str]
    ) -> Optional[str]:
        """Why a match must be dropped, or None to accept it."""
        if match.source == "dnb" and match.confidence is not None:
            if match.confidence < self._dnb_threshold:
                return REASON_LOW_CONFIDENCE
        if (
            self._reject_mismatch
            and domain is not None
            and match.entry.domain is not None
            and match.entry.domain != domain
        ):
            # The source believes this organization lives at a different
            # domain: likely an entity disagreement (Section 3.5).
            return REASON_DOMAIN_MISMATCH
        return None
