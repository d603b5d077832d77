"""Deterministic fault injection for data sources.

ASdb's deployed pipeline aggregates five external services whose
availability differs wildly (Section 3.2): a business database can rate
limit a burst of lookups, a networking directory can go down for hours,
and any HTTP API can return garbage.  This module injects those failure
modes into any :class:`~repro.datasources.base.DataSource` so the
resilience layer (:mod:`repro.core.resilience`) and the pipeline's
graceful-degradation path can be exercised reproducibly.

Determinism is the design center.  Every fault decision is a pure
function of ``(plan seed, source name, query identifiers, attempt
number)`` — there is **no mutable fault state** — so:

* a scalar and a bulk lookup see the *same* fault for the same
  query, regardless of call order, batching, or thread schedule;
* a retry (attempt 1, 2, ...) re-rolls the dice deterministically, so
  transient faults genuinely clear on retry while an ``outage_rate`` of
  1.0 models a source that is permanently down;
* two runs with the same seed and plan fail identically, byte for byte.

The wrapper injects four Section-3.2 failure modes:

``outage``
    The lookup raises :class:`SourceOutage` (connection refused).
``rate limit``
    The lookup raises :class:`RateLimited` (HTTP 429).
``latency spike``
    The lookup reports ``latency_seconds`` of injected delay.  By
    default the delay is *simulated* — carried on the
    :class:`FaultDecision` for the retry layer's timeout budget to act
    on — so tests stay fast and deterministic; ``FaultPlan(realtime=
    True)`` actually sleeps.
``malformed entry``
    The lookup succeeds but the returned entry is corrupted (name,
    domain, categories, and labels are gone) the way a truncated or
    schema-shifted API response is.  :func:`is_malformed_match`
    recognizes such entries so the resilience layer can treat them as
    failures instead of feeding garbage to consensus.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..taxonomy import LabelSet
from .base import DataSource, Query, SourceEntry, SourceMatch

__all__ = [
    "SourceFault",
    "SourceOutage",
    "RateLimited",
    "FaultSpec",
    "FaultDecision",
    "FaultPlan",
    "FaultySource",
    "is_malformed_match",
]


class SourceFault(Exception):
    """Base class for injected (or real) transient source failures."""


class SourceOutage(SourceFault):
    """The source could not be reached at all (connection refused)."""


class RateLimited(SourceFault):
    """The source refused the call with a rate-limit error (HTTP 429)."""


@dataclass(frozen=True)
class FaultSpec:
    """Per-source fault rates, each decided independently per attempt.

    Attributes:
        outage_rate: Probability an attempt raises :class:`SourceOutage`.
        rate_limit_rate: Probability an attempt raises :class:`RateLimited`.
        malformed_rate: Probability a successful attempt returns a
            corrupted entry (see :func:`is_malformed_match`).
        latency_rate: Probability an attempt carries a latency spike.
        latency_seconds: Size of an injected latency spike.
    """

    outage_rate: float = 0.0
    rate_limit_rate: float = 0.0
    malformed_rate: float = 0.0
    latency_rate: float = 0.0
    latency_seconds: float = 2.0

    @property
    def quiet(self) -> bool:
        """Whether this spec can never fire."""
        return not (
            self.outage_rate
            or self.rate_limit_rate
            or self.malformed_rate
            or self.latency_rate
        )


@dataclass(frozen=True)
class FaultDecision:
    """The faults one attempt of one query draws.

    ``outage`` and ``rate_limited`` are mutually exclusive (outage wins);
    ``malformed`` and ``latency_seconds`` can accompany a success.
    """

    outage: bool = False
    rate_limited: bool = False
    malformed: bool = False
    latency_seconds: float = 0.0

    @property
    def raises(self) -> bool:
        """Whether the attempt fails before producing a result."""
        return self.outage or self.rate_limited


_CLEAN = FaultDecision()


def _unit(seed: int, source: str, key: str, attempt: int, salt: str) -> float:
    """A deterministic float in [0, 1) for one fault dimension.

    blake2b, not crc32: CRC is linear over GF(2), so two attempt numbers
    differing in one bit would hash to values a *constant* XOR apart and
    threshold comparisons across attempts would correlate perfectly —
    retries would never actually re-roll the dice.
    """
    material = f"fault|{salt}|{seed}|{source}|{key}|{attempt}"
    digest = hashlib.blake2b(material.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def _query_key(query: Query) -> str:
    """Stable per-query material (the identifiers, not object identity)."""
    return repr(
        (query.name, query.domain, query.address, query.phone, query.asn)
    )


@dataclass(frozen=True)
class FaultPlan:
    """A seed-driven assignment of fault rates to sources.

    Attributes:
        seed: Seed all fault decisions derive from.
        default: Spec for sources without an explicit entry.
        per_source: Source name -> spec overrides.
        realtime: Actually ``time.sleep`` injected latency spikes.  Off
            by default so fault runs stay fast; the retry layer consults
            the simulated latency for its timeout budget either way.
    """

    seed: int = 0
    default: FaultSpec = field(default_factory=FaultSpec)
    per_source: Dict[str, FaultSpec] = field(default_factory=dict)
    realtime: bool = False

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """An everything-flaky plan: ``rate`` outages plus half-``rate``
        rate limits and malformed entries and ``rate`` latency spikes,
        on every source."""
        return cls(
            seed=seed,
            default=FaultSpec(
                outage_rate=rate,
                rate_limit_rate=rate / 2,
                malformed_rate=rate / 2,
                latency_rate=rate,
            ),
        )

    @classmethod
    def down(cls, *source_names: str, seed: int = 0) -> "FaultPlan":
        """A plan where the named sources are permanently unreachable."""
        return cls(
            seed=seed,
            per_source={
                name: FaultSpec(outage_rate=1.0) for name in source_names
            },
        )

    def spec_for(self, source_name: str) -> FaultSpec:
        return self.per_source.get(source_name, self.default)

    def decide(
        self, source_name: str, query: Query, attempt: int = 0
    ) -> FaultDecision:
        """The faults drawn by one attempt of one query — a pure
        function of (seed, source, query identifiers, attempt)."""
        spec = self.spec_for(source_name)
        if spec.quiet:
            return _CLEAN
        key = _query_key(query)
        outage = (
            _unit(self.seed, source_name, key, attempt, "outage")
            < spec.outage_rate
        )
        rate_limited = not outage and (
            _unit(self.seed, source_name, key, attempt, "ratelimit")
            < spec.rate_limit_rate
        )
        malformed = (
            _unit(self.seed, source_name, key, attempt, "malformed")
            < spec.malformed_rate
        )
        latency = (
            spec.latency_seconds
            if _unit(self.seed, source_name, key, attempt, "latency")
            < spec.latency_rate
            else 0.0
        )
        return FaultDecision(
            outage=outage,
            rate_limited=rate_limited,
            malformed=malformed,
            latency_seconds=latency,
        )


def is_malformed_match(match: Optional[SourceMatch]) -> bool:
    """Whether a lookup result is a corrupted (fault-injected or
    truncated-response) entry: present but stripped of every usable
    field.  The resilience layer converts these to failed attempts so
    garbage never reaches domain choice or consensus."""
    return (
        match is not None
        and not match.entry.name
        and not match.entry.native_categories
        and not match.labels
    )


def _malform(match: SourceMatch) -> SourceMatch:
    """Corrupt a real match the way a truncated API response would."""
    entry = match.entry
    return SourceMatch(
        source=match.source,
        entry=SourceEntry(
            entity_id=entry.entity_id,
            org_id="",
            name="",
            domain=None,
            native_categories=(),
            labels=LabelSet(),
        ),
        confidence=match.confidence,
        via=match.via,
    )


class FaultySource(DataSource):
    """A :class:`DataSource` decorator that injects a :class:`FaultPlan`.

    Both ``lookup`` and ``lookup_many`` draw faults per query from the
    plan's pure hash, so scalar and bulk lookups observe identical
    fault sequences.  ``lookup_attempt`` exposes the attempt dimension
    to the retry layer; plain ``lookup`` is always attempt 0.

    ``lookup_by_org`` (the researchers' manual-verification path) is
    deliberately fault-free: the paper's hand lookups are not subject
    to API weather.
    """

    def __init__(
        self,
        inner: DataSource,
        plan: FaultPlan,
        source_name: Optional[str] = None,
    ) -> None:
        self._inner = inner
        self._plan = plan
        self.name = source_name or inner.name

    @property
    def inner(self) -> DataSource:
        """The wrapped source."""
        return self._inner

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def decide(self, query: Query, attempt: int = 0) -> FaultDecision:
        """The fault oracle: what this attempt of this query draws."""
        return self._plan.decide(self.name, query, attempt)

    def lookup_attempt(
        self, query: Query, attempt: int = 0
    ) -> Optional[SourceMatch]:
        """One attempt of a lookup, with that attempt's faults applied."""
        decision = self.decide(query, attempt)
        if decision.latency_seconds and self._plan.realtime:
            time.sleep(decision.latency_seconds)
        if decision.outage:
            raise SourceOutage(
                f"{self.name}: injected outage (attempt {attempt})"
            )
        if decision.rate_limited:
            raise RateLimited(
                f"{self.name}: injected rate limit (attempt {attempt})"
            )
        match = self._inner.lookup(query)
        if decision.malformed and match is not None:
            return _malform(match)
        return match

    # -- DataSource contract --------------------------------------------------

    def lookup(self, query: Query) -> Optional[SourceMatch]:
        return self.lookup_attempt(query, 0)

    def lookup_many(
        self, queries: Sequence[Query]
    ) -> List[Optional[SourceMatch]]:
        """Per-query fault injection; fails fast on the first faulted
        query, like a batched HTTP call aborted mid-flight.  Callers
        that need per-slot degradation wrap this source in a
        :class:`~repro.core.resilience.ResilientSource`."""
        return [self.lookup_attempt(query, 0) for query in queries]

    def lookup_by_org(self, org_id: str) -> Optional[SourceMatch]:
        return self._inner.lookup_by_org(org_id)

    def coverage_count(self) -> int:
        return self._inner.coverage_count()
