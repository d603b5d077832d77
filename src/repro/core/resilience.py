"""Retry, circuit breaking, and graceful degradation for source calls.

The deployed pipeline (Section 3, Figure 4) depends on five external
services; one flaky source must cost the affected lookups, never the
run.  This module wraps any :class:`~repro.datasources.base.DataSource`
in a :class:`ResilientSource` that the pipeline consults before every
source call:

1. a per-source :class:`CircuitBreaker` (closed -> open -> half-open)
   sheds calls to a source that keeps failing, then probes it for
   recovery;
2. a :class:`RetryPolicy` bounds retries per lookup, with exponential
   backoff and deterministic jitter derived from the run seed, plus a
   per-attempt timeout and an optional per-lookup time budget;
3. malformed entries (see
   :func:`~repro.datasources.faults.is_malformed_match`) are treated as
   failed attempts, so corrupted responses are retried instead of fed
   to consensus;
4. a lookup whose attempts are exhausted *degrades* — the outcome is
   reported as failed and the pipeline records the source in the
   record's ``degraded_sources`` instead of crashing the run.

Determinism: retry outcomes are pure per query.  Backoff jitter hashes
``(seed, source, query, attempt)``; injected faults (when the wrapped
source is a :class:`~repro.datasources.faults.FaultySource`) hash the
same material; and timeout checks against injected latency consult the
fault oracle rather than the wall clock.  The circuit breaker is the
one deliberately shared piece of state: it is count-based (never
time-based), so its transitions are reproducible for a fixed call
order, and for a uniformly-down source its open-state rejections
produce the same per-record outcome as the failed probes they replace.
The batch engine makes every source call on its calling thread, in one
order at any worker count, so a run over a
:class:`~repro.datasources.faults.FaultPlan` produces identical records
at every ``workers``.

Metrics (all no-op without a registry): ``asdb_source_errors_total
{source, kind}``, ``asdb_retries_total{source}``,
``asdb_source_degraded_total{source}``, ``asdb_breaker_state{source}``
(0 closed / 1 half-open / 2 open), and
``asdb_breaker_transitions_total{source, to}``.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..datasources.base import DataSource, Query, SourceMatch
from ..datasources.faults import (
    RateLimited,
    SourceFault,
    SourceOutage,
    is_malformed_match,
)
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..obs.runlog import NULL_RUNLOG

__all__ = [
    "RetryPolicy",
    "LookupOutcome",
    "CircuitBreaker",
    "ResilientSource",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Gauge encoding of breaker states.
_STATE_VALUES = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}

#: ``kind`` label values of ``asdb_source_errors_total``.
ERROR_KINDS = (
    "outage", "rate_limited", "malformed", "timeout", "error",
)


class SourceTimeout(SourceFault):
    """An attempt exceeded the policy's per-attempt timeout."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry configuration for one resilient source.

    Attributes:
        max_retries: Retries after the first attempt (0 = fail fast).
        backoff_base: First-retry backoff in seconds; 0 disables
            sleeping entirely (tests, CLI smoke runs).
        backoff_multiplier: Exponential growth factor per retry.
        backoff_cap: Upper bound on a single backoff sleep.
        timeout_seconds: Per-attempt deadline.  An attempt whose
            (injected or measured) latency exceeds it counts as a
            ``timeout`` failure; None disables the check.
        budget_seconds: Optional per-lookup wall budget across all
            attempts (injected latency included); once spent, remaining
            retries are abandoned.
        seed: Seed for deterministic backoff jitter (the run seed, via
            :class:`~repro.system.SystemConfig`).
        breaker_enabled: Attach a per-source circuit breaker.
        breaker_failure_threshold: Consecutive failed attempts that
            open the breaker.
        breaker_recovery_probes: Rejected calls while open before the
            breaker half-opens and allows a probe.
    """

    max_retries: int = 2
    backoff_base: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_cap: float = 0.25
    timeout_seconds: Optional[float] = 1.0
    budget_seconds: Optional[float] = None
    seed: int = 0
    breaker_enabled: bool = True
    breaker_failure_threshold: int = 5
    breaker_recovery_probes: int = 8

    def backoff_seconds(self, source: str, query_key: str, attempt: int) -> float:
        """Backoff before retry ``attempt``, with deterministic jitter
        in [0.5x, 1.5x) hashed from (seed, source, query, attempt)."""
        if self.backoff_base <= 0:
            return 0.0
        base = self.backoff_base * self.backoff_multiplier ** attempt
        material = f"backoff|{self.seed}|{source}|{query_key}|{attempt}"
        jitter = 0.5 + zlib.crc32(material.encode()) / 2**32
        return min(self.backoff_cap, base * jitter)


@dataclass(frozen=True)
class LookupOutcome:
    """One resilient lookup's result, failure or not.

    Attributes:
        match: The match (None on a miss *or* a failure).
        failed: The source could not answer: attempts exhausted, budget
            spent, or breaker open.
        error: Short description of the final failure.
        attempts: Attempts actually performed (0 = breaker rejection).
    """

    match: Optional[SourceMatch] = None
    failed: bool = False
    error: str = ""
    attempts: int = 1


class CircuitBreaker:
    """A count-based closed -> open -> half-open breaker.

    Closed: calls flow; ``failure_threshold`` *consecutive* failures
    open the breaker.  Open: calls are rejected without touching the
    source; after ``recovery_probes`` rejections the breaker half-opens.
    Half-open: exactly one probe call is allowed through; its success
    closes the breaker, its failure re-opens it.

    Counting calls instead of wall time keeps transitions reproducible
    run to run.  All methods are thread-safe (the batch engine consults
    one breaker from many workers).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_probes: int = 8,
    ) -> None:
        if failure_threshold < 1 or recovery_probes < 1:
            raise ValueError("breaker thresholds must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_probes = recovery_probes
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._rejections = 0
        self._probe_in_flight = False
        self._transitions: List[str] = []

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def transitions(self) -> Tuple[str, ...]:
        """Every state entered after the initial closed, in order."""
        with self._lock:
            return tuple(self._transitions)

    def _transition(self, state: str) -> None:
        self._state = state
        self._transitions.append(state)

    def allow(self) -> bool:
        """Consult the breaker before a call; False = shed the call."""
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                self._rejections += 1
                if self._rejections >= self.recovery_probes:
                    self._transition(BREAKER_HALF_OPEN)
                    self._probe_in_flight = True
                    return True
                return False
            # Half-open: one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state != BREAKER_CLOSED:
                self._transition(BREAKER_CLOSED)
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            if self._state == BREAKER_HALF_OPEN:
                self._probe_in_flight = False
                self._rejections = 0
                self._transition(BREAKER_OPEN)
                return
            self._consecutive_failures += 1
            if (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._rejections = 0
                self._transition(BREAKER_OPEN)


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, SourceOutage):
        return "outage"
    if isinstance(exc, RateLimited):
        return "rate_limited"
    if isinstance(exc, SourceTimeout):
        return "timeout"
    return "error"


class ResilientSource(DataSource):
    """Retry + breaker + degradation around any ``DataSource``.

    Drop-in for the plain contract — ``lookup`` / ``lookup_many`` never
    raise; a source that cannot answer simply yields None — while
    :meth:`try_lookup` / :meth:`try_lookup_many` additionally report
    *failed* outcomes so the pipeline can record degraded sources on
    the produced records.

    When the wrapped source (directly) is a
    :class:`~repro.datasources.faults.FaultySource`, attempts go
    through its ``lookup_attempt`` so retries re-roll the injected
    faults, and the per-attempt timeout consults the fault oracle's
    injected latency instead of the wall clock — keeping fault runs
    deterministic.
    """

    #: Tells :func:`repro.obs.instrument.instrument_source` not to wrap
    #: this source again (metering belongs *inside* the retry loop).
    already_metered = True

    def __init__(
        self,
        inner: DataSource,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        metrics: Optional[MetricsRegistry] = None,
        sleep=time.sleep,
        runlog=None,
    ) -> None:
        self._inner = inner
        self.name = inner.name
        self._runlog = runlog if runlog is not None else NULL_RUNLOG
        self.policy = policy or RetryPolicy()
        if breaker is None and self.policy.breaker_enabled:
            breaker = CircuitBreaker(
                failure_threshold=self.policy.breaker_failure_threshold,
                recovery_probes=self.policy.breaker_recovery_probes,
            )
        self.breaker = breaker
        self._sleep = sleep
        self._oracle = inner if hasattr(inner, "lookup_attempt") else None
        self._emitted_transitions = 0
        # `is not None`, not truthiness: an empty MetricsRegistry has
        # len() == 0 and would silently fall through to the null sink.
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_errors = registry.counter(
            "asdb_source_errors_total",
            "Failed source-lookup attempts by source and failure kind.",
            ("source", "kind"),
        )
        for kind in ERROR_KINDS:
            self._m_errors.inc(0, source=self.name, kind=kind)
        self._m_retries = registry.counter(
            "asdb_retries_total",
            "Source-lookup retries performed.",
            ("source",),
        )
        self._m_retries.inc(0, source=self.name)
        self._m_degraded = registry.counter(
            "asdb_source_degraded_total",
            "Lookups abandoned after retries/breaker (degraded answers).",
            ("source",),
        )
        self._m_degraded.inc(0, source=self.name)
        self._m_breaker_state = registry.gauge(
            "asdb_breaker_state",
            "Circuit-breaker state (0 closed, 1 half-open, 2 open).",
            ("source",),
        )
        self._m_breaker_state.set(0, source=self.name)
        self._m_breaker_transitions = registry.counter(
            "asdb_breaker_transitions_total",
            "Circuit-breaker state transitions.",
            ("source", "to"),
        )
        for state in (BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN):
            self._m_breaker_transitions.inc(0, source=self.name, to=state)

    @property
    def inner(self) -> DataSource:
        """The wrapped source."""
        return self._inner

    # -- resilient API --------------------------------------------------------

    def try_lookup(self, query: Query) -> LookupOutcome:
        """One lookup with the full retry/breaker/timeout treatment."""
        policy = self.policy
        query_key = repr(
            (query.name, query.domain, query.address, query.phone, query.asn)
        )
        spent = 0.0
        last_error = ""
        for attempt in range(policy.max_retries + 1):
            if self.breaker is not None and not self.breaker.allow():
                self._note_breaker()
                self._m_degraded.inc(1, source=self.name)
                return LookupOutcome(
                    failed=True, error="breaker_open", attempts=attempt
                )
            try:
                match, elapsed = self._attempt(query, attempt)
            except Exception as exc:  # resilience boundary: degrade, not die
                kind = _error_kind(exc)
                self._m_errors.inc(1, source=self.name, kind=kind)
                self._record_failure()
                last_error = f"{kind}: {exc}"
            else:
                if is_malformed_match(match):
                    self._m_errors.inc(
                        1, source=self.name, kind="malformed"
                    )
                    self._record_failure()
                    last_error = "malformed: corrupted entry"
                    spent += elapsed
                else:
                    self._record_success()
                    return LookupOutcome(match=match, attempts=attempt + 1)
            if attempt >= policy.max_retries:
                break
            if (
                policy.budget_seconds is not None
                and spent >= policy.budget_seconds
            ):
                last_error = f"budget_exhausted after {last_error}"
                break
            delay = policy.backoff_seconds(self.name, query_key, attempt)
            if delay > 0:
                self._sleep(delay)
                spent += delay
            self._m_retries.inc(1, source=self.name)
        self._m_degraded.inc(1, source=self.name)
        return LookupOutcome(
            failed=True,
            error=last_error or "exhausted",
            attempts=policy.max_retries + 1,
        )

    def try_lookup_many(
        self, queries: Sequence[Query]
    ) -> List[LookupOutcome]:
        """Bulk resilient lookup, elementwise identical to
        :meth:`try_lookup` per query.

        Without fault injection the inner bulk endpoint is tried first
        (one fast vectorized pass); if it raises, the per-query path
        takes over so retry/breaker semantics still apply.  With a
        fault oracle attached the per-query path is used directly —
        correctness of the injected fault sequence over bulk speed.
        """
        queries = list(queries)
        if self._oracle is None:
            try:
                matches = self._inner.lookup_many(queries)
            except Exception:
                pass  # fall through to the per-query resilient path
            else:
                for match in matches:
                    self._record_success()
                return [LookupOutcome(match=match) for match in matches]
        return [self.try_lookup(query) for query in queries]

    # -- DataSource contract (never raises) -----------------------------------

    def lookup(self, query: Query) -> Optional[SourceMatch]:
        return self.try_lookup(query).match

    def lookup_many(
        self, queries: Sequence[Query]
    ) -> List[Optional[SourceMatch]]:
        return [
            outcome.match for outcome in self.try_lookup_many(queries)
        ]

    def lookup_by_org(self, org_id: str) -> Optional[SourceMatch]:
        return self._inner.lookup_by_org(org_id)

    def coverage_count(self) -> int:
        return self._inner.coverage_count()

    # -- internals ------------------------------------------------------------

    def _attempt(
        self, query: Query, attempt: int
    ) -> Tuple[Optional[SourceMatch], float]:
        """One attempt; returns (match, elapsed seconds) or raises."""
        timeout = self.policy.timeout_seconds
        if self._oracle is not None:
            decision = self._oracle.decide(query, attempt)
            latency = decision.latency_seconds
            if timeout is not None and latency > timeout:
                raise SourceTimeout(
                    f"{self.name}: injected latency {latency:.2f}s exceeds "
                    f"timeout {timeout:.2f}s (attempt {attempt})"
                )
            return self._oracle.lookup_attempt(query, attempt), latency
        start = time.perf_counter()
        match = self._inner.lookup(query)
        elapsed = time.perf_counter() - start
        if timeout is not None and elapsed > timeout:
            raise SourceTimeout(
                f"{self.name}: lookup took {elapsed:.2f}s, over the "
                f"{timeout:.2f}s timeout"
            )
        return match, elapsed

    def _record_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()
            self._note_breaker()

    def _record_success(self) -> None:
        if self.breaker is not None:
            self.breaker.record_success()
            self._note_breaker()

    def _note_breaker(self) -> None:
        state = self.breaker.state
        self._m_breaker_state.set(
            _STATE_VALUES[state], source=self.name
        )
        # Count only genuine transitions (the transitions list grows
        # monotonically; emit the delta since the last observation).
        transitions = self.breaker.transitions
        for to in transitions[self._emitted_transitions:]:
            self._m_breaker_transitions.inc(1, source=self.name, to=to)
            self._runlog.emit(
                "breaker.transition", source=self.name, to=to
            )
        self._emitted_transitions = len(transitions)

    def breaker_state(self) -> str:
        """The breaker's current state name (``closed`` without one)."""
        return self.breaker.state if self.breaker is not None else (
            BREAKER_CLOSED
        )
