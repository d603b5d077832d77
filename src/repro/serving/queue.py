"""Bounded background classification queue for on-demand lookups.

A ``GET /asn/{asn}`` for an AS the index does not know returns ``202
Accepted`` and parks the ASN here; a worker thread drains the queue
through :meth:`~repro.core.pipeline.ASdb.classify_batch`, and the
results reach readers at the *next index swap* — never by mutating the
served index (which stays immutable by contract).  This is the
web/tasks split: request handlers only enqueue, classification work
happens off the read path.

The queue is bounded: once ``maxsize`` distinct ASNs are waiting,
further offers are rejected and the service answers ``503`` with a
retry hint instead of buffering unboundedly.  ASNs whose
classification raises (e.g. an AS absent from the registry) are
remembered as *failed* with the error string, so repeat lookups get a
definitive 404 instead of re-queueing forever.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence

from ..obs.metrics import MetricsRegistry, NULL_REGISTRY

__all__ = [
    "OFFER_QUEUED",
    "OFFER_PENDING",
    "OFFER_FULL",
    "ClassificationQueue",
    "QueueWorker",
]

#: :meth:`ClassificationQueue.offer` outcomes.
OFFER_QUEUED = "queued"
OFFER_PENDING = "pending"
OFFER_FULL = "full"


class ClassificationQueue:
    """Thread-safe bounded set-queue of ASNs awaiting classification.

    Args:
        maxsize: Maximum ASNs waiting (queued, not yet drained).
        metrics: Optional registry for the ``asdb_serve_queue_*``
            instruments; None meters nothing.
    """

    def __init__(
        self,
        maxsize: int = 256,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._waiting: List[int] = []
        self._waiting_set: set = set()
        #: ASNs drained by the worker but not yet swapped into an index.
        self._inflight: set = set()
        self._failed: Dict[int, str] = {}
        self._work = threading.Event()
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_depth = registry.gauge(
            "asdb_serve_queue_depth",
            "ASNs waiting in the on-demand classification queue.",
        )
        self._m_offers = registry.counter(
            "asdb_serve_queue_total",
            "On-demand queue events by outcome.",
            ("outcome",),
        )
        for outcome in (
            OFFER_QUEUED, OFFER_PENDING, OFFER_FULL,
            "classified", "failed",
        ):
            self._m_offers.inc(0, outcome=outcome)

    def offer(self, asn: int) -> str:
        """Enqueue one ASN; returns the outcome slug.

        ``queued`` on first sight, ``pending`` while the ASN is already
        waiting or being classified, ``full`` when the bound is hit
        (the caller should answer 503).
        """
        with self._lock:
            if asn in self._waiting_set or asn in self._inflight:
                outcome = OFFER_PENDING
            elif len(self._waiting) >= self.maxsize:
                outcome = OFFER_FULL
            else:
                self._waiting.append(asn)
                self._waiting_set.add(asn)
                outcome = OFFER_QUEUED
                self._work.set()
            depth = len(self._waiting)
        self._m_offers.inc(1, outcome=outcome)
        self._m_depth.set(depth)
        return outcome

    def drain(self, limit: int) -> List[int]:
        """Pop up to ``limit`` waiting ASNs (FIFO) into the in-flight
        set; the worker calls :meth:`settle` when they are served."""
        with self._lock:
            batch = self._waiting[: max(1, limit)]
            del self._waiting[: len(batch)]
            self._waiting_set.difference_update(batch)
            self._inflight.update(batch)
            if not self._waiting:
                self._work.clear()
            depth = len(self._waiting)
        self._m_depth.set(depth)
        return batch

    def settle(
        self, asns: Sequence[int], failures: Dict[int, str]
    ) -> None:
        """Mark a drained batch finished; ``failures`` maps the ASNs
        whose classification raised to their error strings."""
        with self._lock:
            self._inflight.difference_update(asns)
            self._failed.update(failures)
        ok = len(asns) - len(failures)
        if ok:
            self._m_offers.inc(ok, outcome="classified")
        if failures:
            self._m_offers.inc(len(failures), outcome="failed")

    def failure(self, asn: int) -> Optional[str]:
        """The recorded classification error for an ASN, if any."""
        with self._lock:
            return self._failed.get(asn)

    def depth(self) -> int:
        """ASNs currently waiting (excludes in-flight)."""
        with self._lock:
            return len(self._waiting)

    def wait_for_work(self, timeout: float) -> bool:
        """Block until work is queued (or ``timeout`` elapses)."""
        return self._work.wait(timeout)


class QueueWorker(threading.Thread):
    """Daemon thread draining the queue through the classifier.

    Args:
        queue: The bounded queue to drain.
        classify: ``classify(asns)`` — typically a closure over
            :meth:`ASdb.classify_batch`; called with each drained
            window.  A raising batch falls back to ``classify([asn])``
            per ASN so one bad ASN cannot poison its window; errors
            are recorded as failures.
        after: Called with each settled batch (successes only) — the
            service hooks its rebuild-and-swap here, which is how
            queued results "land in the next swap".
        batch_size: Maximum ASNs per drain window.
        poll_seconds: Idle wake-up interval (also bounds stop latency).
    """

    def __init__(
        self,
        queue: ClassificationQueue,
        classify: Callable[[List[int]], object],
        after: Optional[Callable[[List[int]], object]] = None,
        batch_size: int = 16,
        poll_seconds: float = 0.05,
    ) -> None:
        super().__init__(name="serving-queue-worker", daemon=True)
        self._queue = queue
        self._classify = classify
        self._after = after
        self._batch_size = max(1, batch_size)
        self._poll = poll_seconds
        self._halt = threading.Event()

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Ask the worker to exit and join it."""
        self._halt.set()
        self._queue._work.set()
        if self.is_alive():
            self.join(timeout)

    def run(self) -> None:  # pragma: no cover - exercised via service
        while not self._halt.is_set():
            if not self._queue.wait_for_work(self._poll):
                continue
            if self._halt.is_set():
                break
            batch = self._queue.drain(self._batch_size)
            if batch:
                self.process(batch)

    def process(self, batch: List[int]) -> List[int]:
        """Classify one drained window; returns the ASNs that landed.

        Exposed for deterministic tests: the run loop and tests share
        this exact settle/fallback logic.
        """
        failures: Dict[int, str] = {}
        try:
            self._classify(list(batch))
        except Exception:
            # One bad ASN aborts the whole batch call; retry each AS
            # alone so the good ones still land and only the bad ones
            # are remembered as failed.
            for asn in batch:
                try:
                    self._classify([asn])
                except Exception as exc:
                    failures[asn] = f"{type(exc).__name__}: {exc}"
        self._queue.settle(batch, failures)
        landed = [asn for asn in batch if asn not in failures]
        if self._after is not None and landed:
            self._after(landed)
        return landed
