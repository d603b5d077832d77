"""Maintaining ASdb over time (Section 5.3).

Between October 2020 and February 2021 an average 21 ASes were registered
per day (19 new organizations/day) and 4% of registered ASes changed their
ownership metadata at least once, implying ~140 updates per week.  This
module implements the machinery that keeps the dataset fresh:

* :class:`MaintenanceDaemon` - the incremental refresh engine: each
  sweep collects the registry changes inside a *bounded* window
  ``(last_day, current_day]``, purges every cache alias of every
  touched organization, drives the changed ASNs through
  :meth:`~repro.core.pipeline.ASdb.classify_batch` (so workers, retry,
  circuit breakers, and graceful degradation all apply), and — when a
  :class:`~repro.core.snapshots.SnapshotStore` is attached — records
  the result as a new dataset version with the window as provenance;
* :class:`CorrectionQueue` - the community-corrections workflow: anyone
  may submit a correction, a human reviewer verifies it, and only then is
  it integrated into the dataset.

Sweeps are observable: counters/gauges/histograms land in the pipeline's
:class:`~repro.obs.MetricsRegistry` (``asdb_sweep_*``), and with tracing
enabled each :class:`SweepReport` carries a per-phase span trace
(window -> purge -> classify -> snapshot).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.trace import ClassificationTrace, trace_builder
from ..taxonomy import LabelSet
from .database import ASdbRecord
from .pipeline import ASdb
from .snapshots import SnapshotStore
from .stages import Stage

__all__ = [
    "SweepReport",
    "MaintenanceDaemon",
    "Correction",
    "CorrectionStatus",
    "CorrectionError",
    "UnknownTicketError",
    "TicketAlreadyReviewedError",
    "CorrectionQueue",
]


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one maintenance sweep.

    Attributes:
        since_day: Sweep covered changes strictly after this day (-1
            marks the baseline sweep, which covers all of history from
            day 0).
        through_day: ... up to and including this day.  Changes dated
            later are left for the next sweep.
        new_asns: ASNs first registered in the window.
        updated_asns: Previously known ASNs whose metadata changed.
        reclassified: Number of ASes re-run through the pipeline.
        snapshot_version: Version the sweep stored, when the daemon has
            a snapshot store attached.
        trace: Per-phase span trace, when tracing is enabled (excluded
            from equality: two sweeps with the same outcome are the
            same sweep).
    """

    since_day: int
    through_day: int
    new_asns: Tuple[int, ...]
    updated_asns: Tuple[int, ...]
    reclassified: int
    snapshot_version: Optional[int] = None
    trace: Optional[ClassificationTrace] = field(
        default=None, compare=False, repr=False
    )

    @property
    def is_baseline(self) -> bool:
        """Whether this was the first sweep (full-history window)."""
        return self.since_day < 0

    @property
    def window_days(self) -> int:
        """Days the sweep window covers, with the first sweep explicit.

        The baseline sweep covers days ``0..through_day`` inclusive —
        ``through_day + 1`` days — rather than inheriting the sentinel
        ``since_day=-1`` as if it were a real day.  A same-day
        incremental sweep covers 0 days (and can have found nothing).
        """
        if self.is_baseline:
            return self.through_day + 1
        return self.through_day - self.since_day

    @property
    def changed_asns(self) -> Tuple[int, ...]:
        """Every ASN the sweep touched, ascending."""
        return tuple(sorted(self.new_asns + self.updated_asns))

    @property
    def updates_per_week(self) -> float:
        """Average (new + updated) ASes per 7-day window.

        An empty window (same-day sweep) reports 0.0 instead of
        silently clamping the divisor to one day.
        """
        days = self.window_days
        if days <= 0:
            return 0.0
        total = len(self.new_asns) + len(self.updated_asns)
        return total * 7.0 / days


class MaintenanceDaemon:
    """Sweeps the registry and keeps the ASdb dataset current.

    Args:
        asdb: The pipeline whose dataset/cache the daemon maintains.
        workers: Worker count for each sweep's batch pass.
        snapshots: Optional store; every sweep then records a dataset
            version carrying the sweep window and provenance.
        last_day: Day the previous sweep ran (-1 before the first);
            pass a stored value to resume a release history across
            processes.
        batch_size: ASN-window size for the classify phase.
            ``None`` (the default) classifies each sweep's changed set
            in one batch, exactly as before; a bound makes the sweep
            *streaming* — changed ASNs are classified in consecutive
            ascending windows with the dataset flushed after each, so
            a store-backed sweep holds O(batch) records resident.
    """

    def __init__(
        self,
        asdb: ASdb,
        workers: int = 1,
        snapshots: Optional[SnapshotStore] = None,
        last_day: int = -1,
        batch_size: Optional[int] = None,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1 or None, got {batch_size}"
            )
        self._asdb = asdb
        self._workers = max(1, workers)
        self._snapshots = snapshots
        self._last_day = last_day
        self._batch_size = batch_size

        metrics = asdb.metrics
        self._m_sweeps = metrics.counter(
            "asdb_sweep_total", "Maintenance sweeps run."
        )
        self._m_changed = metrics.counter(
            "asdb_sweep_changed_total",
            "Registry changes collected by sweeps, by kind.",
            ("kind",),
        )
        for kind in ("new", "updated"):
            self._m_changed.inc(0, kind=kind)
        self._m_reclassified = metrics.counter(
            "asdb_sweep_reclassified_total",
            "ASes re-run through the pipeline by sweeps.",
        )
        self._m_last_day = metrics.gauge(
            "asdb_sweep_last_day", "Day the most recent sweep covered."
        )
        self._m_seconds = metrics.histogram(
            "asdb_sweep_seconds", "Wall time per maintenance sweep."
        )
        self._m_windows = metrics.counter(
            "asdb_sweep_windows_total",
            "Classify windows processed by streaming sweeps.",
        )
        self._m_snapshot_version = metrics.gauge(
            "asdb_snapshot_version",
            "Latest dataset version stored by a sweep.",
        )

    @property
    def last_swept_day(self) -> int:
        """The day the previous sweep ran (-1 before the first sweep)."""
        return self._last_day

    @property
    def snapshots(self) -> Optional[SnapshotStore]:
        """The attached snapshot store, if any."""
        return self._snapshots

    def sweep(self, current_day: int) -> SweepReport:
        """Reclassify everything that changed in ``(last_day,
        current_day]``.

        The window is bounded above: an AS registered *after*
        ``current_day`` is not swept early (and then again), it simply
        belongs to the next sweep.  Changed ASNs are purged from the
        dataset and the organization cache first — stale sibling
        aliases included — then classified.

        With the daemon's ``batch_size`` set, the classify phase
        streams: the ascending changed-ASN list is split into
        consecutive windows, each classified with
        :meth:`~repro.core.pipeline.ASdb.classify_batch` and flushed to
        the dataset store before the next begins, and each window emits
        a ``sweep.window`` ledger event.  Because the batch engine is
        byte-identical to sequential ascending classification and the
        organization cache persists across windows, the swept dataset
        is byte-identical to the single-batch sweep — only peak
        residency changes.
        """
        if current_day < self._last_day:
            raise ValueError(
                f"sweep day {current_day} precedes the last swept day "
                f"{self._last_day}"
            )
        registry = self._asdb._registry
        runlog = self._asdb.runlog
        tb = trace_builder(current_day, self._asdb._trace_enabled)

        # Provenance stamped on every per-AS trace this sweep produces
        # (and thus on its ``as.trace`` ledger events): which sweep —
        # window and run — caused the reclassification.
        sweep_tags: Dict[str, object] = {
            "sweep_since": self._last_day,
            "sweep_through": current_day,
        }
        if runlog.enabled:
            sweep_tags["run"] = runlog.run_id

        with self._m_seconds.time():
            with tb.span("window") as span:
                changed = registry.changed_since(
                    self._last_day, through=current_day
                )
                new_asns: List[int] = []
                updated_asns: List[int] = []
                for asn in changed:
                    entry = registry.entry(asn)
                    if entry.registered_day > self._last_day:
                        new_asns.append(asn)
                    else:
                        updated_asns.append(asn)
                span.set_status(f"{len(changed)} changed")
                span.note(
                    since_day=self._last_day,
                    through_day=current_day,
                    new=len(new_asns),
                    updated=len(updated_asns),
                )

            # Purge before classifying: every touched organization's
            # record and cache aliases go, so no reclassification can
            # be served a stale sibling entry.
            with tb.span("purge") as span:
                purged = 0
                for asn in changed:
                    if self._asdb.forget(asn) is not None:
                        purged += 1
                span.set_status(f"{purged} purged")

            with tb.span("classify") as span:
                windows = 0
                if changed:
                    stride = self._batch_size or len(changed)
                    with self._asdb.tag_traces(**sweep_tags):
                        for offset in range(0, len(changed), stride):
                            window_asns = changed[offset:offset + stride]
                            self._asdb.classify_batch(
                                asns=window_asns, workers=self._workers
                            )
                            self._asdb.dataset.flush()
                            windows += 1
                            runlog.emit(
                                "sweep.window",
                                since_day=self._last_day,
                                through_day=current_day,
                                window=windows,
                                start_asn=window_asns[0],
                                stop_asn=window_asns[-1],
                                size=len(window_asns),
                            )
                span.set_status(f"{len(changed)} reclassified")
                span.note(workers=self._workers, windows=windows)
            self._m_windows.inc(windows)

            version: Optional[int] = None
            if self._snapshots is not None:
                with tb.span("snapshot") as span:
                    info = self._snapshots.save(
                        self._asdb.dataset,
                        window=(self._last_day, current_day),
                        provenance={
                            "new_asns": list(new_asns),
                            "updated_asns": list(updated_asns),
                            "reclassified": len(changed),
                        },
                        runlog=runlog,
                    )
                    version = info.version
                    span.set_status(f"v{version} ({info.kind})")
                self._m_snapshot_version.set(version)

        self._m_sweeps.inc(1)
        self._m_changed.inc(len(new_asns), kind="new")
        self._m_changed.inc(len(updated_asns), kind="updated")
        self._m_reclassified.inc(len(changed))
        self._m_last_day.set(current_day)

        report = SweepReport(
            since_day=self._last_day,
            through_day=current_day,
            new_asns=tuple(new_asns),
            updated_asns=tuple(updated_asns),
            reclassified=len(changed),
            snapshot_version=version,
            trace=tb.finish(),
        )
        runlog.emit(
            "sweep.report",
            since_day=report.since_day,
            through_day=report.through_day,
            new=len(report.new_asns),
            updated=len(report.updated_asns),
            reclassified=report.reclassified,
            snapshot_version=report.snapshot_version,
        )
        self._last_day = current_day
        return report


class CorrectionStatus(enum.Enum):
    """Lifecycle of a community-submitted correction."""

    PENDING = "pending"
    APPROVED = "approved"
    REJECTED = "rejected"


class CorrectionError(ValueError):
    """A corrections-workflow operation could not proceed."""


class UnknownTicketError(CorrectionError):
    """Review was requested for a ticket that was never issued."""


class TicketAlreadyReviewedError(CorrectionError):
    """Review was requested for a ticket a human already settled."""


@dataclass
class Correction:
    """One community-submitted classification correction.

    Attributes:
        asn: The AS the correction concerns.
        proposed: The proposed NAICSlite labels.
        submitter: Free-form submitter identity.
        rationale: Why the current classification is wrong.
        status: Review status (pending until a human verifies).
    """

    asn: int
    proposed: LabelSet
    submitter: str
    rationale: str = ""
    status: CorrectionStatus = CorrectionStatus.PENDING


class CorrectionQueue:
    """Submit -> human review -> integrate workflow (Section 5.3).

    Submitted corrections are verified by a human prior to integration;
    approved corrections overwrite the dataset record with a
    ``MULTI_AGREE``-equivalent manual stage.
    """

    def __init__(self, asdb: ASdb) -> None:
        self._asdb = asdb
        self._queue: List[Correction] = []

    def submit(self, correction: Correction) -> int:
        """Queue a correction; returns its review ticket id."""
        if not correction.proposed:
            raise ValueError("a correction must propose at least one label")
        self._queue.append(correction)
        return len(self._queue) - 1

    def pending(self) -> List[Correction]:
        """Corrections awaiting human review."""
        return [
            correction
            for correction in self._queue
            if correction.status is CorrectionStatus.PENDING
        ]

    def review(self, ticket: int, approve: bool) -> Correction:
        """Human review: approve integrates the correction.

        Raises :class:`UnknownTicketError` for a ticket that was never
        issued and :class:`TicketAlreadyReviewedError` for one already
        settled — re-applying a reviewed correction could silently
        overwrite a later reclassification.
        """
        if not 0 <= ticket < len(self._queue):
            raise UnknownTicketError(
                f"no correction ticket {ticket} "
                f"({len(self._queue)} issued)"
            )
        correction = self._queue[ticket]
        if correction.status is not CorrectionStatus.PENDING:
            raise TicketAlreadyReviewedError(
                f"ticket {ticket} already reviewed "
                f"({correction.status.value})"
            )
        if not approve:
            correction.status = CorrectionStatus.REJECTED
            return correction
        correction.status = CorrectionStatus.APPROVED
        old = self._asdb.dataset.get(correction.asn)
        record = ASdbRecord(
            asn=correction.asn,
            labels=correction.proposed,
            stage=old.stage if old else Stage.ONE_SOURCE,
            domain=old.domain if old else None,
            sources=("community",),
            org_key=old.org_key if old else None,
        )
        # The superseded record may be cached under several aliases
        # (name key, domain key, bare org key); every one of them must
        # stop serving the pre-correction answer.
        if old is not None:
            self._asdb.cache.invalidate_keys(
                old.cache_keys + (old.org_key,)
            )
            self._asdb.cache.invalidate_record(old)
        self._asdb.dataset.add(record)
        if record.org_key is not None:
            self._asdb.cache.put(record.org_key, record)
        return correction
