"""Per-AS pipeline tracing: one span per Figure-4 stage.

A :class:`TraceBuilder` records spans while :class:`~repro.core.pipeline.ASdb`
walks an AS through the pipeline; :meth:`TraceBuilder.finish` freezes the
result into a :class:`ClassificationTrace` that travels on the
``ASdbRecord``.  Each span carries wall time, a short ``status`` verdict
(``hit``/``miss``/``matched``/...), and free-form attributes (the chosen
domain, per-source match/reject reasons, the consensus decision).

The in-flight span here is the package's one span primitive: it times a
``with`` block and on exit hands itself to a sink — a
:class:`TraceBuilder` (per-AS traces, which also feed ``--profile``) or
a :class:`~repro.obs.runlog.RunLog` (the run ledger).  Every disabled
``span()`` call returns the shared :data:`NULL_SPAN`.

The module deliberately imports nothing from the rest of ``repro`` —
spans store plain strings and scalars — so any layer can depend on it.
A :class:`NullTraceBuilder` keeps the untraced hot path allocation-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "ClassificationTrace",
    "TraceBuilder",
    "NullTraceBuilder",
    "trace_builder",
    "NULL_SPAN",
]


@dataclass(frozen=True)
class Span:
    """One completed pipeline stage inside a trace.

    Attributes:
        name: Stage name (``cache``, ``asn_match``, ``domain_choice``,
            ``ml``, ``source_match``, ``consensus``).
        start_offset: Seconds from the start of the trace.
        duration: Wall time the stage took, in seconds.
        status: Short outcome verdict (stage-specific vocabulary).
        attributes: Stage detail, stringly keyed and JSON-able.
    """

    name: str
    start_offset: float
    duration: float
    status: str = ""
    attributes: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ClassificationTrace:
    """Everything observed while classifying one AS.

    Attributes:
        asn: The AS traced.
        spans: Completed stage spans, in execution order.
        total_seconds: End-to-end wall time.
        error: Why classification aborted, when it did (None on the
            normal path).  Set via :meth:`TraceBuilder.fail` by the
            drivers' error handling, so an aborted AS still leaves a
            finished, inspectable trace.
        tags: Provenance stamped on every trace of a pass — e.g. the
            maintenance sweep window and run id that caused the
            reclassification.  Excluded from equality, like wall times:
            the same classification swept on a different day is still
            the same classification.
    """

    asn: int
    spans: Tuple[Span, ...]
    total_seconds: float
    error: Optional[str] = None
    tags: Dict[str, object] = field(
        default_factory=dict, compare=False, repr=False
    )

    def span(self, name: str) -> Optional[Span]:
        """The first span with a given stage name, or None."""
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def stage_seconds(self) -> Dict[str, float]:
        """Stage name -> wall seconds (summed over repeated spans)."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def to_dict(self) -> Dict[str, object]:
        """JSON-able representation for export alongside the dataset."""
        document: Dict[str, object] = {
            "asn": self.asn,
            "total_seconds": self.total_seconds,
            "spans": [
                {
                    "name": span.name,
                    "start_offset": span.start_offset,
                    "duration": span.duration,
                    "status": span.status,
                    "attributes": dict(span.attributes),
                }
                for span in self.spans
            ],
        }
        if self.error is not None:
            document["error"] = self.error
        if self.tags:
            document["tags"] = dict(self.tags)
        return document


class _SpanRecorder:
    """Mutable in-flight span.

    On exit it calls ``sink(span, start, end, exc)`` with its
    ``perf_counter`` bounds and the exception that ended the block (None
    on a normal exit); the sink decides what the finished span becomes.
    ``span_id``/``parent_id`` are the ledger's causal links (None in a
    per-AS trace).
    """

    __slots__ = (
        "_sink", "span_id", "parent_id", "name", "status", "attributes",
        "_start",
    )

    def __init__(
        self,
        sink: Callable[..., None],
        name: str,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        self._sink = sink
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.status = ""
        self.attributes: Dict[str, object] = {}

    def set_status(self, status: str) -> "_SpanRecorder":
        self.status = status
        return self

    def note(self, **attributes: object) -> "_SpanRecorder":
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "_SpanRecorder":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._sink(self, self._start, time.perf_counter(), exc)


class _NullSpan:
    """What every disabled ``span()`` returns: accepts the in-flight
    span API and records nothing."""

    __slots__ = ()

    span_id = None
    parent_id = None
    name = ""
    status = ""

    def set_status(self, status: str) -> "_NullSpan":
        return self

    def note(self, **attributes: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NULL_SPAN = _NullSpan()


class TraceBuilder:
    """Collects spans for one AS classification."""

    def __init__(
        self, asn: int, tags: Optional[Dict[str, object]] = None
    ) -> None:
        self.asn = asn
        self._origin = time.perf_counter()
        self._spans: List[Span] = []
        self._error: Optional[str] = None
        self._tags: Dict[str, object] = dict(tags) if tags else {}

    def span(self, name: str) -> _SpanRecorder:
        """``with builder.span("ml") as span: ...`` records one stage.

        An exception leaving the block does not change the span's
        status: aborts are recorded once, on the trace (:meth:`fail`).
        """
        return _SpanRecorder(self._record, name)

    def fail(self, message: str) -> None:
        """Mark the classification as aborted; the first error sticks."""
        if self._error is None:
            self._error = message

    def _record(
        self, span: _SpanRecorder, start: float, end: float, exc
    ) -> None:
        self._spans.append(
            Span(
                name=span.name,
                start_offset=start - self._origin,
                duration=end - start,
                status=span.status,
                attributes=span.attributes,
            )
        )

    def finish(self) -> ClassificationTrace:
        """Freeze the collected spans into a trace."""
        return ClassificationTrace(
            asn=self.asn,
            spans=tuple(self._spans),
            total_seconds=time.perf_counter() - self._origin,
            error=self._error,
            tags=self._tags,
        )


class NullTraceBuilder:
    """Accepts the full builder API and records nothing."""

    __slots__ = ()

    asn = -1

    def span(self, name: str) -> _NullSpan:
        return NULL_SPAN

    def fail(self, message: str) -> None:
        return None

    def finish(self) -> None:
        return None


_NULL_BUILDER = NullTraceBuilder()


def trace_builder(
    asn: int, enabled: bool, tags: Optional[Dict[str, object]] = None
):
    """A real :class:`TraceBuilder` when enabled, else the shared no-op."""
    return TraceBuilder(asn, tags=tags) if enabled else _NULL_BUILDER
