"""The run ledger: one durable NDJSON event log per dataset run.

PR 1's metrics and traces answer "what is the pipeline doing *right
now*" — and evaporate when the process exits.  Operating the paper's
Section-5.3 lifecycle (quarterly refreshes, bounded sweeps, correction
queues) needs the after-the-fact question answered too: what did run N
do, how long did each stage take, which sources degraded, did we stay
inside the freshness/accuracy budget?  A :class:`RunLog` persists that
history as newline-delimited JSON, one event per line, so ``repro
report`` and ``repro health`` can reconstruct a run from the ledger
alone, with no live process.

Event envelope (every line)::

    {"event": "<type>", "run": "<run id>", "seq": N, "t": <seconds>}

``seq`` is a per-ledger monotone sequence number and ``t`` is wall
seconds since the run started.  Core event types:

``run.start``
    Run id, kind (classify/sweep/refresh/snapshot), config + world
    digests, schema version, pid.
``span``
    One completed operation: ``span_id``, ``parent_id``, ``name``,
    ``duration``, ``status``, ``attributes``, and a ``worker`` stanza
    (kind ``main``/``thread``, thread name and pid) so events emitted
    from pool threads stitch into one causal tree under the run id.
``as.trace``
    One AS's :class:`~repro.obs.trace.ClassificationTrace` (spans,
    error, tags) — the per-stage substrate ``repro report`` aggregates.
``resource.sample``
    RSS / high-water mark (``/proc/self/status``, fallback-safe), CPU
    and wall time, plus caller-provided stats snapshots (org cache,
    kernels, feature cache).
``run.end``
    Status, duration, the full metrics-registry JSON snapshot, degraded
    source tallies, and circuit-breaker states.

The serving layer (:mod:`repro.serving`) adds its own family:
``serve.start`` (bound host/port, initial generation), ``serve.swap``
(one per atomic index swap: generation, record count, snapshot
version), ``serve.queue`` (each background drain of the on-demand
classification queue), ``serve.rebuild`` spans around index
materialization, and ``serve.stop``.

:meth:`RunLog.emit_span` is the only writer of ``span`` events, and
every span id comes from the ledger's one counter.  Context-managed
spans (:meth:`RunLog.span`, the in-flight span of
:mod:`repro.obs.trace`) end through it, and thread-pool workers call it
directly (the ledger is lock-protected).

Like every ``repro.obs`` facility the ledger is opt-in and inert by
default: :data:`NULL_RUNLOG` is a ``RunLog`` with no path, which opens
no file, starts no thread and returns from every call before taking its
lock, so a run without ``--runlog`` is byte-identical to one before
this module existed.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from typing import Callable, Dict, IO, List, Mapping, Optional

from .trace import NULL_SPAN, _SpanRecorder

__all__ = [
    "LEDGER_SCHEMA",
    "RunLog",
    "NULL_RUNLOG",
    "config_digest",
    "read_ledger",
    "read_rss_kb",
]

LEDGER_SCHEMA = "asdb-repro/runlog/1"


def config_digest(document: Mapping[str, object]) -> str:
    """Stable digest of a JSON-able mapping (sorted-key blake2b-64).

    Used for both the config digest and the world digest in
    ``run.start``: two runs with the same digest were launched with the
    same knobs over the same world.
    """
    material = json.dumps(document, sort_keys=True, default=str)
    return hashlib.blake2b(
        material.encode("utf-8"), digest_size=8
    ).hexdigest()


def read_rss_kb() -> Dict[str, Optional[int]]:
    """Current and peak resident set size in kilobytes, fallback-safe.

    Prefers ``/proc/self/status`` (Linux); falls back to
    ``resource.getrusage`` (POSIX; peak only); reports ``None`` fields
    on platforms providing neither.  Never raises.
    """
    rss: Optional[int] = None
    hwm: Optional[int] = None
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1])
                elif line.startswith("VmHWM:"):
                    hwm = int(line.split()[1])
    except OSError:
        pass
    if rss is None and hwm is None:
        try:
            import resource

            usage = resource.getrusage(resource.RUSAGE_SELF)
            # ru_maxrss is KiB on Linux, bytes on macOS; either way it
            # is a peak, not a current figure.
            hwm = int(usage.ru_maxrss)
        except Exception:
            pass
    return {"rss_kb": rss, "hwm_kb": hwm}


class RunLog:
    """A structured, append-only event ledger for one run.

    Args:
        path: Ledger file to (over)write, NDJSON, one event per line.
            None makes a disabled ledger (:data:`NULL_RUNLOG`) that
            accepts the full API and records nothing.
        kind: Run kind recorded in ``run.start`` (``classify``,
            ``sweep``, ``refresh``, ``snapshot``, ...).
        config: JSON-able run configuration; digested into
            ``config_digest`` and embedded verbatim.
        world: JSON-able world provenance (n_orgs, seed, ...); digested
            into ``world_digest``.

    Thread-safe: the batch engine's pool workers emit through the same
    instance, serialized by one lock, each line flushed as written so a
    crashed run still leaves a readable prefix.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        kind: str = "run",
        config: Optional[Mapping[str, object]] = None,
        world: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.path = path
        self.kind = kind
        #: False for the disabled ledger; instrumented code may skip
        #: work that only feeds the ledger.
        self.enabled = path is not None
        self.run_id = ""
        self._origin = time.perf_counter()
        self._cpu_origin = time.process_time()
        self._lock = threading.Lock()
        self._seq = 0
        self._span_counter = 0
        self._closed = False
        self._sampler_thread: Optional[threading.Thread] = None
        self._sampler_stop = threading.Event()
        if not self.enabled:
            return
        config = dict(config or {})
        world = dict(world or {})
        self.run_id = hashlib.blake2b(
            f"{kind}|{config_digest(config)}|{config_digest(world)}"
            f"|{os.getpid()}|{time.time_ns()}".encode(),
            digest_size=6,
        ).hexdigest()
        self._handle: IO[str] = open(path, "w")
        self.emit(
            "run.start",
            schema=LEDGER_SCHEMA,
            kind=kind,
            config=config,
            config_digest=config_digest(config),
            world=world,
            world_digest=config_digest(world),
            pid=os.getpid(),
        )

    # -- emission -----------------------------------------------------------

    def elapsed(self) -> float:
        """Wall seconds since the run started."""
        return time.perf_counter() - self._origin

    def worker_stanza(self) -> Dict[str, object]:
        """Identity of the emitting execution context."""
        thread = threading.current_thread()
        kind = "main" if thread is threading.main_thread() else "thread"
        return {"kind": kind, "name": thread.name, "pid": os.getpid()}

    def emit(self, event: str, **fields: object) -> None:
        """Append one event line (no-op when disabled or after
        :meth:`close`)."""
        if not self.enabled:
            return
        with self._lock:
            if self._closed:
                return
            record: Dict[str, object] = {
                "event": event,
                "run": self.run_id,
                "seq": self._seq,
                "t": round(self.elapsed(), 6),
            }
            record.update(fields)
            self._seq += 1
            self._handle.write(
                json.dumps(record, sort_keys=True, default=str) + "\n"
            )
            self._handle.flush()

    def _next_span_id(self) -> str:
        with self._lock:
            self._span_counter += 1
            return f"s{self._span_counter:04d}"

    def emit_span(
        self,
        name: str,
        duration: float,
        parent: Optional[str] = None,
        status: str = "",
        attributes: Optional[Mapping[str, object]] = None,
        span_id: Optional[str] = None,
    ) -> None:
        """Write one completed ``span`` event — the ledger's only span
        writer.

        The id comes from the ledger's counter unless ``span_id``
        carries one already drawn from it (a context-managed span, whose
        children needed its id before it finished).  The ``worker``
        stanza is the calling thread's.
        """
        if not self.enabled:
            return
        self.emit(
            "span",
            span_id=span_id or self._next_span_id(),
            parent_id=parent,
            name=name,
            duration=duration,
            status=status,
            attributes=attributes or {},
            worker=self.worker_stanza(),
        )

    def span(self, name: str, parent: Optional[str] = None):
        """``with runlog.span("classify") as span: ...`` — writes a
        ``span`` event on exit; ``span.span_id`` parents children.  An
        exception leaving the block sets status ``error: <Type>``
        unless the block set one."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanRecorder(
            self._end_span, name, self._next_span_id(), parent
        )

    def _end_span(
        self, span: _SpanRecorder, start: float, end: float, exc
    ) -> None:
        if exc is not None and not span.status:
            span.status = f"error: {type(exc).__name__}"
        self.emit_span(
            span.name, end - start, parent=span.parent_id,
            status=span.status, attributes=span.attributes,
            span_id=span.span_id,
        )

    # -- resource sampling --------------------------------------------------

    def sample_resources(
        self,
        providers: Optional[
            Mapping[str, Callable[[], Mapping[str, object]]]
        ] = None,
        phase: str = "",
    ) -> None:
        """Emit one ``resource.sample`` event.

        ``providers`` maps a stanza name (``cache``, ``kernels``,
        ``featcache``, ...) to a zero-argument callable returning a
        JSON-able mapping; a provider that raises is recorded as an
        error string rather than killing the run.
        """
        if not self.enabled:
            return
        sample: Dict[str, object] = dict(read_rss_kb())
        sample["cpu_seconds"] = round(
            time.process_time() - self._cpu_origin, 6
        )
        sample["wall_seconds"] = round(self.elapsed(), 6)
        if phase:
            sample["phase"] = phase
        for name, provider in (providers or {}).items():
            try:
                sample[name] = dict(provider())
            except Exception as exc:  # ledger must not kill the run
                sample[name] = {"error": f"{type(exc).__name__}: {exc}"}
        self.emit("resource.sample", **sample)

    def start_sampling(
        self,
        interval_seconds: float,
        providers: Optional[
            Mapping[str, Callable[[], Mapping[str, object]]]
        ] = None,
    ) -> None:
        """Start a daemon thread emitting ``resource.sample`` events
        every ``interval_seconds`` until :meth:`stop_sampling`/close."""
        if not self.enabled or self._sampler_thread is not None:
            return
        self._sampler_stop.clear()

        def _loop() -> None:
            while not self._sampler_stop.wait(interval_seconds):
                self.sample_resources(providers, phase="periodic")

        self._sampler_thread = threading.Thread(
            target=_loop, name="runlog-sampler", daemon=True
        )
        self._sampler_thread.start()

    def stop_sampling(self) -> None:
        """Stop the periodic sampler thread, if running."""
        if self._sampler_thread is None:
            return
        self._sampler_stop.set()
        self._sampler_thread.join(timeout=5.0)
        self._sampler_thread = None

    # -- lifecycle ----------------------------------------------------------

    def finish(
        self,
        status: str = "ok",
        metrics=None,
        **summary: object,
    ) -> None:
        """Emit the end-of-run summary and close the ledger.

        ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry`
        (duck-typed on ``snapshot``): its full JSON snapshot is embedded
        so the ledger alone reconstructs every counter the run emitted.
        Extra keyword stanzas (``degraded``, ``breakers``, ...) are
        recorded verbatim.
        """
        if not self.enabled:
            return
        self.stop_sampling()
        fields: Dict[str, object] = {
            "status": status,
            "duration": round(self.elapsed(), 6),
        }
        if metrics is not None:
            fields["metrics"] = metrics.snapshot()
        fields.update(summary)
        self.emit("run.end", **fields)
        self.close()

    def close(self) -> None:
        """Flush and close the file; later emissions are dropped."""
        if not self.enabled:
            return
        self.stop_sampling()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._handle.close()

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            self.finish(
                status="ok" if exc is None else
                f"error: {type(exc).__name__}"
            )


#: The shared disabled ledger every instrumented component defaults to.
NULL_RUNLOG = RunLog()


def read_ledger(path: str) -> List[Dict[str, object]]:
    """Parse an NDJSON ledger into its event dicts, in file order.

    Blank lines are skipped; a torn final line (crashed run) is
    dropped rather than raising, so a partial ledger still reports.
    """
    events: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail of a crashed run
    return events
