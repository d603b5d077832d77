"""Dependency-free asyncio HTTP service over hot dataset snapshots.

The query API the paper's "continuously refreshed product" story
implies, built on two invariants:

* **Immutable index, atomic swap.**  Every request reads
  ``self._index`` exactly once into a local; all of its answers come
  from that one :class:`~repro.serving.index.ReadIndex`.  A refresh
  builds a complete new index off the read path and publishes it with
  a single attribute assignment — readers mid-request keep the old
  index, new requests see the new one, nobody locks anything.
* **Work off the read path.**  Unknown-ASN lookups enqueue onto the
  bounded :class:`~repro.serving.queue.ClassificationQueue` and answer
  ``202`` with a retry hint; a worker thread classifies in the
  background and the results arrive via the next swap.

Endpoints (JSON unless noted)::

    GET  /healthz        liveness + generation + queue depth
    GET  /version        IndexVersion facts for the served build
    GET  /categories     layer-1 histogram + stage counts
    GET  /asn/{asn}      one record (404 unknown, 202 queued, 503 full)
    GET  /org/{query}    token-match organizations (?limit=N, capped)
    GET  /metrics        Prometheus text exposition (text/plain)
    POST /refresh        admin: rebuild from the source and swap

Every GET endpoint also answers ``HEAD`` (same headers and
Content-Length, no body), and a known path hit with the wrong method
gets a proper ``405`` with an ``Allow`` header.  ``/asn/{asn}``,
``/categories``, and ``/version`` responses are immutable for the
lifetime of one index generation, so the service pre-renders their
exact bytes into a per-generation cache (memoized on first hit, dying
with the index at swap time) and stamps a strong ``ETag`` (generation
+ release digest); a poller sending ``If-None-Match`` gets a bodyless
``304 Not Modified`` until a refresh actually lands.

``POST /refresh`` absorbs a new release in O(changed) when it can:
with an incremental refresh source attached, the snapshot lineage is
checked against the served ``IndexVersion`` (snapshot version +
digest) and the recorded deltas are applied copy-on-write onto the
previous immutable index; any mismatch falls back to the full
rebuild.  Both the read index and the history index successors are
built *before* either is published, then swapped pairwise, so a
rebuild failure leaves the service on the old, mutually consistent
pair.

and, when the service was built from a snapshot store (a
:class:`~repro.serving.index.HistoryIndex` is attached), the temporal
pair from ROADMAP item 3::

    GET  /asn/{asn}/history      per-release classification trajectory
    GET  /asof/{day}/asn/{asn}   the record in force on a given day

The HTTP layer is a minimal HTTP/1.1 implementation over
``asyncio.start_server`` — GET/POST only, keep-alive, Content-Length
framing — because the serving contract (stdlib only) rules out real
web frameworks.  All routing and response logic lives in the
synchronous, thread-safe :meth:`ServingApp.handle_request`, so tests
and benchmarks can drive the service without sockets.

Observability: requests meter ``asdb_serve_requests_total`` /
``asdb_serve_seconds`` per endpoint, swaps meter
``asdb_serve_swaps_total``, the history build meters
``asdb_serve_history_versions`` / ``asdb_serve_history_asns``; with a
run ledger attached the service emits ``serve.start`` / ``serve.swap``
/ ``serve.history_swap`` / ``serve.queue`` / ``serve.error`` /
``serve.stop`` events (see :mod:`repro.obs.runlog`).  A request whose
handler raises answers ``500`` with ``Connection: close``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote

from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..obs.runlog import NULL_RUNLOG
from .index import HistoryIndex, ReadIndex, record_view
from .queue import (
    OFFER_FULL,
    OFFER_QUEUED,
    ClassificationQueue,
    QueueWorker,
)

__all__ = ["ServingApp", "Response"]

_log = logging.getLogger(__name__)

#: (status, JSON-able body or raw text, extra headers)
Response = Tuple[int, object, Dict[str, str]]

_REASONS = {
    200: "OK",
    202: "Accepted",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Endpoint slugs used as the metrics label — bounded cardinality, no
#: raw paths.
_ENDPOINTS = (
    "healthz", "version", "categories", "asn", "org", "metrics",
    "refresh", "history", "asof", "other",
)

#: Routes whose 200 responses are immutable per index generation and
#: therefore pre-rendered into the per-generation response cache.
_CACHEABLE_ROUTES = frozenset({"asn", "categories", "version"})

#: Per-generation response-cache entry ceiling — a backstop against a
#: scan of a million distinct ASNs pinning a body per ASN; entries past
#: the cap are computed per-request, never cached.
_CACHE_MAX_ENTRIES = 65536

#: Methods every read endpoint accepts.
_READ_METHODS = ("GET", "HEAD")

#: Default and ceiling for the ``/org/{query}`` ``?limit=`` parameter —
#: a broad token match over a large index stays bounded either way.
ORG_LIMIT_DEFAULT = 20
ORG_LIMIT_CAP = 200

#: Largest request body read (and discarded) to keep a connection
#: framed.  No endpoint takes a body, so a larger declared length is
#: refused with 413 rather than read.
MAX_BODY_BYTES = 65536


class ServingApp:
    """The ASdb query service over an immutable, swappable read index.

    Args:
        index: The initial :class:`ReadIndex` to serve.
        rebuild: ``rebuild(generation) -> ReadIndex`` — builds a fresh
            index from the backing source stamped with the given
            generation; :meth:`refresh` publishes its result.  None
            disables ``POST /refresh`` (405) and queue-driven swaps.
        queue: Bounded on-demand queue; None answers unknown ASNs with
            a plain 404 (read-only serving).
        worker: The queue's drain thread, when one exists; owned and
            stopped by :meth:`close`.
        metrics: Registry for the ``asdb_serve_*`` families; also the
            body of ``GET /metrics``.
        runlog: Run ledger for ``serve.*`` events; None stays silent.
        retry_after: Seconds clients should wait before retrying a 202
            or 503 (the ``Retry-After`` header).
        history: The :class:`HistoryIndex` serving the temporal
            endpoints; None answers them 404 (history needs a snapshot
            store behind the service).
        rebuild_history: ``rebuild_history(generation) -> HistoryIndex``
            — rebuilt and swapped alongside the read index on every
            :meth:`refresh`, so both views always cover the same
            release set.
        refresh_incremental: ``(generation, current_index) ->
            Optional[ReadIndex]`` — the O(changed) refresh path.
            Returns the delta-applied successor, or None when the
            backing lineage no longer matches the served index (then
            :meth:`refresh` falls back to ``rebuild``).
        refresh_history_incremental: ``(generation, current_history) ->
            Optional[HistoryIndex]`` — same contract for the history
            index; only consulted when the read index itself refreshed
            incrementally.
    """

    def __init__(
        self,
        index: ReadIndex,
        rebuild: Optional[Callable[[int], ReadIndex]] = None,
        queue: Optional[ClassificationQueue] = None,
        worker: Optional[QueueWorker] = None,
        metrics: Optional[MetricsRegistry] = None,
        runlog=None,
        retry_after: int = 1,
        history: Optional[HistoryIndex] = None,
        rebuild_history: Optional[Callable[[int], HistoryIndex]] = None,
        refresh_incremental: Optional[
            Callable[[int, ReadIndex], Optional[ReadIndex]]
        ] = None,
        refresh_history_incremental: Optional[
            Callable[[int, HistoryIndex], Optional[HistoryIndex]]
        ] = None,
    ) -> None:
        self._index = index
        self._rebuild = rebuild
        self._history = history
        self._rebuild_history = rebuild_history
        self._refresh_incremental = refresh_incremental
        self._refresh_history_incremental = refresh_history_incremental
        self.queue = queue
        self.worker = worker
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.runlog = runlog if runlog is not None else NULL_RUNLOG
        self._retry_after = max(0, int(retry_after))
        self._server: Optional[asyncio.AbstractServer] = None

        self._m_requests = self.metrics.counter(
            "asdb_serve_requests_total",
            "Serving requests by endpoint and status.",
            ("endpoint", "status"),
        )
        self._m_seconds = self.metrics.histogram(
            "asdb_serve_seconds",
            "Request handling latency by endpoint.",
            ("endpoint",),
        )
        self._m_swaps = self.metrics.counter(
            "asdb_serve_swaps_total", "Index swaps published."
        )
        self._m_records = self.metrics.gauge(
            "asdb_serve_index_records", "Records in the served index."
        )
        self._m_records.set(len(index))
        self._m_history_versions = self.metrics.gauge(
            "asdb_serve_history_versions",
            "Releases covered by the served history index.",
        )
        self._m_history_asns = self.metrics.gauge(
            "asdb_serve_history_asns",
            "ASes with a timeline in the served history index.",
        )
        self._m_refresh_incremental = self.metrics.counter(
            "asdb_serve_refresh_incremental_total",
            "Refreshes absorbed by delta-applying onto the live index.",
        )
        self._m_refresh_full = self.metrics.counter(
            "asdb_serve_refresh_full_total",
            "Refreshes that rebuilt the index from scratch.",
        )
        self._m_cache_hits = self.metrics.counter(
            "asdb_serve_cache_hits_total",
            "Responses served from the per-generation response cache.",
        )
        self._m_cache_misses = self.metrics.counter(
            "asdb_serve_cache_misses_total",
            "Cacheable responses rendered (and memoized) on demand.",
        )
        if history is not None:
            self._m_history_versions.set(history.latest_version)
            self._m_history_asns.set(len(history))

    # -- index lifecycle -----------------------------------------------------

    @property
    def index(self) -> ReadIndex:
        """The currently served index (a point-in-time handle)."""
        return self._index

    def swap(self, index: ReadIndex) -> None:
        """Atomically publish a new index.

        A single reference assignment: requests already holding the old
        index finish against it; everything after sees the new one.
        """
        self._index = index
        self._m_swaps.inc(1)
        self._m_records.set(len(index))
        self.runlog.emit(
            "serve.swap",
            generation=index.version.generation,
            records=index.version.records,
            snapshot_version=index.version.snapshot_version,
        )

    @property
    def history(self) -> Optional[HistoryIndex]:
        """The currently served history index, when one is attached."""
        return self._history

    def swap_history(self, history: HistoryIndex) -> None:
        """Atomically publish a new history index.

        Same discipline as :meth:`swap`: one reference assignment, so a
        request mid-flight keeps answering from the history it already
        read while new requests see the fresh one.
        """
        self._history = history
        self._m_history_versions.set(history.latest_version)
        self._m_history_asns.set(len(history))
        self.runlog.emit(
            "serve.history_swap",
            generation=history.generation,
            versions=history.latest_version,
            asns=len(history),
        )

    def refresh(self) -> ReadIndex:
        """Absorb the backing source's current state and swap it in.

        Prefers the O(changed) incremental path when one is attached
        and the source lineage still matches the served index (snapshot
        version + digest); otherwise rebuilds from scratch.  When a
        history source is attached, the history successor is built
        *before* either swap — a failure anywhere leaves the service on
        the old, mutually consistent index/history pair — and both are
        then published pairwise, stamped with the same generation.  The
        ``serve.rebuild`` span covers both builds and notes both modes;
        the chosen path also lands in the ``serve.refresh_mode`` ledger
        event and the ``asdb_serve_refresh_incremental_total`` /
        ``asdb_serve_refresh_full_total`` counters.
        """
        if self._rebuild is None:
            raise RuntimeError("service has no rebuild source")
        generation = self._index.version.generation + 1
        mode = "full"
        index: Optional[ReadIndex] = None
        history: Optional[HistoryIndex] = None
        history_mode = None
        with self.runlog.span("serve.rebuild") as span:
            if self._refresh_incremental is not None:
                try:
                    index = self._refresh_incremental(
                        generation, self._index
                    )
                except Exception as exc:  # noqa: BLE001 - fall back
                    self.runlog.emit(
                        "serve.refresh_fallback", error=repr(exc)
                    )
                    index = None
                if index is not None:
                    mode = "incremental"
            if index is None:
                index = self._rebuild(generation)
            if self._rebuild_history is not None:
                if (mode == "incremental"
                        and self._history is not None
                        and self._refresh_history_incremental is not None):
                    history = self._refresh_history_incremental(
                        generation, self._history
                    )
                history_mode = ("incremental" if history is not None
                                else "full")
                if history is None:
                    history = self._rebuild_history(generation)
            span.note(
                generation=index.version.generation,
                records=index.version.records,
                mode=mode,
                history_mode=history_mode,
            )
        if mode == "incremental":
            self._m_refresh_incremental.inc(1)
        else:
            self._m_refresh_full.inc(1)
        self.runlog.emit(
            "serve.refresh_mode",
            mode=mode,
            history_mode=history_mode,
            generation=generation,
            snapshot_version=index.version.snapshot_version,
            records=index.version.records,
        )
        self.swap(index)
        if history is not None:
            self.swap_history(history)
        return index

    def on_drained(self, asns: List[int]) -> None:
        """Queue-worker hook: surface freshly classified ASNs.

        Emits the ledger event and, when a rebuild source exists,
        publishes the swap that makes the results visible.
        """
        self.runlog.emit("serve.queue", drained=len(asns), asns=asns[:32])
        if self._rebuild is not None:
            self.refresh()

    # -- request handling (sync, thread-safe) --------------------------------

    def handle_request(
        self,
        method: str,
        target: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Route one request; returns ``(status, body, headers)``.

        Reads ``self._index`` once and answers entirely from that
        snapshot — the swap-consistency contract lives here.  Bodies
        are JSON-able dicts except ``/metrics`` (Prometheus text).
        ``headers`` carries request headers (lower-cased names);
        ``If-None-Match`` against the served ETag short-circuits the
        cacheable endpoints to a bodyless 304.
        """
        status, body, response_headers, _ = self._respond(
            method, target, headers
        )
        return status, body, response_headers

    def _respond(
        self,
        method: str,
        target: str,
        request_headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, object, Dict[str, str], Optional[bytes]]:
        """Route one request, consulting the per-generation response
        cache; returns ``(status, body, headers, payload)`` where
        ``payload`` is the pre-rendered body bytes when the response
        came from (or just entered) the cache, else None.  A handler
        that raises answers 500 and leaves a ``serve.error`` ledger
        event.
        """
        method = method.upper()
        path, _, query_string = target.partition("?")
        endpoint = self._endpoint_of(path)
        start = time.perf_counter()
        try:
            result = self._routed(
                method, target, path, query_string,
                request_headers or {},
            )
        except Exception as exc:  # noqa: BLE001 - answer, never drop
            _log.exception("%s %s failed", method, path)
            self.runlog.emit(
                "serve.error", endpoint=endpoint, error=repr(exc)
            )
            result = (
                500, {"error": f"{type(exc).__name__}: {exc}"}, {}, None
            )
        finally:
            elapsed = time.perf_counter() - start
            self._m_seconds.observe(elapsed, endpoint=endpoint)
        self._m_requests.inc(1, endpoint=endpoint, status=str(result[0]))
        return result

    def _routed(
        self,
        method: str,
        target: str,
        path: str,
        query_string: str,
        request_headers: Dict[str, str],
    ) -> Tuple[int, object, Dict[str, str], Optional[bytes]]:
        # The one read of each served view; everything below — routing,
        # cache lookups, cache *stores* — uses these locals, never the
        # attributes.  Storing into ``index.response_cache`` (the very
        # index that produced the body) is what keeps a swap racing a
        # miss from poisoning the new generation's cache.
        index = self._index
        history = self._history
        lookup = "GET" if method == "HEAD" else method
        parts = [part for part in path.split("/") if part]
        route, allowed = self._resolve(parts)
        cacheable = lookup == "GET" and route in _CACHEABLE_ROUTES
        if cacheable:
            etag = index.etag
            if self._etag_matches(
                request_headers.get("if-none-match"), etag
            ):
                return 304, "", {"ETag": etag}, b""
            entry = index.response_cache.get(target)
            if entry is not None:
                self._m_cache_hits.inc(1)
                return entry
            self._m_cache_misses.inc(1)
        status, body, headers = self._route(
            lookup, path, parts, route, allowed, query_string,
            index, history,
        )
        if cacheable and status == 200:
            headers["ETag"] = etag
            entry = (status, body, headers,
                     self._render_payload(body))
            if len(index.response_cache) < _CACHE_MAX_ENTRIES:
                index.response_cache[target] = entry
            return entry
        return status, body, headers, None

    @staticmethod
    def _etag_matches(header_value: Optional[str], etag: str) -> bool:
        """RFC 7232 ``If-None-Match``: ``*`` or any listed entity-tag
        (strong comparison — our tags are strong by construction)."""
        if not header_value:
            return False
        value = header_value.strip()
        if value == "*":
            return True
        return etag in (
            candidate.strip() for candidate in value.split(",")
        )

    @staticmethod
    def _render_payload(body: object) -> bytes:
        """The exact response body bytes for one routed body — the
        same rendering :meth:`_encode` would perform."""
        if isinstance(body, str):
            return body.encode("utf-8")
        return (json.dumps(body) + "\n").encode("utf-8")

    @staticmethod
    def _endpoint_of(path: str) -> str:
        parts = [part for part in path.strip("/").split("/") if part]
        if (len(parts) == 3 and parts[0] == "asn"
                and parts[2] == "history"):
            return "history"
        head = parts[0] if parts else "other"
        return head if head in _ENDPOINTS else "other"

    @staticmethod
    def _resolve(
        parts: List[str],
    ) -> Tuple[Optional[str], Tuple[str, ...]]:
        """``(route, allowed methods)`` for a path, or ``(None, ())``
        when no route exists — the split that lets wrong-method hits on
        known paths answer 405 + ``Allow`` instead of a blanket 404."""
        if len(parts) == 1 and parts[0] in (
            "healthz", "version", "categories", "metrics",
        ):
            return parts[0], _READ_METHODS
        if parts == ["refresh"]:
            return "refresh", ("POST",)
        if len(parts) == 2 and parts[0] == "asn":
            return "asn", _READ_METHODS
        if len(parts) == 2 and parts[0] == "org":
            return "org", _READ_METHODS
        if (len(parts) == 3 and parts[0] == "asn"
                and parts[2] == "history"):
            return "history", _READ_METHODS
        if (len(parts) == 4 and parts[0] == "asof"
                and parts[2] == "asn"):
            return "asof", _READ_METHODS
        return None, ()

    def _route(
        self,
        method: str,
        path: str,
        parts: List[str],
        route: Optional[str],
        allowed: Tuple[str, ...],
        query_string: str,
        index: ReadIndex,
        history: Optional[HistoryIndex],
    ) -> Response:
        if route is None:
            return self._error(404, f"no route for {path}")
        if method not in allowed:
            return 405, {
                "error": f"{method} is not allowed for {path}",
                "allow": list(allowed),
            }, {"Allow": ", ".join(allowed)}
        if route == "refresh":
            if self._rebuild is None:
                return self._error(
                    405, "refresh is disabled: no rebuild source"
                )
            new = self.refresh()
            return 200, {"swapped": True,
                         "version": new.version.to_dict()}, {}

        if parts == ["healthz"]:
            return 200, {
                "status": "ok",
                "generation": index.version.generation,
                "records": len(index),
                "queue_depth": (
                    self.queue.depth() if self.queue is not None else None
                ),
            }, {}
        if parts == ["version"]:
            return 200, index.version.to_dict(), {}
        if parts == ["categories"]:
            return 200, {
                "generation": index.version.generation,
                "categories": index.categories(),
                "stages": index.stage_counts(),
            }, {}
        if parts == ["metrics"]:
            return 200, self.metrics.to_prometheus(), {
                "Content-Type": "text/plain; version=0.0.4",
            }
        if len(parts) == 2 and parts[0] == "asn":
            return self._get_asn(index, parts[1])
        if len(parts) == 2 and parts[0] == "org":
            return self._get_org(index, parts[1], query_string)
        if (len(parts) == 3 and parts[0] == "asn"
                and parts[2] == "history"):
            return self._get_history(history, parts[1])
        if (len(parts) == 4 and parts[0] == "asof"
                and parts[2] == "asn"):
            return self._get_asof(history, parts[1], parts[3])
        return self._error(404, f"no route for {path}")

    def _get_asn(self, index: ReadIndex, raw: str) -> Response:
        try:
            asn = int(unquote(raw))
        except ValueError:
            return self._error(400, f"not an ASN: {raw!r}")
        record = index.get(asn)
        if record is not None:
            return 200, {
                "generation": index.version.generation,
                "record": record_view(record),
            }, {}
        if self.queue is None:
            return self._error(404, f"AS{asn} is not in the dataset")
        failure = self.queue.failure(asn)
        if failure is not None:
            return self._error(
                404, f"AS{asn} could not be classified: {failure}"
            )
        outcome = self.queue.offer(asn)
        retry = {"Retry-After": str(self._retry_after)}
        if outcome == OFFER_FULL:
            return 503, {
                "error": "classification queue is full",
                "asn": asn,
                "retry_after": self._retry_after,
            }, retry
        return 202, {
            "status": outcome,
            "asn": asn,
            "retry_after": self._retry_after,
            "detail": (
                "classification queued; retry for the next index "
                "generation"
                if outcome == OFFER_QUEUED
                else "classification already pending"
            ),
        }, retry

    def _get_org(
        self, index: ReadIndex, raw: str, query_string: str
    ) -> Response:
        query = unquote(raw)
        limit = ORG_LIMIT_DEFAULT
        params = parse_qs(query_string)
        if "limit" in params:
            try:
                limit = max(1, min(ORG_LIMIT_CAP,
                                   int(params["limit"][0])))
            except ValueError:
                return self._error(
                    400, f"bad limit {params['limit'][0]!r} "
                    f"(want an integer, 1..{ORG_LIMIT_CAP})"
                )
        asns = index.org_matches(query)
        matches = [index.get(asn) for asn in asns[:limit]]
        return 200, {
            "generation": index.version.generation,
            "query": query,
            "count": len(matches),
            "total": len(asns),
            "limit": limit,
            "truncated": len(asns) > limit,
            "matches": [record_view(record) for record in matches],
        }, {}

    _NO_HISTORY = (
        "history is not served here: start the service from a "
        "snapshot store (repro serve --snapshots DIR) to enable "
        "temporal endpoints"
    )

    def _get_history(
        self, history: Optional[HistoryIndex], raw: str
    ) -> Response:
        if history is None:
            return self._error(404, self._NO_HISTORY)
        try:
            asn = int(unquote(raw))
        except ValueError:
            return self._error(400, f"not an ASN: {raw!r}")
        events = history.timeline(asn)
        if events is None:
            return self._error(
                404, f"AS{asn} never appears in the release history"
            )
        return 200, {
            "asn": asn,
            "generation": history.generation,
            "latest_version": history.latest_version,
            "events": [event.to_dict() for event in events],
        }, {}

    def _get_asof(
        self,
        history: Optional[HistoryIndex],
        raw_day: str,
        raw_asn: str,
    ) -> Response:
        if history is None:
            return self._error(404, self._NO_HISTORY)
        try:
            day = int(unquote(raw_day))
        except ValueError:
            return self._error(400, f"not a day: {raw_day!r}")
        try:
            asn = int(unquote(raw_asn))
        except ValueError:
            return self._error(400, f"not an ASN: {raw_asn!r}")
        version = history.version_on(day)
        if version is None:
            return self._error(
                404, f"no release at or before day {day}"
            )
        info = history.info(version)
        item = history.record_asof(asn, version)
        if item is None:
            return 404, {
                "error": (
                    f"AS{asn} was not in the dataset as of day {day}"
                ),
                "day": day,
                "version": version,
                "generation": history.generation,
            }, {}
        return 200, {
            "asn": asn,
            "day": day,
            "version": version,
            "since_day": info.since_day,
            "through_day": info.through_day,
            "digest": info.digest,
            "generation": history.generation,
            "record": item,
        }, {}

    @staticmethod
    def _error(status: int, message: str) -> Response:
        return status, {"error": message}, {}

    # -- asyncio HTTP layer --------------------------------------------------

    @staticmethod
    def _encode(status: int, body: object,
                headers: Dict[str, str],
                payload: Optional[bytes] = None,
                head_only: bool = False) -> bytes:
        """One wire response.  ``payload`` short-circuits body
        rendering with pre-cached bytes; ``head_only`` (HEAD requests)
        sends the real Content-Length but no body."""
        if isinstance(body, str):
            if payload is None:
                payload = body.encode("utf-8")
            content_type = headers.pop(
                "Content-Type", "text/plain; charset=utf-8"
            )
        else:
            if payload is None:
                payload = (json.dumps(body) + "\n").encode("utf-8")
            content_type = headers.pop("Content-Type", "application/json")
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
        ]
        lines.extend(f"{key}: {value}" for key, value in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head if head_only else head + payload

    @classmethod
    def _check_body_length(cls, length: str) -> Optional[bytes]:
        """The response refusing a ``Content-Length`` value, or None
        when the body can be read: 400 unless it is a decimal digit
        string, 413 above :data:`MAX_BODY_BYTES`.  Both close the
        connection, since the body cannot be framed or skipped."""
        if not (length.isascii() and length.isdigit()):
            status, message = 400, "malformed Content-Length"
        elif int(length) > MAX_BODY_BYTES:
            status, message = 413, (
                f"request body over {MAX_BODY_BYTES} bytes"
            )
        else:
            return None
        return cls._encode(
            status, {"error": message}, {"Connection": "close"}
        )

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    ConnectionResetError,
                ):
                    break
                request_line, _, header_block = raw.partition(b"\r\n")
                try:
                    method, target, http_version = (
                        request_line.decode("latin-1").split(" ", 2)
                    )
                except ValueError:
                    writer.write(self._encode(
                        400, {"error": "malformed request line"}, {}
                    ))
                    await writer.drain()
                    break
                header_lines = header_block.decode("latin-1").split("\r\n")
                header_map = {}
                for line in header_lines:
                    name, sep, value = line.partition(":")
                    if sep:
                        header_map[name.strip().lower()] = value.strip()
                # Discard any request body so the next request in the
                # pipeline frames correctly.
                length = header_map.get("content-length")
                if length:
                    refusal = self._check_body_length(length)
                    if refusal is not None:
                        writer.write(refusal)
                        await writer.drain()
                        break
                    await reader.readexactly(int(length))
                status, body, extra, payload = self._respond(
                    method.upper(), target, header_map
                )
                # A 500 closes: the failed handler may have left state
                # the next request on this connection should not meet.
                connection = header_map.get("connection", "").lower()
                keep_alive = (
                    status != 500
                    and connection != "close"
                    and http_version.strip() != "HTTP/1.0"
                )
                headers = dict(extra)
                headers["Connection"] = (
                    "keep-alive" if keep_alive else "close"
                )
                writer.write(self._encode(
                    status, body, headers, payload=payload,
                    head_only=(method.upper() == "HEAD"
                               or status == 304),
                ))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels in-flight handlers; absorbing the
            # cancellation here keeps task.exception() retrieval in
            # asyncio.streams from spamming the loop's error handler.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_client, host, port
        )
        bound_host, bound_port = (
            self._server.sockets[0].getsockname()[:2]
        )
        if self.worker is not None and not self.worker.is_alive():
            self.worker.start()
        self.runlog.emit(
            "serve.start",
            host=bound_host,
            port=bound_port,
            records=len(self._index),
            generation=self._index.version.generation,
        )
        return bound_host, bound_port

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled."""
        if self._server is None:
            raise RuntimeError("call start() first")
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and shut the worker down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.close()

    def close(self) -> None:
        """Synchronous teardown: stop the queue worker, log the stop."""
        if self.worker is not None:
            self.worker.stop()
        self.runlog.emit(
            "serve.stop", generation=self._index.version.generation
        )
