"""Tests for the async serving layer (`repro.serving`).

The contracts under test:

* the read index is immutable and answers by-ASN / by-org / category
  queries exactly like the dataset it was built from;
* a swap is atomic from a reader's point of view: a request observes
  one generation in full, never a blend of two, with no lock taken;
* unknown ASNs flow through the bounded background queue — 202 with a
  retry hint, 503 on overflow, a definitive 404 once classification
  provably failed — and results surface via the next swap;
* the asyncio HTTP layer speaks enough HTTP/1.1 (keep-alive,
  Content-Length framing) for stdlib clients and curl.
"""

import asyncio
import http.client
import json
import os
import random
import socket
import threading
import time

import pytest

from repro import SystemConfig, WorldConfig, build_asdb, generate_world
from repro.core import ASdbRecord, ReleaseHistory, SnapshotStore, Stage
from repro.core.database import ASdbDataset
from repro.core.history import event_for
from repro.obs import MetricsRegistry, RunLog, read_ledger
from repro.serving import (
    OFFER_FULL,
    OFFER_PENDING,
    OFFER_QUEUED,
    ClassificationQueue,
    HistoryIndex,
    QueueWorker,
    ReadIndex,
    ServingApp,
    history_from_snapshots,
    index_from_snapshots,
    index_from_store,
    record_view,
    refresh_history_from_snapshots,
    refresh_index_from_snapshots,
)
from repro.serving.app import MAX_BODY_BYTES
from repro.taxonomy import LabelSet


def _record(asn, slugs=("isp",), stage=Stage.ONE_SOURCE, org=None,
            domain=None):
    return ASdbRecord(
        asn=asn,
        labels=LabelSet.from_layer2_slugs(list(slugs)),
        stage=stage,
        domain=domain,
        org_key=f"name:{org}" if org else (
            f"domain:{domain}" if domain else None
        ),
    )


def _dataset(records):
    dataset = ASdbDataset()
    for record in records:
        dataset.add(record)
    return dataset


@pytest.fixture(scope="module")
def classified():
    """A small classified world (no ML) shared by the API tests."""
    world = generate_world(WorldConfig(n_orgs=40, seed=7))
    built = build_asdb(world, SystemConfig(seed=7, train_ml=False))
    dataset = built.asdb.classify_all()
    return world, built, dataset


class TestReadIndex:
    def test_build_matches_dataset(self, classified):
        _, _, dataset = classified
        index = ReadIndex.build(dataset, source="test")
        assert len(index) == len(dataset)
        assert index.version.records == len(dataset)
        assert index.version.coverage == pytest.approx(
            dataset.coverage()
        )
        for record in dataset:
            assert index.get(record.asn) == record
            assert record.asn in index
        assert index.categories() == dataset.category_histogram()
        assert index.stage_counts_typed() == dataset.stage_counts()

    def test_get_unknown(self):
        index = ReadIndex.build([_record(1)])
        assert index.get(2) is None
        assert 2 not in index

    def test_search_org_by_name_tokens(self):
        index = ReadIndex.build([
            _record(1, org="Acme Holdings"),
            _record(2, org="Acme Networks"),
            _record(3, org="Globex"),
        ])
        hits = index.search_org("acme")
        assert [record.asn for record in hits] == [1, 2]
        assert [r.asn for r in index.search_org("acme networks")] == [2]
        assert index.search_org("initech") == []

    def test_search_org_by_domain(self):
        index = ReadIndex.build([
            _record(9, domain="acme-networks.example"),
        ])
        assert [r.asn for r in index.search_org("acme-networks.example")] \
            == [9]

    def test_search_limit_ascending(self):
        index = ReadIndex.build(
            [_record(asn, org="Acme") for asn in range(50, 0, -1)]
        )
        hits = index.search_org("acme", limit=5)
        assert [record.asn for record in hits] == [1, 2, 3, 4, 5]

    def test_record_view_shape(self):
        record = _record(7, domain="x.example")
        view = record_view(record)
        assert view["asn"] == 7
        assert view["classified"] is True
        assert view["confidence"] == record.stage.prior_accuracy
        assert json.dumps(view)  # JSON-able

    def test_index_is_immutable_surface(self):
        index = ReadIndex.build([_record(1, slugs=("isp",))])
        index.categories()["isp-zzz"] = 99
        index.stage_counts()["fake"] = 1
        assert "isp-zzz" not in index.categories()
        assert "fake" not in index.stage_counts()


class TestRouting:
    def _app(self, records=None, **kwargs):
        index = ReadIndex.build(records or [_record(1)], source="unit")
        return ServingApp(index, **kwargs)

    def test_healthz(self):
        status, body, _ = self._app().handle_request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["generation"] == 1
        assert body["queue_depth"] is None

    def test_version(self):
        status, body, _ = self._app().handle_request("GET", "/version")
        assert status == 200
        assert body == {
            "generation": 1, "records": 1, "coverage": 1.0,
            "source": "unit", "snapshot_version": None, "digest": None,
        }

    def test_categories(self):
        app = self._app([_record(1), _record(2, slugs=("hosting",))])
        status, body, _ = app.handle_request("GET", "/categories")
        assert status == 200
        assert body["categories"] == {"computer_and_it": 2}
        assert body["stages"] == {Stage.ONE_SOURCE.value: 2}

    def test_asn_found(self):
        status, body, _ = self._app().handle_request("GET", "/asn/1")
        assert status == 200
        assert body["record"]["asn"] == 1

    def test_asn_not_an_int(self):
        status, body, _ = self._app().handle_request("GET", "/asn/xyz")
        assert status == 400
        assert "not an ASN" in body["error"]

    def test_asn_unknown_without_queue_is_404(self):
        status, body, _ = self._app().handle_request("GET", "/asn/404")
        assert status == 404

    def test_org_query_with_limit(self):
        app = self._app(
            [_record(asn, org="Acme Corp") for asn in (3, 1, 2)]
        )
        status, body, _ = app.handle_request("GET", "/org/acme?limit=2")
        assert status == 200
        assert body["count"] == 2
        assert [m["asn"] for m in body["matches"]] == [1, 2]

    def test_org_bad_limit(self):
        status, body, _ = self._app().handle_request(
            "GET", "/org/acme?limit=zz"
        )
        assert status == 400

    def test_org_percent_decoding(self):
        app = self._app([_record(5, org="Acme Corp")])
        status, body, _ = app.handle_request("GET", "/org/acme%20corp")
        assert status == 200
        assert body["count"] == 1

    def test_metrics_text(self):
        registry = MetricsRegistry()
        app = self._app(metrics=registry)
        app.handle_request("GET", "/healthz")
        status, body, headers = app.handle_request("GET", "/metrics")
        assert status == 200
        assert isinstance(body, str)
        assert "asdb_serve_requests_total" in body
        assert headers["Content-Type"].startswith("text/plain")

    def test_unknown_route(self):
        status, body, _ = self._app().handle_request("GET", "/nope")
        assert status == 404

    def test_unsupported_method(self):
        status, body, _ = self._app().handle_request("PUT", "/healthz")
        assert status == 405

    def test_post_refresh_without_rebuild_is_405(self):
        status, body, _ = self._app().handle_request("POST", "/refresh")
        assert status == 405

    def test_post_refresh_bumps_generation(self):
        records = [_record(1)]
        app = ServingApp(
            ReadIndex.build(records, generation=1),
            rebuild=lambda generation: ReadIndex.build(
                records + [_record(2)], generation=generation
            ),
        )
        status, body, _ = app.handle_request("POST", "/refresh")
        assert status == 200
        assert body["version"]["generation"] == 2
        assert body["version"]["records"] == 2
        status, body, _ = app.handle_request("GET", "/asn/2")
        assert status == 200

    def test_request_metrics_labelled_by_endpoint(self):
        registry = MetricsRegistry()
        app = self._app(metrics=registry)
        app.handle_request("GET", "/asn/1")
        app.handle_request("GET", "/asn/zz")
        counter = registry.get("asdb_serve_requests_total")
        assert counter.value(endpoint="asn", status="200") == 1
        assert counter.value(endpoint="asn", status="400") == 1
        seconds = registry.get("asdb_serve_seconds")
        assert seconds.count(endpoint="asn") == 2


class TestQueue:
    def test_offer_dedup_and_overflow(self):
        queue = ClassificationQueue(maxsize=2)
        assert queue.offer(1) == OFFER_QUEUED
        assert queue.offer(1) == OFFER_PENDING
        assert queue.offer(2) == OFFER_QUEUED
        assert queue.offer(3) == OFFER_FULL
        assert queue.depth() == 2

    def test_drain_and_settle(self):
        queue = ClassificationQueue(maxsize=8)
        for asn in (1, 2, 3):
            queue.offer(asn)
        batch = queue.drain(2)
        assert batch == [1, 2]
        # drained ASNs are in-flight: still pending, not re-queueable
        assert queue.offer(1) == OFFER_PENDING
        queue.settle(batch, failures={2: "boom"})
        assert queue.failure(2) == "boom"
        assert queue.failure(1) is None
        assert queue.drain(8) == [3]

    def test_queue_metrics(self):
        registry = MetricsRegistry()
        queue = ClassificationQueue(maxsize=1, metrics=registry)
        queue.offer(1)
        queue.offer(2)
        counter = registry.get("asdb_serve_queue_total")
        assert counter.value(outcome=OFFER_QUEUED) == 1
        assert counter.value(outcome=OFFER_FULL) == 1
        assert registry.get("asdb_serve_queue_depth").value() == 1

    def test_worker_falls_back_per_asn(self):
        """One bad ASN in a window cannot poison the good ones."""
        classified = []

        def classify(asns):
            if 13 in asns and len(asns) > 1:
                raise RuntimeError("batch poisoned")
            if asns == [13]:
                raise KeyError(13)
            classified.extend(asns)

        queue = ClassificationQueue(maxsize=8)
        landed_batches = []
        worker = QueueWorker(
            queue, classify=classify, after=landed_batches.append
        )
        for asn in (11, 13, 17):
            queue.offer(asn)
        landed = worker.process(queue.drain(8))
        assert landed == [11, 17]
        assert classified == [11, 17]
        assert "KeyError" in queue.failure(13)
        assert landed_batches == [[11, 17]]

    def test_bad_maxsize(self):
        with pytest.raises(ValueError):
            ClassificationQueue(maxsize=0)


class TestQueueRoutes:
    def _app(self, maxsize=2):
        queue = ClassificationQueue(maxsize=maxsize)
        index = ReadIndex.build([_record(1)])
        return ServingApp(index, queue=queue, retry_after=3), queue

    def test_unknown_asn_gets_202_with_retry_hint(self):
        app, queue = self._app()
        status, body, headers = app.handle_request("GET", "/asn/99")
        assert status == 202
        assert body["status"] == OFFER_QUEUED
        assert body["retry_after"] == 3
        assert headers["Retry-After"] == "3"
        # second lookup: still pending, still 202
        status, body, _ = app.handle_request("GET", "/asn/99")
        assert status == 202
        assert body["status"] == OFFER_PENDING
        assert queue.depth() == 1

    def test_queue_overflow_gets_503(self):
        app, _ = self._app(maxsize=1)
        assert app.handle_request("GET", "/asn/91")[0] == 202
        status, body, headers = app.handle_request("GET", "/asn/92")
        assert status == 503
        assert "full" in body["error"]
        assert headers["Retry-After"] == "3"

    def test_failed_asn_gets_definitive_404(self):
        app, queue = self._app()
        app.handle_request("GET", "/asn/99")
        worker = QueueWorker(
            queue,
            classify=lambda asns: (_ for _ in ()).throw(KeyError(99)),
        )
        worker.process(queue.drain(8))
        status, body, _ = app.handle_request("GET", "/asn/99")
        assert status == 404
        assert "could not be classified" in body["error"]


class TestAtomicSwap:
    """Readers racing a swap see one index generation in full."""

    ASNS = tuple(range(1, 41))

    def _indexes(self):
        v1 = [
            _record(asn, slugs=("isp",), domain=f"v1-{asn}.example")
            for asn in self.ASNS
        ]
        v2 = [
            _record(asn, slugs=("hosting",), domain=f"v2-{asn}.example")
            for asn in self.ASNS
        ]
        return (
            ReadIndex.build(v1, generation=1, source="v1"),
            ReadIndex.build(v2, generation=2, source="v2"),
        )

    def test_reads_never_blend_generations(self):
        idx1, idx2 = self._indexes()
        app = ServingApp(idx1)
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                for asn in (1, 17, 40):
                    status, body, _ = app.handle_request(
                        "GET", f"/asn/{asn}"
                    )
                    expected = f"v{body['generation']}-{asn}.example"
                    if status != 200 \
                            or body["record"]["domain"] != expected:
                        errors.append((asn, body))
                status, body, _ = app.handle_request(
                    "GET", "/categories"
                )
                want = (
                    {"computer_and_it": len(self.ASNS)}
                )
                if body["categories"] != want:
                    errors.append(("categories", body))
                # the per-generation label split must be all-or-nothing
                status, body, _ = app.handle_request("GET", "/version")
                if body["source"] != f"v{body['generation']}":
                    errors.append(("version", body))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for flip in range(400):
            app.swap(idx2 if flip % 2 == 0 else idx1)
        stop.set()
        for thread in readers:
            thread.join(10)
        assert not errors, errors[:5]

    def test_swap_updates_metrics_and_ledger(self, tmp_path):
        idx1, idx2 = self._indexes()
        registry = MetricsRegistry()
        ledger = tmp_path / "serve.ndjson"
        runlog = RunLog(str(ledger), kind="serve", config={}, world={})
        app = ServingApp(idx1, metrics=registry, runlog=runlog)
        app.swap(idx2)
        runlog.close()
        assert registry.get("asdb_serve_swaps_total").total() == 1
        assert registry.get("asdb_serve_index_records").value() == \
            len(self.ASNS)
        events = [
            event for event in read_ledger(str(ledger))
            if event["event"] == "serve.swap"
        ]
        assert len(events) == 1
        assert events[0]["generation"] == 2


class _HttpService:
    """Run a ServingApp's asyncio server in a background thread."""

    def __init__(self, app):
        self.app = app
        self._ready = threading.Event()
        self._loop = None
        self.address = None
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        async def main():
            self._loop = asyncio.get_running_loop()
            self.address = await self.app.start("127.0.0.1", 0)
            self._ready.set()
            try:
                await self.app.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await self.app.stop()

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "server did not start"
        return self

    def __exit__(self, *exc_info):
        for task in asyncio.all_tasks(self._loop):
            self._loop.call_soon_threadsafe(task.cancel)
        self._thread.join(10)

    def get(self, path):
        return self.request("GET", path)

    def request(self, method, path, headers=None):
        host, port = self.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(method, path, headers=headers or {})
            response = conn.getresponse()
            raw = response.read().decode()
            body = (
                json.loads(raw)
                if raw and response.getheader(
                    "Content-Type", "").startswith("application/json")
                else raw
            )
            return response.status, body, dict(response.getheaders())
        finally:
            conn.close()


class TestHttpEndToEnd:
    def test_all_endpoints_over_http(self, classified):
        _, _, dataset = classified
        index = index_from_store(dataset, source="memory")
        app = ServingApp(index)
        with _HttpService(app) as service:
            status, body, _ = service.get("/healthz")
            assert (status, body["status"]) == (200, "ok")
            status, body, _ = service.get("/version")
            assert body["records"] == len(dataset)
            status, body, _ = service.get("/categories")
            assert body["categories"] == dataset.category_histogram()
            asn = next(iter(dataset)).asn
            status, body, _ = service.get(f"/asn/{asn}")
            assert status == 200
            assert body["record"]["asn"] == asn
            domain = next(
                record.domain for record in dataset if record.domain
            )
            status, body, _ = service.get(f"/org/{domain}")
            assert status == 200
            assert body["count"] >= 1
            status, body, _ = service.get("/asn/999999999")
            assert status == 404

    def test_keep_alive_serves_many_requests_per_connection(
        self, classified
    ):
        _, _, dataset = classified
        app = ServingApp(index_from_store(dataset))
        with _HttpService(app) as service:
            host, port = service.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                for _ in range(20):
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
            finally:
                conn.close()

    def test_lazy_serving_202_then_200_after_swap(self, classified):
        world, built, _ = classified
        registry = MetricsRegistry()
        queue = ClassificationQueue(maxsize=64, metrics=registry)

        def rebuild(generation):
            return index_from_store(
                built.asdb.dataset, generation=generation,
                source="pipeline",
            )

        app = ServingApp(rebuild(1), rebuild=rebuild, queue=queue,
                         metrics=registry)
        app.worker = QueueWorker(
            queue,
            classify=lambda asns: built.asdb.classify_batch(asns),
            classify_one=built.asdb.classify,
            after=app.on_drained,
        )
        asn = world.asns()[-1]
        with _HttpService(app) as service:
            status, body, headers = service.get(f"/asn/{asn}")
            if status == 202:  # already classified module-wide otherwise
                assert "Retry-After" in headers
                deadline = time.time() + 20
                while time.time() < deadline:
                    status, body, _ = service.get(f"/asn/{asn}")
                    if status == 200:
                        break
                    time.sleep(0.05)
            assert status == 200
            assert body["record"]["asn"] == asn


def _raw_exchange(address, payload):
    """Send raw bytes; read until the server closes the connection."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(payload)
        received = b""
        while True:
            data = sock.recv(65536)
            if not data:
                return received
            received += data


class TestContentLengthFraming:
    @pytest.mark.parametrize("value, status", [
        ("abc", 400),
        ("-5", 400),
        ("1e3", 400),
        ("99999999999", 413),
        (str(MAX_BODY_BYTES + 1), 413),
    ])
    def test_unusable_length_is_refused_and_closed(
        self, classified, value, status
    ):
        _, _, dataset = classified
        with _HttpService(ServingApp(index_from_store(dataset))) as service:
            received = _raw_exchange(
                service.address,
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + value.encode() + b"\r\n\r\n",
            )
        head, _, body = received.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        assert "Connection: close" in lines
        assert "error" in json.loads(body)

    def test_bodies_within_the_cap_are_skipped(self, classified):
        _, _, dataset = classified
        with _HttpService(ServingApp(index_from_store(dataset))) as service:
            received = _raw_exchange(
                service.address,
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 5\r\n\r\nhello"
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n",
            )
        assert received.count(b"HTTP/1.1 200 OK") == 2


class TestHandlerErrors:
    """A handler that raises answers 500; the connection then closes."""

    @staticmethod
    def _failing_app(dataset, **kwargs):
        def rebuild(generation):
            raise RuntimeError("rebuild exploded")

        return ServingApp(
            index_from_store(dataset), rebuild=rebuild, **kwargs
        )

    def test_raising_handler_answers_500_and_closes(self, classified):
        _, _, dataset = classified
        with _HttpService(self._failing_app(dataset)) as service:
            received = _raw_exchange(
                service.address,
                b"POST /refresh HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            )
        head, _, body = received.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 500 Internal Server Error"
        assert "Connection: close" in lines
        # The pipelined second request is never answered.
        assert json.loads(body) == {"error": "RuntimeError: rebuild exploded"}

    def test_handle_request_counts_and_logs_the_500(
        self, classified, tmp_path
    ):
        _, _, dataset = classified
        registry = MetricsRegistry()
        ledger = tmp_path / "serve.ndjson"
        runlog = RunLog(str(ledger), kind="serve")
        app = self._failing_app(dataset, metrics=registry, runlog=runlog)
        old_index = app.index
        status, body, _ = app.handle_request("POST", "/refresh")
        assert (status, body) == (
            500, {"error": "RuntimeError: rebuild exploded"}
        )
        assert registry.get("asdb_serve_requests_total").value(
            endpoint="refresh", status="500"
        ) == 1
        # A direct call still raises; the old index keeps serving.
        with pytest.raises(RuntimeError, match="rebuild exploded"):
            app.refresh()
        assert app.index is old_index
        assert app.handle_request("GET", "/healthz")[0] == 200
        runlog.close()
        (error,) = [
            event for event in read_ledger(str(ledger))
            if event["event"] == "serve.error"
        ]
        assert error["endpoint"] == "refresh"
        assert error["error"] == repr(RuntimeError("rebuild exploded"))


class TestSnapshotServing:
    def _store(self, tmp_path, records):
        store = SnapshotStore(str(tmp_path / "releases"))
        store.save(_dataset(records))
        return store

    def test_materialize_returns_dataset_and_info(self, tmp_path):
        records = [_record(asn) for asn in (1, 2, 3)]
        store = self._store(tmp_path, records)
        dataset, info = store.materialize()
        assert sorted(record.asn for record in dataset) == [1, 2, 3]
        assert info.version == 1
        assert info.digest
        with pytest.raises(Exception):
            SnapshotStore(str(tmp_path / "empty")).materialize()

    def test_index_from_snapshots_carries_release_identity(
        self, tmp_path
    ):
        records = [_record(asn) for asn in (1, 2, 3)]
        store = self._store(tmp_path, records)
        index = index_from_snapshots(store.root)
        assert index.version.snapshot_version == 1
        assert index.version.digest == store.latest().digest
        assert len(index) == 3

    def test_refresh_rebuilds_history_in_same_generation(
        self, tmp_path
    ):
        store = SnapshotStore(str(tmp_path / "releases"))
        store.save(_dataset([_record(1), _record(2)]), window=(-1, 0))
        root = store.root
        app = ServingApp(
            index_from_snapshots(root),
            rebuild=lambda generation: index_from_snapshots(
                root, generation=generation
            ),
            history=history_from_snapshots(root),
            rebuild_history=lambda generation: history_from_snapshots(
                root, generation=generation
            ),
        )
        assert app.history.latest_version == 1
        SnapshotStore(root).save(
            _dataset([_record(1), _record(2), _record(3)]),
            window=(0, 90),
        )
        status, _, _ = app.handle_request("POST", "/refresh")
        assert status == 200
        assert app.history.latest_version == 2
        assert app.history.generation == \
            app.index.version.generation == 2
        status, body, _ = app.handle_request("GET", "/asn/3/history")
        assert status == 200
        assert [event["change"] for event in body["events"]] == ["added"]

    def test_refresh_picks_up_new_snapshot_version(self, tmp_path):
        records = [_record(asn) for asn in (1, 2)]
        store = self._store(tmp_path, records)
        root = store.root

        app = ServingApp(
            index_from_snapshots(root),
            rebuild=lambda generation: index_from_snapshots(
                root, generation=generation
            ),
        )
        # a new release lands (e.g. `repro refresh` in another process)
        SnapshotStore(root).save(
            _dataset(records + [_record(3, slugs=("hosting",))])
        )
        status, body, _ = app.handle_request("POST", "/refresh")
        assert status == 200
        assert body["version"]["snapshot_version"] == 2
        assert body["version"]["generation"] == 2
        status, body, _ = app.handle_request("GET", "/asn/3")
        assert status == 200

class TestTemporalServing:
    """The read-only history endpoints served from a HistoryIndex."""

    def _app(self, tmp_path, **kwargs):
        store = SnapshotStore(str(tmp_path / "releases"))
        store.save(
            _dataset([
                _record(1, slugs=("isp",)),
                _record(2, slugs=("streaming",)),
            ]),
            window=(-1, 0),
        )
        store.save(
            _dataset([
                _record(1, slugs=("banks",)),
                _record(3, slugs=("isp",)),
            ]),
            window=(0, 90),
        )
        index = index_from_snapshots(store.root)
        history = history_from_snapshots(store.root)
        return ServingApp(index, history=history, **kwargs)

    def test_history_endpoint_replays_timeline(self, tmp_path):
        app = self._app(tmp_path)
        status, body, _ = app.handle_request("GET", "/asn/1/history")
        assert status == 200
        assert body["asn"] == 1
        assert body["latest_version"] == 2
        changes = [event["change"] for event in body["events"]]
        assert changes == ["added", "updated"]
        cats = [event["categorization"] for event in body["events"]]
        assert cats == ["computer_and_it", "finance"]
        status, body, _ = app.handle_request("GET", "/asn/2/history")
        assert [event["change"] for event in body["events"]] == \
            ["added", "removed"]

    def test_history_endpoint_errors(self, tmp_path):
        app = self._app(tmp_path)
        status, body, _ = app.handle_request("GET", "/asn/x/history")
        assert status == 400
        status, body, _ = app.handle_request("GET", "/asn/99/history")
        assert status == 404
        assert "never appears" in body["error"]

    def test_asof_endpoint_resolves_day_to_version(self, tmp_path):
        app = self._app(tmp_path)
        status, body, _ = app.handle_request("GET", "/asof/0/asn/2")
        assert status == 200
        assert body["version"] == 1
        assert body["record"]["asn"] == 2
        status, body, _ = app.handle_request("GET", "/asof/90/asn/2")
        assert status == 404
        assert "not in the dataset" in body["error"]
        assert body["version"] == 2
        status, body, _ = app.handle_request("GET", "/asof/90/asn/3")
        assert status == 200
        assert body["digest"]
        assert (body["since_day"], body["through_day"]) == (0, 90)

    def test_asof_endpoint_errors(self, tmp_path):
        app = self._app(tmp_path)
        status, body, _ = app.handle_request("GET", "/asof/x/asn/1")
        assert status == 400
        status, body, _ = app.handle_request("GET", "/asof/0/asn/x")
        assert status == 400
        status, body, _ = app.handle_request("GET", "/asof/-10/asn/1")
        assert status == 404
        assert "no release at or before" in body["error"]

    def test_without_history_endpoints_404(self, classified):
        _, _, dataset = classified
        app = ServingApp(index_from_store(dataset))
        for target in ("/asn/1/history", "/asof/10/asn/1"):
            status, body, _ = app.handle_request("GET", target)
            assert status == 404
            assert "history is not served here" in body["error"]

    def test_history_swap_metrics_and_ledger(self, tmp_path):
        registry = MetricsRegistry()
        ledger = tmp_path / "serve.ndjson"
        runlog = RunLog(str(ledger), kind="serve", config={}, world={})
        app = self._app(tmp_path, metrics=registry, runlog=runlog)
        root = str(tmp_path / "releases")
        SnapshotStore(root).save(
            _dataset([_record(1), _record(3), _record(4)]),
            window=(90, 180),
        )
        app.swap_history(history_from_snapshots(root, generation=2))
        runlog.close()
        assert registry.get("asdb_serve_history_versions").value() == 3
        assert registry.get("asdb_serve_history_asns").value() == 4
        events = [
            event for event in read_ledger(str(ledger))
            if event["event"] == "serve.history_swap"
        ]
        assert len(events) == 1
        assert events[0]["versions"] == 3
        assert events[0]["asns"] == 4

    def test_history_reads_race_swaps_lock_free(self, tmp_path):
        """Readers racing swap_history always see one coherent index.

        Two histories disagree on depth (2 vs 3 releases); a coherent
        response has an event count matching its own latest_version for
        an AS updated in every release.
        """
        root = str(tmp_path / "releases")
        store = SnapshotStore(root)
        slugs = [("isp",), ("banks",), ("streaming",)]
        for epoch in range(3):
            store.save(
                _dataset([_record(1, slugs=slugs[epoch]), _record(2)]),
                window=(epoch * 90 - 90, epoch * 90),
            )
        shallow = HistoryIndex.build(
            SnapshotStore(root), generation=1
        )
        # Rebuild a 2-release view by trimming the store contents.
        trimmed = SnapshotStore(str(tmp_path / "trimmed"))
        for epoch in range(2):
            trimmed.save(
                _dataset([_record(1, slugs=slugs[epoch]), _record(2)]),
                window=(epoch * 90 - 90, epoch * 90),
            )
        short = HistoryIndex.build(trimmed, generation=2)
        app = self._app(tmp_path)
        app.swap_history(shallow)
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                status, body, _ = app.handle_request(
                    "GET", "/asn/1/history"
                )
                if status != 200 \
                        or len(body["events"]) != body["latest_version"]:
                    errors.append(body)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for flip in range(400):
            app.swap_history(short if flip % 2 == 0 else shallow)
        stop.set()
        for thread in readers:
            thread.join(10)
        assert not errors, errors[:5]


def _random_world(rng, orgs=("Acme", "Globex", "Initech", "Umbrella")):
    """A random record population keyed by ASN."""
    slugs_pool = [("isp",), ("hosting",), ("banks",), ("streaming",),
                  ("isp", "hosting")]
    return {
        asn: _record(
            asn,
            slugs=rng.choice(slugs_pool),
            stage=rng.choice(list(Stage)),
            org=rng.choice(orgs),
        )
        for asn in rng.sample(range(1, 200), rng.randint(10, 30))
    }


def _mutate(rng, world):
    """Apply a random batch of adds, updates, and removals in place."""
    slugs_pool = [("isp",), ("hosting",), ("banks",), ("streaming",)]
    for asn in rng.sample(sorted(world), min(len(world),
                                             rng.randint(0, 5))):
        del world[asn]
    for _ in range(rng.randint(0, 6)):
        asn = rng.randint(1, 220)
        world[asn] = _record(
            asn,
            slugs=rng.choice(slugs_pool),
            stage=rng.choice(list(Stage)),
            org=rng.choice(("Acme", "Globex", "Hooli", None)),
        )


def _assert_index_equal(incremental, full):
    """Delta-applied and rebuilt indexes must be observably identical."""
    assert incremental.fingerprint() == full.fingerprint()
    assert incremental.etag == full.etag
    assert len(incremental) == len(full)
    assert incremental.categories() == full.categories()
    assert incremental.stage_counts() == full.stage_counts()
    assert incremental.version.to_dict() == full.version.to_dict()
    for asn in range(1, 221):
        left, right = incremental.get(asn), full.get(asn)
        assert (left is None) == (right is None)
        if left is not None:
            assert record_view(left) == record_view(right)
    assert incremental._postings == full._postings


class TestIncrementalRefresh:
    """Delta-applied successors must equal full rebuilds, always."""

    def test_apply_delta_equals_full_rebuild_randomized(self, tmp_path):
        """Property: across randomized add/update/remove release
        chains, refresh_index_from_snapshots is indistinguishable from
        index_from_snapshots (fingerprint, ETag, every record, every
        posting, aggregates)."""
        for seed in range(6):
            rng = random.Random(seed)
            root = str(tmp_path / f"releases-{seed}")
            store = SnapshotStore(root)
            world = _random_world(rng)
            store.save(_dataset(world.values()), window=(-1, 0))
            index = index_from_snapshots(root, generation=1)
            for epoch in range(1, 5):
                _mutate(rng, world)
                store.save(_dataset(world.values()),
                           window=(epoch * 30 - 30, epoch * 30))
                incremental = refresh_index_from_snapshots(
                    root, index, generation=epoch + 1
                )
                assert incremental is not None
                full = index_from_snapshots(
                    root, generation=epoch + 1
                )
                _assert_index_equal(incremental, full)
                index = incremental

    def test_remove_then_readd_across_deltas(self, tmp_path):
        """An AS removed in one delta and re-added (with new labels) in
        a later one must land re-added, not removed, after the chain is
        merged into one net delta."""
        root = str(tmp_path / "releases")
        store = SnapshotStore(root)
        store.save(_dataset([_record(1), _record(2, org="Acme")]))
        index = index_from_snapshots(root, generation=1)
        store.save(_dataset([_record(2, org="Acme")]))  # AS1 removed
        store.save(_dataset([  # AS1 re-added, different category + org
            _record(1, slugs=("banks",), org="Globex"),
            _record(2, org="Acme"),
        ]))
        incremental = refresh_index_from_snapshots(
            root, index, generation=2
        )
        assert incremental is not None
        full = index_from_snapshots(root, generation=2)
        _assert_index_equal(incremental, full)
        record = incremental.get(1)
        assert sorted(record.labels.layer2_slugs()) == ["banks"]
        assert [r.asn for r in incremental.search_org("globex")] == [1]
        assert incremental.search_org("acme") and all(
            r.asn == 2 for r in incremental.search_org("acme")
        )

    def test_incremental_refuses_stale_lineage(self, tmp_path):
        """Digest mismatch, a full save in the chain, or a digest-less
        index all return None (forcing the full-rebuild fallback)."""
        root = str(tmp_path / "releases")
        store = SnapshotStore(root)
        store.save(_dataset([_record(1)]))
        index = index_from_snapshots(root, generation=1)

        # A full (non-delta) save breaks the delta chain.
        store.save(_dataset([_record(1), _record(2)]), full=True)
        assert refresh_index_from_snapshots(root, index, 2) is None

        # A digest-less index can't prove lineage.
        bare = ReadIndex.build([_record(1)], source="unit")
        assert bare.version.digest is None
        assert refresh_index_from_snapshots(root, bare, 2) is None

        # A rewritten store (same version number, different digest).
        other_root = str(tmp_path / "other")
        SnapshotStore(other_root).save(_dataset([_record(9)]))
        assert refresh_index_from_snapshots(
            other_root, index, 2
        ) is None

        # A version number the store has never seen.
        tiny_root = str(tmp_path / "tiny")
        SnapshotStore(tiny_root).save(_dataset([_record(1)]))
        deep = index_from_snapshots(root, generation=1)
        assert deep.version.snapshot_version == 2
        assert refresh_index_from_snapshots(tiny_root, deep, 2) is None

    def test_no_new_versions_is_a_valid_noop_refresh(self, tmp_path):
        """Refreshing against an unchanged store still succeeds
        incrementally and produces an equal (next-generation) index."""
        root = str(tmp_path / "releases")
        SnapshotStore(root).save(_dataset([_record(1), _record(2)]))
        index = index_from_snapshots(root, generation=1)
        incremental = refresh_index_from_snapshots(root, index, 2)
        assert incremental is not None
        assert incremental.fingerprint() == index.fingerprint()
        assert incremental.version.generation == 2

    def test_history_extend_equals_full_rebuild_randomized(
        self, tmp_path
    ):
        """Property: HistoryIndex.extend over randomized delta chains
        yields the same timelines, infos, and day mapping as a full
        HistoryIndex.build."""
        for seed in range(4):
            rng = random.Random(1000 + seed)
            root = str(tmp_path / f"releases-{seed}")
            store = SnapshotStore(root)
            world = _random_world(rng)
            store.save(_dataset(world.values()), window=(-1, 0))
            history = history_from_snapshots(root, generation=1)
            for epoch in range(1, 5):
                _mutate(rng, world)
                store.save(_dataset(world.values()),
                           window=(epoch * 30 - 30, epoch * 30))
                extended = refresh_history_from_snapshots(
                    root, history, generation=epoch + 1
                )
                assert extended is not None
                full = history_from_snapshots(
                    root, generation=epoch + 1
                )
                assert extended._timelines == full._timelines
                assert extended._infos == full._infos
                assert extended._days == full._days
                assert extended.generation == full.generation
                history = extended

    def test_history_extend_refuses_stale_lineage(self, tmp_path):
        root = str(tmp_path / "releases")
        store = SnapshotStore(root)
        store.save(_dataset([_record(1)]))
        history = history_from_snapshots(root, generation=1)
        store.save(_dataset([_record(1), _record(2)]), full=True)
        # A full save pins the whole state, so extending across it
        # equals a build from scratch.
        extended = refresh_history_from_snapshots(root, history, 2)
        full = history_from_snapshots(root, generation=2)
        assert extended._timelines == full._timelines
        assert extended._infos == full._infos
        other = str(tmp_path / "other")
        SnapshotStore(other).save(_dataset([_record(9)]))
        assert refresh_history_from_snapshots(other, history, 2) is None


def _seeded_records(seed=2021, count=48):
    """A seeded record population: org names, domains, unlabelled
    records and every stage."""
    rng = random.Random(seed)
    orgs = ("Acme Networks", "Globex", "Initech Systems", None)
    domains = ("acme.net", "globex.com", "initech.io", None)
    slugs = [("isp",), ("hosting",), ("banks",), ("isp", "hosting"), ()]
    return [
        _record(asn, slugs=rng.choice(slugs), stage=rng.choice(list(Stage)),
                org=rng.choice(orgs), domain=rng.choice(domains))
        for asn in sorted(rng.sample(range(1, 500), count))
    ]


#: ``ReadIndex.build(_seeded_records())`` as the build that tallied
#: records inline (before it became a delta applied to an empty index)
#: left it: its fingerprint and its org-token postings.
GOLDEN_FINGERPRINT = "ec163f4562901e4ec645531f94c4b0e1"
GOLDEN_POSTINGS = {
    "systems": (18, 33, 59, 144, 226, 228, 274, 327, 345, 381, 468, 499),
    "initech": (18, 33, 59, 139, 144, 161, 226, 228, 270, 274, 279, 281,
                326, 327, 345, 349, 381, 424, 425, 427, 429, 440, 455,
                468, 469, 499),
    "globex": (27, 28, 33, 40, 54, 85, 127, 161, 240, 270, 281, 295, 309,
               323, 326, 327, 424, 492, 499),
    "acme": (28, 40, 83, 142, 144, 151, 152, 207, 226, 228, 243, 295, 323,
             345, 349, 367, 381, 427, 450, 469, 491, 492),
    "networks": (28, 40, 83, 142, 151, 152, 207, 243, 349, 427, 469, 492),
    "com": (28, 33, 40, 54, 85, 240, 327, 492, 499),
    "globex.com": (28, 33, 40, 54, 85, 240, 327, 492, 499),
    "io": (59, 139, 161, 270, 274, 279, 281, 326, 349, 424, 425, 427, 429,
           440, 455, 468, 469),
    "initech.io": (59, 139, 161, 270, 274, 279, 281, 326, 349, 424, 425,
                   427, 429, 440, 455, 468, 469),
    "net": (83, 144, 152, 207, 226, 228, 295, 323, 345, 367, 381, 450, 491),
    "acme.net": (83, 144, 152, 207, 226, 228, 295, 323, 345, 367, 381, 450,
                 491),
}


def _reference_timelines(store):
    """Every AS's timeline, folded the way ``ReleaseHistory.timelines()``
    did before ``HistoryIndex.build`` became ``extend`` from an empty
    history: one pass over the versions, a full version pinning the
    whole state.  Reads the documents straight from disk, so it shares
    no chain code with the store."""
    def document(info):
        with open(os.path.join(store.root, info.filename)) as handle:
            return json.load(handle)

    events, current = {}, {}

    def apply(info, asn, item):
        event = event_for(info, current.get(asn), item)
        if event is not None:
            events.setdefault(asn, []).append(event)
        if item is None:
            current.pop(asn, None)
        else:
            current[asn] = item

    for info in store.versions():
        if info.kind == "full":
            state = {int(item["asn"]): item
                     for item in document(info)["records"]}
            for asn in sorted(set(current) - set(state)):
                apply(info, asn, None)
            for asn in sorted(state):
                apply(info, asn, state[asn])
        else:
            delta = document(info)
            for asn in delta["removed"]:
                apply(info, int(asn), None)
            for item in delta["changed"]:
                apply(info, int(item["asn"]), item)
    return {asn: tuple(seq) for asn, seq in events.items()}


def _chain_with_full_save(rng, root, checkpoint_every, full_at=3):
    """A random release chain of 7 versions whose ``full_at``-th delta
    is an explicit full save.  Yields the store after every save."""
    store = SnapshotStore(root, checkpoint_every=checkpoint_every)
    world = _random_world(rng)
    store.save(_dataset(world.values()), window=(-1, 0))
    yield store
    for epoch in range(1, 7):
        _mutate(rng, world)
        store.save(_dataset(world.values()),
                   window=(epoch * 30 - 30, epoch * 30),
                   full=epoch == full_at)
        yield store


class TestOneBuildPath:
    """A cold build is the incremental path started from an empty index;
    these pin what the separate build paths it replaced produced."""

    def test_build_matches_golden_fingerprint_and_postings(self):
        index = ReadIndex.build(_seeded_records(), source="golden")
        assert index.fingerprint() == GOLDEN_FINGERPRINT
        assert index._postings == GOLDEN_POSTINGS
        assert len(index) == 48
        assert index.version.coverage == 38 / 48

    def test_build_is_order_free(self):
        records = _seeded_records()
        assert ReadIndex.build(reversed(records)).fingerprint() == \
            GOLDEN_FINGERPRINT

    @pytest.mark.parametrize("checkpoint_every", [None, 1, 3])
    def test_history_build_matches_reference_timelines(
        self, tmp_path, checkpoint_every
    ):
        pinned = 0
        for seed in range(5):
            rng = random.Random(500 + seed)
            root = str(tmp_path / f"releases-{seed}")
            for store in _chain_with_full_save(rng, root, checkpoint_every):
                reference = _reference_timelines(store)
                built = HistoryIndex.build(store)
                assert built._timelines == reference
                assert ReleaseHistory(store).timelines() == reference
                assert built._infos == {
                    info.version: info for info in store.versions()
                }
            assert store.info(4).kind == "full"
            pinned += sum(event.change == "removed"
                          for events in reference.values()
                          for event in events if event.version == 4)
        assert pinned  # some AS left at the full save

    @pytest.mark.parametrize("checkpoint_every", [None, 1, 3])
    def test_extend_across_a_full_save_equals_build(
        self, tmp_path, checkpoint_every
    ):
        for seed in range(5):
            rng = random.Random(900 + seed)
            root = str(tmp_path / f"releases-{seed}")
            history = None
            for generation, store in enumerate(
                    _chain_with_full_save(rng, root, checkpoint_every), 1):
                full = HistoryIndex.build(store, generation=generation)
                if history is not None:
                    history = history.extend(store, generation)
                    assert history is not None
                    assert history._timelines == full._timelines
                    assert history._infos == full._infos
                    assert history._days == full._days
                history = full if history is None else history


class TestResponseCacheAndConditional:
    """Per-generation response cache, ETag/304, HEAD, and 405."""

    def _app(self, records=None, **kwargs):
        index = ReadIndex.build(records or [_record(1)], source="unit")
        return ServingApp(index, **kwargs)

    def test_etag_present_and_stable_within_generation(self):
        app = self._app()
        _, _, first = app.handle_request("GET", "/asn/1")
        _, _, second = app.handle_request("GET", "/version")
        assert first["ETag"] == second["ETag"] == app.index.etag
        assert first["ETag"].startswith('"asdb-g1-')

    def test_if_none_match_returns_bodyless_304(self):
        app = self._app()
        _, _, headers = app.handle_request("GET", "/categories")
        etag = headers["ETag"]
        status, body, headers, payload = app._respond(
            "GET", "/categories", {"if-none-match": etag}
        )
        assert (status, body, payload) == (304, "", b"")
        assert headers["ETag"] == etag
        # Wildcard and multi-tag lists match too (RFC 7232).
        assert app.handle_request(
            "GET", "/version", {"if-none-match": "*"}
        )[0] == 304
        assert app.handle_request(
            "GET", "/version",
            {"if-none-match": f'"stale-tag", {etag}'},
        )[0] == 304
        # A stale tag does not.
        assert app.handle_request(
            "GET", "/version", {"if-none-match": '"stale-tag"'}
        )[0] == 200

    def test_etag_and_304_roll_over_at_swap(self):
        app = self._app()
        _, _, headers = app.handle_request("GET", "/version")
        old_etag = headers["ETag"]
        app.swap(ReadIndex.build(
            [_record(1), _record(2)], generation=2, source="unit"
        ))
        status, _, headers = app.handle_request(
            "GET", "/version", {"if-none-match": old_etag}
        )
        assert status == 200  # old tag no longer matches
        assert headers["ETag"] != old_etag

    def test_cache_memoizes_exact_payload_bytes(self):
        registry = MetricsRegistry()
        app = self._app(metrics=registry)
        first = app._respond("GET", "/asn/1")
        again = app._respond("GET", "/asn/1")
        assert again == first
        assert again[3] == (
            json.dumps(first[1]) + "\n"
        ).encode("utf-8")
        assert registry.get(
            "asdb_serve_cache_misses_total").total() == 1
        assert registry.get("asdb_serve_cache_hits_total").total() == 1
        # Non-cacheable endpoints never populate the cache.
        app._respond("GET", "/org/acme")
        app._respond("GET", "/healthz")
        assert set(app.index.response_cache) == {"/asn/1"}

    def test_cache_dies_with_the_generation(self):
        app = self._app()
        app.handle_request("GET", "/asn/1")
        assert app.index.response_cache
        app.swap(ReadIndex.build(
            [_record(1, slugs=("banks",))], generation=2, source="unit"
        ))
        assert app.index.response_cache == {}
        status, body, _ = app.handle_request("GET", "/asn/1")
        assert status == 200
        assert body["record"]["labels"][0]["layer2"] == "banks"

    def test_swap_racing_a_miss_cannot_poison_the_new_cache(self):
        """A request that routed against generation 1 but finishes
        after the swap must store its entry into generation 1's cache
        (which died with the swap), never the new index's."""
        old = ReadIndex.build([_record(1)], source="unit")
        new = ReadIndex.build(
            [_record(1, slugs=("banks",))], generation=2, source="unit"
        )
        app = ServingApp(old)
        barrier = threading.Barrier(2)

        original_route = app._route

        def slow_route(*args, **kwargs):
            result = original_route(*args, **kwargs)
            barrier.wait(5)   # request routed against the old index...
            barrier.wait(5)   # ...swap happens here...
            return result     # ...then the cache store runs
        app._route = slow_route

        worker = threading.Thread(
            target=app._respond, args=("GET", "/asn/1")
        )
        worker.start()
        barrier.wait(5)
        app.swap(new)
        barrier.wait(5)
        worker.join(10)
        app._route = original_route
        assert new.response_cache == {}
        cached = old.response_cache["/asn/1"][1]
        assert cached["record"]["labels"][0]["layer2"] == "isp"
        status, body, _ = app.handle_request("GET", "/asn/1")
        assert status == 200
        assert body["record"]["labels"][0]["layer2"] == "banks"

    def test_head_mirrors_get_without_a_body(self):
        app = self._app()
        with _HttpService(app) as service:
            get_status, get_body, get_headers = service.get("/asn/1")
            head_status, head_body, head_headers = service.request(
                "HEAD", "/asn/1"
            )
            assert (get_status, head_status) == (200, 200)
            assert head_body == ""
            assert head_headers["Content-Length"] \
                == get_headers["Content-Length"]
            assert head_headers["ETag"] == get_headers["ETag"]
            # HEAD works on every GET endpoint, including uncached.
            for path in ("/healthz", "/org/acme", "/metrics"):
                status, body, _ = service.request("HEAD", path)
                assert (status, body) == (200, "")

    def test_wrong_method_on_known_path_is_405_with_allow(self):
        app = self._app()
        status, body, headers = app.handle_request("POST", "/asn/1")
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"
        assert body["allow"] == ["GET", "HEAD"]
        status, _, headers = app.handle_request("GET", "/refresh")
        assert (status, headers["Allow"]) == (405, "POST")
        # Unknown paths stay 404 whatever the method.
        assert app.handle_request("PUT", "/nope")[0] == 404

    def test_conditional_and_405_over_http(self):
        app = self._app()
        with _HttpService(app) as service:
            _, _, headers = service.get("/version")
            etag = headers["ETag"]
            status, body, headers = service.request(
                "GET", "/version", {"If-None-Match": etag}
            )
            assert (status, body) == (304, "")
            assert headers["ETag"] == etag
            assert headers["Content-Length"] == "0"  # bodyless
            status, _, headers = service.request("DELETE", "/version")
            assert (status, headers["Allow"]) == (405, "GET, HEAD")


class TestRefreshModes:
    """ServingApp.refresh: incremental vs full, fallback, atomicity."""

    def _snapshot_app(self, tmp_path, registry=None, runlog=None,
                      incremental=True, with_history=True):
        root = str(tmp_path / "releases")
        store = SnapshotStore(root)
        store.save(
            _dataset([_record(1), _record(2, org="Acme")]),
            window=(-1, 0),
        )
        app = ServingApp(
            index_from_snapshots(root, generation=1),
            rebuild=lambda generation: index_from_snapshots(
                root, generation=generation
            ),
            metrics=registry,
            runlog=runlog,
            history=(
                history_from_snapshots(root, generation=1)
                if with_history else None
            ),
            rebuild_history=(
                (lambda generation: history_from_snapshots(
                    root, generation=generation
                )) if with_history else None
            ),
            refresh_incremental=(
                (lambda generation, previous:
                 refresh_index_from_snapshots(
                     root, previous, generation))
                if incremental else None
            ),
            refresh_history_incremental=(
                (lambda generation, previous:
                 refresh_history_from_snapshots(
                     root, previous, generation))
                if incremental and with_history else None
            ),
        )
        return app, store

    def test_refresh_takes_the_incremental_path(self, tmp_path):
        registry = MetricsRegistry()
        ledger = tmp_path / "run.ndjson"
        runlog = RunLog(str(ledger), kind="serve", config={}, world={})
        app, store = self._snapshot_app(tmp_path, registry, runlog)
        store.save(
            _dataset([
                _record(1, slugs=("banks",)),
                _record(2, org="Acme"),
                _record(3),
            ]),
            window=(0, 30),
        )
        new = app.refresh()
        runlog.close()
        assert new.version.snapshot_version == 2
        assert registry.get(
            "asdb_serve_refresh_incremental_total").total() == 1
        assert registry.get(
            "asdb_serve_refresh_full_total").total() == 0
        modes = [
            event for event in read_ledger(str(ledger))
            if event["event"] == "serve.refresh_mode"
        ]
        assert len(modes) == 1
        assert modes[0]["mode"] == "incremental"
        assert modes[0]["history_mode"] == "incremental"
        assert modes[0]["generation"] == 2
        assert modes[0]["snapshot_version"] == 2
        # Both views actually swapped, mutually consistent.
        assert app.index.version.generation == 2
        assert app.history.latest_version == 2
        status, body, _ = app.handle_request("GET", "/asn/3")
        assert status == 200
        # Incremental result equals what the full rebuild would say.
        assert new.fingerprint() == index_from_snapshots(
            str(tmp_path / "releases"), generation=2
        ).fingerprint()

    def test_refresh_falls_back_to_full_on_broken_lineage(
        self, tmp_path
    ):
        registry = MetricsRegistry()
        ledger = tmp_path / "run.ndjson"
        runlog = RunLog(str(ledger), kind="serve", config={}, world={})
        app, store = self._snapshot_app(tmp_path, registry, runlog)
        store.save(
            _dataset([_record(1), _record(2, org="Acme"), _record(4)]),
            full=True,  # full save breaks the delta chain
        )
        app.refresh()
        runlog.close()
        assert registry.get(
            "asdb_serve_refresh_full_total").total() == 1
        assert registry.get(
            "asdb_serve_refresh_incremental_total").total() == 0
        modes = [
            event for event in read_ledger(str(ledger))
            if event["event"] == "serve.refresh_mode"
        ]
        assert modes[0]["mode"] == "full"
        assert app.handle_request("GET", "/asn/4")[0] == 200

    def test_refresh_fallback_on_incremental_exception(self, tmp_path):
        registry = MetricsRegistry()
        ledger = tmp_path / "run.ndjson"
        runlog = RunLog(str(ledger), kind="serve", config={}, world={})
        app, store = self._snapshot_app(
            tmp_path, registry, runlog, with_history=False
        )
        app._refresh_incremental = lambda generation, previous: (
            (_ for _ in ()).throw(RuntimeError("store exploded"))
        )
        store.save(_dataset([_record(1), _record(2, org="Acme"),
                             _record(5)]))
        new = app.refresh()
        runlog.close()
        assert new.version.generation == 2
        assert registry.get(
            "asdb_serve_refresh_full_total").total() == 1
        fallbacks = [
            event for event in read_ledger(str(ledger))
            if event["event"] == "serve.refresh_fallback"
        ]
        assert len(fallbacks) == 1
        assert "store exploded" in fallbacks[0]["error"]

    def test_failing_history_rebuild_leaves_old_pair_served(
        self, tmp_path
    ):
        """Atomicity regression: both successors are built before
        either swap, so a history rebuild blowing up leaves the service
        on the old, mutually consistent index/history pair."""
        registry = MetricsRegistry()
        app, store = self._snapshot_app(
            tmp_path, registry, incremental=False
        )
        old_index, old_history = app.index, app.history
        store.save(_dataset([_record(1), _record(2, org="Acme"),
                             _record(6)]))

        def broken_history(generation):
            raise RuntimeError("history rebuild exploded")
        app._rebuild_history = broken_history
        app._refresh_history_incremental = None

        with pytest.raises(RuntimeError, match="history rebuild"):
            app.refresh()
        assert app.index is old_index
        assert app.history is old_history
        assert registry.get("asdb_serve_swaps_total").total() == 0
        # The half-built state never leaked: AS6 (new release) is not
        # served, and history still answers from the old release set.
        assert app.handle_request("GET", "/asn/6")[0] == 404
        status, body, _ = app.handle_request("GET", "/asn/1/history")
        assert (status, body["latest_version"]) == (200, 1)

    @staticmethod
    def _rebuild_spans(ledger):
        return [
            event for event in read_ledger(str(ledger))
            if event["event"] == "span" and event["name"] == "serve.rebuild"
        ]

    def test_failing_history_rebuild_fails_the_rebuild_span(
        self, tmp_path
    ):
        ledger = tmp_path / "run.ndjson"
        runlog = RunLog(str(ledger), kind="serve", config={}, world={})
        app, store = self._snapshot_app(
            tmp_path, runlog=runlog, incremental=False
        )
        store.save(_dataset([_record(1), _record(2, org="Acme"),
                             _record(6)]))

        def broken_history(generation):
            raise RuntimeError("history rebuild exploded")
        app._rebuild_history = broken_history
        app._refresh_history_incremental = None

        with pytest.raises(RuntimeError, match="history rebuild"):
            app.refresh()
        runlog.close()
        spans = self._rebuild_spans(ledger)
        assert len(spans) == 1
        assert spans[0]["status"] == "error: RuntimeError"

    def test_rebuild_span_carries_the_history_mode(self, tmp_path):
        ledger = tmp_path / "run.ndjson"
        runlog = RunLog(str(ledger), kind="serve", config={}, world={})
        app, store = self._snapshot_app(tmp_path, runlog=runlog)
        store.save(_dataset([_record(1), _record(2, org="Acme"),
                             _record(7)]))
        app.refresh()
        runlog.close()
        (span,) = self._rebuild_spans(ledger)
        assert span["status"] in ("", "ok")
        assert span["attributes"]["mode"] == "incremental"
        assert span["attributes"]["history_mode"] == "incremental"


class TestOrgLimit:
    def _app(self, count=30):
        index = ReadIndex.build(
            [_record(asn, org="Acme Corp") for asn in range(1, count + 1)],
            source="unit",
        )
        return ServingApp(index)

    def test_default_limit_and_truncation_fields(self):
        app = self._app(count=30)
        status, body, _ = app.handle_request("GET", "/org/acme")
        assert status == 200
        assert body["count"] == 20  # ORG_LIMIT_DEFAULT
        assert body["total"] == 30
        assert body["limit"] == 20
        assert body["truncated"] is True
        assert [m["asn"] for m in body["matches"]] \
            == list(range(1, 21))

    def test_explicit_limit_is_capped(self):
        app = self._app(count=5)
        _, body, _ = app.handle_request("GET", "/org/acme?limit=2")
        assert (body["count"], body["total"], body["truncated"]) \
            == (2, 5, True)
        _, body, _ = app.handle_request("GET", "/org/acme?limit=999999")
        assert body["limit"] == 200  # ORG_LIMIT_CAP
        assert body["truncated"] is False
        _, body, _ = app.handle_request("GET", "/org/acme?limit=-3")
        assert body["limit"] == 1  # floor

    def test_bad_limit_is_400(self):
        app = self._app(count=2)
        status, body, _ = app.handle_request(
            "GET", "/org/acme?limit=lots"
        )
        assert status == 400
        assert "limit" in body["error"]
