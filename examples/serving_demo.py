#!/usr/bin/env python3
"""The serving layer end to end: snapshot a release, serve it over
HTTP, query it with stdlib clients, land a refresh with an atomic
index swap, and watch an unknown ASN flow through the background
classification queue.

Run:
    python examples/serving_demo.py
"""

import asyncio
import http.client
import json
import tempfile
import threading
import time
from pathlib import Path

from repro import SystemConfig, WorldConfig, build_asdb, generate_world
from repro.core import SnapshotStore
from repro.obs import MetricsRegistry
from repro.serving import (
    ClassificationQueue,
    QueueWorker,
    ServingApp,
    index_from_snapshots,
    index_from_store,
)


def get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def serve_in_thread(app):
    """Run the app's event loop on a daemon thread; returns the port."""
    ready = threading.Event()
    box = {}

    def runner():
        async def main():
            box["loop"] = asyncio.get_running_loop()
            _, port = await app.start("127.0.0.1", 0)
            box["port"] = port
            ready.set()
            try:
                await app.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await app.stop()

        asyncio.run(main())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    ready.wait(10)
    box["thread"] = thread
    return box


def shutdown(box):
    for task in asyncio.all_tasks(box["loop"]):
        box["loop"].call_soon_threadsafe(task.cancel)
    box["thread"].join(10)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        releases = str(Path(tmp) / "releases")

        # --- Release v1: classify a world and snapshot it. ------------
        world = generate_world(WorldConfig(n_orgs=80, seed=13))
        built = build_asdb(world, SystemConfig(seed=13, train_ml=False))
        dataset = built.asdb.classify_all()
        store = SnapshotStore(releases)
        info = store.save(dataset)
        print(f"released v{info.version}: {info.record_count} records")

        # --- Serve it: immutable index, refresh via atomic swap. ------
        app = ServingApp(
            index_from_snapshots(releases),
            rebuild=lambda generation: index_from_snapshots(
                releases, generation=generation
            ),
        )
        box = serve_in_thread(app)
        port = box["port"]
        print(f"serving on 127.0.0.1:{port}")

        status, version = get(port, "/version")
        print(f"/version -> {version}")
        asn = world.asns()[0]
        status, body = get(port, f"/asn/{asn}")
        labels = body["record"]["labels"]
        print(f"/asn/{asn} -> {status}, labels {labels}")
        status, body = get(port, "/categories")
        print(f"/categories -> {body['categories']}")

        # --- Land a new release; swap it in without a restart. --------
        extra = generate_world(WorldConfig(n_orgs=90, seed=13))
        rebuilt = build_asdb(extra, SystemConfig(seed=13, train_ml=False))
        SnapshotStore(releases).save(rebuilt.asdb.classify_all())
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("POST", "/refresh")
        swapped = json.loads(conn.getresponse().read())
        conn.close()
        print(f"POST /refresh -> {swapped['version']}")
        shutdown(box)

        # --- Lazy serving: the queue classifies on demand. ------------
        lazy_world = generate_world(WorldConfig(n_orgs=40, seed=21))
        lazy = build_asdb(lazy_world, SystemConfig(seed=21, train_ml=False))
        registry = MetricsRegistry()
        queue = ClassificationQueue(maxsize=64, metrics=registry)

        def rebuild(generation):
            return index_from_store(
                lazy.asdb.dataset, generation=generation, source="lazy"
            )

        lazy_app = ServingApp(
            rebuild(1), rebuild=rebuild, queue=queue, metrics=registry
        )
        lazy_app.worker = QueueWorker(
            queue,
            classify=lambda asns: lazy.asdb.classify_batch(asns),
            after=lazy_app.on_drained,
        )
        box = serve_in_thread(lazy_app)
        port = box["port"]
        asn = lazy_world.asns()[-1]
        status, body = get(port, f"/asn/{asn}")
        print(f"lazy /asn/{asn} -> {status} ({body.get('status', 'hit')})")
        deadline = time.time() + 15
        while status != 200 and time.time() < deadline:
            time.sleep(0.1)
            status, body = get(port, f"/asn/{asn}")
        print(
            f"after the swap: /asn/{asn} -> {status}, "
            f"stage {body['record']['stage']}"
        )
        sample = [
            line
            for line in registry.to_prometheus().splitlines()
            if line.startswith("asdb_serve_queue_total")
        ]
        print("queue metrics:", *sample, sep="\n  ")
        shutdown(box)


if __name__ == "__main__":
    main()
