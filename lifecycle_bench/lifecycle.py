"""One run of the deployed ASdb path, as the CLI deploys it.

A run is :data:`REPEATS` identical lifecycles of one seed, each in a
fresh ``spawn``-ed process, one after the other.  Each lifecycle sets
up (``generate_world`` + ``build_asdb`` with ML trained),
releases (``classify_batch`` -> ``SnapshotStore.save`` v1 -> serving
indexes -> a ``ServingApp`` listening on loopback, wired like
``repro serve --snapshots``), then runs cycles of registry churn
(untimed input) -> ``MaintenanceDaemon.sweep`` -> ``ServingApp.refresh``
-> one closed-loop read burst from the load generator in its own
process.  Reads never overlap a sweep.

Every lifecycle of a run does the same work, so every timed segment --
one ``classify_batch`` chunk of the release, the rest of the release,
one cycle's update, one block of a burst's requests -- has
:data:`REPEATS` samples, taken seconds apart.  The release,
update and lookup metrics keep the fastest sample of each segment (see
:meth:`RunResult.end_to_end` and NOTES.md); set-up time is the median
of the set-ups.

The workload seed derives the world, every churn window and the key
sequence; the program only ever sees the generated inputs.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import multiprocessing
from multiprocessing import resource_tracker
import os
import random
import resource
import statistics
import threading
import time
from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List

from repro.core.maintenance import MaintenanceDaemon
from repro.core.snapshots import SnapshotStore
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    ServingApp,
    history_from_snapshots,
    index_from_snapshots,
    record_view,
    refresh_history_from_snapshots,
    refresh_index_from_snapshots,
)
from repro.system import SystemConfig, build_asdb
from repro.world import WorldConfig, generate_world, simulate_churn

import loadgen

#: Identical lifecycles per run; each timed segment keeps its fastest.
REPEATS = 3
#: ASNs per ``classify_batch`` call of a release, in ascending order.
#: Batch output is byte-identical to one call over the whole registry
#: (``repro.core.parallel``); the chunks make the release's segments.
RELEASE_CHUNK = 128
#: Requests per block of a burst; the blocks are the read segments.
READ_BLOCK = 500
#: The lookup metrics cover this share of a run's read blocks, the
#: fastest ones (see :meth:`RunResult.end_to_end`).
FAST_BLOCKS = 0.10
#: Requests per second of ``--seconds``, about a 2-vCPU VM's rate:
#: the run's read volume is fixed by the seed and ``--seconds``, not
#: by how fast the reads go.
READ_RATE = 12_000
#: Loopback address the service binds.
HOST = "127.0.0.1"
#: ASNs never registered by the world generator or by churn, so every
#: lookup of one must answer 404.
MISS_ASN_BASE = 1_000_000_000
#: Seeded ``/asn/{asn}`` bodies compared with the served records.
BODY_SAMPLE = 200


@dataclass(frozen=True)
class Workload:
    """One set of inputs; the workloads differ only in these."""

    name: str
    n_orgs: int
    cycle_days: int
    cycles: int
    reader: str


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "release", n_orgs=3000, cycle_days=90, cycles=4,
            reader="history",
        ),
        Workload(
            "churn", n_orgs=1500, cycle_days=7, cycles=8,
            reader="current",
        ),
        Workload(
            "lookup", n_orgs=1500, cycle_days=30, cycles=6,
            reader="public",
        ),
    )
}


class _NoTracer:
    """Stand-in for :class:`spans.Tracer` in the measured run."""

    phase = ""

    @staticmethod
    def run(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _cpu_split():
    """``(CPUs for the service's loop thread, CPUs for the load
    generator)``: the last CPU goes to the client, so the two sides of
    the closed loop never share a CPU from one burst to the next.
    ``(None, None)`` with fewer than two CPUs."""
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return set(cpus[:-1]), {cpus[-1]}


class ServerThread:
    """An asyncio event loop on its own thread, hosting the service."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self._run, name="serve-loop", daemon=True
        )
        self.thread.start()

    def _run(self) -> None:
        cpus, _ = _cpu_split()
        if cpus is not None:
            os.sched_setaffinity(0, cpus)  # this thread only
        self.loop.run_forever()

    def call(self, coroutine, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self.loop
        ).result(timeout)

    async def _drain(self, seconds: float) -> None:
        """Wait for connection handlers still finishing, then cancel
        whatever is left."""
        me = asyncio.current_task()
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            if all(task is me for task in asyncio.all_tasks()):
                return
            await asyncio.sleep(0.01)
        for task in asyncio.all_tasks():
            if task is not me:
                task.cancel()

    def close(self) -> None:
        self.call(self._drain(5.0))
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30.0)
        self.loop.close()


def _request(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: asdb\r\n\r\n".encode("ascii")


class KeySequence:
    """Seeded request sequences for one workload's reader.

    * ``current``: ``/asn/{asn}`` uniform over the served ASNs;
    * ``history``: ``/asn/{asn}/history`` and ``/asof/{day}/asn/{asn}``
      half and half, uniform over served ASNs and over days so far;
    * ``public``: 70% Zipf-skewed ``/asn`` (exponent 1; 5% of them
      unknown ASNs), 10% ``/org/{token}``, 10% history, 10% as-of.
      The split and the exponent are assumptions, not measured traffic
      (see NOTES.md).

    Every request carries the status it must answer with, derived from
    the inputs alone: the day each ASN was first released.  The
    popularity order and each burst draw from their own seeded
    generators, so no measured speed changes a key.
    """

    def __init__(self, seed: int, reader: str, world) -> None:
        self.seed = seed
        self.reader = reader
        self.shuffle = random.Random(f"popularity:{seed}:{reader}").shuffle
        self.first_day: Dict[int, int] = {asn: 0 for asn in world.asns()}
        self.served = sorted(self.first_day)
        self.popularity = list(self.served)
        self.shuffle(self.popularity)
        self.tokens = sorted({
            org.domain.split(".")[0]
            for org in world.organizations.values()
            if org.domain
        })

    def release(self, asns, day: int) -> None:
        """Record ASNs first served by the release through ``day``."""
        fresh = [asn for asn in sorted(asns) if asn not in self.first_day]
        for asn in fresh:
            self.first_day[asn] = day
        self.served = sorted(self.first_day)
        self.shuffle(fresh)
        self.popularity.extend(fresh)

    def _asof(self, rng, day: int):
        asn = rng.choice(self.served)
        when = rng.randint(0, day)
        status = 200 if when >= self.first_day[asn] else 404
        return _request(f"/asof/{when}/asn/{asn}"), status

    def _history(self, rng):
        return _request(f"/asn/{rng.choice(self.served)}/history"), 200

    def burst(self, cycle: int, count: int, day: int):
        """``(requests, expected statuses)`` for the burst after
        ``cycle``."""
        rng = random.Random(f"keys:{self.seed}:{self.reader}:{cycle}")
        requests: List[bytes] = []
        expected = array("H")
        if self.reader == "public":
            cumulative = list(accumulate(
                1.0 / (rank + 1) for rank in range(len(self.popularity))))
        for _ in range(count):
            if self.reader == "current":
                pair = _request(f"/asn/{rng.choice(self.served)}"), 200
            elif self.reader == "history":
                pair = (self._asof(rng, day) if rng.random() < 0.5
                        else self._history(rng))
            else:
                roll = rng.random()
                if roll < 0.70 * 0.05:
                    miss = MISS_ASN_BASE + rng.randrange(1_000_000)
                    pair = _request(f"/asn/{miss}"), 404
                elif roll < 0.70:
                    asn = rng.choices(self.popularity,
                                      cum_weights=cumulative)[0]
                    pair = _request(f"/asn/{asn}"), 200
                elif roll < 0.80:
                    pair = _request(f"/org/{rng.choice(self.tokens)}"), 200
                elif roll < 0.90:
                    pair = self._history(rng)
                else:
                    pair = self._asof(rng, day)
            requests.append(pair[0])
            expected.append(pair[1])
        return requests, expected


def serve_totals(registry: MetricsRegistry):
    """``(requests, handler seconds, cache hits, cache misses)`` so far,
    from the service's own registry."""
    seconds = registry.get("asdb_serve_seconds")
    handled = sum(series.count for series in seconds.series().values())
    spent = sum(series.sum for series in seconds.series().values())
    hits = registry.get("asdb_serve_cache_hits_total").total()
    misses = registry.get("asdb_serve_cache_misses_total").total()
    return handled, spent, hits, misses


@dataclass
class Lifecycle:
    """The timed segments of one lifecycle, in the order they ran."""

    setup_s: float = 0.0
    #: Wall seconds of each ``classify_batch`` chunk, then of the rest
    #: of the release (save, indexes, start).
    release_parts: List[float] = field(default_factory=list)
    #: Per cycle, wall seconds from the ``sweep`` call to the return of
    #: ``refresh``.
    updates: List[float] = field(default_factory=list)
    #: Per cycle, per block of the burst: ``(seconds, latencies)``.
    blocks: List[List[tuple]] = field(default_factory=list)


@dataclass
class RunResult:
    """Everything a run measured, checked and counted; each lifecycle
    process fills one, and :meth:`merge` adds them up."""

    workload: Workload
    lifecycles: List[Lifecycle] = field(default_factory=list)
    release_digests: List[str] = field(default_factory=list)
    final_digests: List[str] = field(default_factory=list)
    #: Every answered request of every burst, for the client-side mean.
    latencies: array = field(default_factory=lambda: array("d"))
    bursts: int = 0
    burst_seconds: float = 0.0
    client_cpu_seconds: float = 0.0
    handled: int = 0
    handler_seconds: float = 0.0
    cache_hits: float = 0.0
    cache_misses: float = 0.0
    server_cpu_seconds: float = 0.0
    statuses: Dict[int, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    request_failures: int = 0
    failures: List[str] = field(default_factory=list)
    cache_stats: object = None
    featcache: tuple = (0, 0)
    ases_released: int = 0
    refresh_incremental: int = 0
    peak_rss_mb: float = 0.0
    #: Spans of the traced run (see ``spans.py``).
    spans: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def merge(self, other: "RunResult") -> None:
        """Add the figures of another lifecycle of the same run."""
        for name in ("lifecycles", "release_digests", "final_digests",
                     "latencies", "failures", "spans"):
            getattr(self, name).extend(getattr(other, name))
        for name in ("bursts", "burst_seconds", "client_cpu_seconds",
                     "handled", "handler_seconds", "cache_hits",
                     "cache_misses", "server_cpu_seconds", "attempted",
                     "failed", "request_failures", "refresh_incremental"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for status, count in other.statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + count
        if self.cache_stats is None:
            self.cache_stats = other.cache_stats
            self.featcache = other.featcache
        self.ases_released = other.ases_released
        self.peak_rss_mb = max(self.peak_rss_mb, other.peak_rss_mb)

    @property
    def final_digest(self) -> str:
        return self.final_digests[-1] if self.final_digests else ""

    def release_seconds(self) -> float:
        """Release wall time built from the fastest sample of each
        segment."""
        return sum(map(min, zip(*(life.release_parts
                                  for life in self.lifecycles))))

    def update_samples(self) -> List[float]:
        """Per cycle, the fastest of its updates."""
        return list(map(min, zip(*(life.updates
                                   for life in self.lifecycles))))

    def fast_blocks(self) -> List[tuple]:
        """The fastest :data:`FAST_BLOCKS` of the run's read blocks, each
        as the sample of the lifecycle that ran it fastest."""
        kept = [
            min(samples, key=_per_request)
            for cycle in zip(*(life.blocks for life in self.lifecycles))
            for samples in zip(*cycle)
        ]
        kept.sort(key=_per_request)
        # At least 1,000 requests, so the p99 has ten beyond it.
        least = -(-1000 // READ_BLOCK)
        return kept[:max(least, math.ceil(len(kept) * FAST_BLOCKS))]

    def end_to_end(self) -> Dict[str, float]:
        # The host's CPUs run up to ~1.9x slower, and loopback round
        # trips stall for milliseconds, in spells of a second to minutes
        # that no run controls (NOTES.md, "Guards against noise").  Each
        # segment below is short next to a spell and runs once in each
        # lifecycle process, seconds apart, so its best sample
        # is from outside a spell unless the spell covered the run.  The
        # read blocks are many and short enough to go one step further:
        # keeping only the fastest of their best samples leaves out even
        # spells that covered most of the run.
        fast = self.fast_blocks()
        latencies = sorted(value for _, block in fast for value in block)
        seconds = sum(seconds for seconds, _ in fast)
        if not latencies or not seconds:
            # Only a failed run gets here; keep the result line printable.
            latencies, seconds = [0.0], 1.0
        return {
            "setup_s": statistics.median(
                life.setup_s for life in self.lifecycles),
            "release_as_per_s": self.ases_released / self.release_seconds(),
            "update_to_served_s": statistics.median(self.update_samples()),
            "lookup_rps": len(latencies) / seconds,
            "lookup_p50_ms": _nearest_rank(latencies, 50) * 1000.0,
            "lookup_p99_ms": _nearest_rank(latencies, 99) * 1000.0,
            "peak_rss_mb": self.peak_rss_mb,
        }


def _per_request(block) -> float:
    seconds, latencies = block
    return seconds / len(latencies) if latencies else math.inf


def _nearest_rank(ordered, percent: int) -> float:
    return ordered[max(0, -(-len(ordered) * percent // 100) - 1)]


def _release(built, asns, root: str, registry: MetricsRegistry, tracer,
             server: ServerThread, instrument, parts: List[float]):
    """Release phase: classify ``asns`` in chunks, save v1, build both
    serving indexes, wire the service the way ``repro serve
    --snapshots`` does and start it listening.  Appends each segment's
    wall seconds to ``parts``; returns the store, the app and its
    address."""
    workers = os.cpu_count() or 1
    for first in range(0, len(asns), RELEASE_CHUNK):
        start = time.perf_counter()
        built.asdb.classify_batch(asns[first:first + RELEASE_CHUNK],
                                  workers=workers)
        parts.append(time.perf_counter() - start)
    start = time.perf_counter()
    store = SnapshotStore(root)
    store.save(built.asdb.dataset, window=(-1, 0))
    index = tracer.run("index.from_snapshots", index_from_snapshots, root)
    history = tracer.run("history.from_snapshots", history_from_snapshots,
                         root)
    app = ServingApp(
        index,
        rebuild=lambda generation: tracer.run(
            "index.from_snapshots", index_from_snapshots, root,
            generation=generation),
        metrics=registry,
        history=history,
        rebuild_history=lambda generation: tracer.run(
            "history.from_snapshots", history_from_snapshots, root,
            generation=generation),
        refresh_incremental=lambda generation, previous: tracer.run(
            "index.refresh_incremental", refresh_index_from_snapshots,
            root, previous, generation),
        refresh_history_incremental=lambda generation, previous: tracer.run(
            "history.refresh_incremental", refresh_history_from_snapshots,
            root, previous, generation),
    )
    instrument("app", app)
    address = tracer.run("serving.start", server.call, app.start(HOST, 0))
    parts.append(time.perf_counter() - start)
    return store, app, address


def _check_bodies(app, address, keys: KeySequence, rng, result) -> int:
    """Compare a seeded sample of ``/asn/{asn}`` bodies with
    ``record_view`` of the served records; unknown ASNs must 404.
    Every request is an operation; a wrong answer is a failed one.
    Returns the number of requests made."""
    index = app.index
    sample = rng.sample(keys.served, min(BODY_SAMPLE, len(keys.served)))
    sample += [MISS_ASN_BASE + rng.randrange(1_000_000) for _ in range(10)]
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        for asn in sample:
            conn.request("GET", f"/asn/{asn}")
            response = conn.getresponse()
            body = response.read()
            if asn >= MISS_ASN_BASE:
                if response.status != 404:
                    result.failed += 1
                    result.fail(f"unknown AS{asn} answered {response.status}")
                continue
            record = index.get(asn)
            if (response.status != 200 or record is None
                    or json.loads(body).get("record")
                    != json.loads(json.dumps(record_view(record)))):
                result.failed += 1
                result.fail(f"/asn/{asn} body differs from record_view")
    finally:
        conn.close()
    return len(sample)


def _stop_resource_tracker() -> None:
    """``spawn`` also started multiprocessing's resource tracker; stop
    it and wait for it, like every other process the benchmark starts.
    A spawned process uses its parent's tracker and has none to stop."""
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run(workload: Workload, seed: int, seconds: float, workdir: str,
        trace: bool = False) -> RunResult:
    """Run :data:`REPEATS` lifecycles, each in a fresh ``spawn``-ed
    process as a CLI invocation would be (so no process-wide cache of
    the program carries over), one after the other; with ``trace``
    every layer of each is wrapped in spans."""
    result = RunResult(workload)
    context = multiprocessing.get_context("spawn")
    try:
        for attempt in range(1, REPEATS + 1):
            pipe, child_end = context.Pipe(duplex=False)
            child = context.Process(
                target=_child,
                args=(child_end, workload.name, seed, seconds, attempt,
                      workdir, trace),
                name=f"lifecycle-{attempt}",
            )
            child.start()
            child_end.close()
            try:
                part = pipe.recv()
            except EOFError:
                part = None
            finally:
                child.join(170)
                if child.is_alive():
                    child.terminate()
                    child.join(30)
                pipe.close()
            if part is None:
                raise RuntimeError(f"lifecycle {attempt} ended without a "
                                   f"result (exit code {child.exitcode})")
            result.merge(part)
    finally:
        _stop_resource_tracker()
    for name, digests in (("releases", result.release_digests),
                          ("final releases", result.final_digests)):
        if len(set(digests)) != 1:
            result.fail(f"{name} of one seed differ: {sorted(set(digests))}")
    return result


def _child(pipe, name: str, seed: int, seconds: float, attempt: int,
           workdir: str, trace: bool) -> None:
    """Entry point of one lifecycle process: run it and send back its
    :class:`RunResult`."""
    workload = WORKLOADS[name]
    tracer = instrument = None
    if trace:
        import layers
        import spans

        tracer = spans.Tracer()
        layers.install(tracer)
        instrument = layers.instrumenter(tracer)
    result = RunResult(workload)
    server = ServerThread()
    reads = None
    try:
        reads = _Reads(workload, seed, seconds)
        _lifecycle(attempt, workload, seed, workdir, result, server, reads,
                   tracer or _NoTracer(),
                   instrument or (lambda kind, obj: None))
    finally:
        if reads is not None:
            reads.close()
        server.close()
        _stop_resource_tracker()
        if tracer is not None:
            tracer.restore()
            offset = attempt * 10_000_000  # span ids unique per run
            result.spans = [
                (span[0] + offset, *span[1:4],
                 None if span[4] is None else span[4] + offset, *span[5:])
                for span in tracer.spans
            ]
    result.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    pipe.send(result)
    pipe.close()


class _Reads:
    """The load generator process of one lifecycle."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        blocks = max(1, round(seconds * READ_RATE
                              / (REPEATS * workload.cycles * READ_BLOCK)))
        #: Requests per burst.
        self.count = blocks * READ_BLOCK
        context = multiprocessing.get_context("spawn")
        self.pipe, child_end = context.Pipe()
        self.process = context.Process(
            target=loadgen.serve,
            args=(child_end, os.cpu_count() or 1, _cpu_split()[1]),
            name="loadgen",
        )
        self.process.start()
        child_end.close()
        try:
            if self.pipe.recv() != "started":
                raise RuntimeError("load generator did not start")
        except BaseException:
            self.close()
            raise

    def connect(self, address) -> None:
        self.pipe.send(("connect", *address))
        if not self.pipe.recv().get("ready"):
            raise RuntimeError("load generator could not connect")

    def close(self) -> None:
        try:
            if self.process.is_alive():
                self.pipe.send(("stop",))
                self.process.join(30)
        except OSError:
            pass
        finally:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(30)
            self.pipe.close()


def _lifecycle(attempt: int, workload: Workload, seed: int, workdir: str,
               result: RunResult, server, reads: _Reads, tracer,
               instrument) -> None:
    """One timed set-up, release and cycles, then the checks on the
    served state."""
    life = Lifecycle()
    result.lifecycles.append(life)
    tracer.phase = f"setup-{attempt}"
    start = time.perf_counter()
    world, built = tracer.run("phase.setup", _setup, workload, seed,
                              tracer, instrument)
    life.setup_s = time.perf_counter() - start
    instrument("built", built)

    root = os.path.join(workdir, f"release-{attempt}")
    registry = MetricsRegistry()
    featcache = built.ml_pipeline.feature_cache.stats()
    tracer.phase = f"release-{attempt}"
    store, app, address = tracer.run(
        "phase.release", _release, built, sorted(world.asns()), root,
        registry, tracer, server, instrument, life.release_parts)
    result.ases_released = len(world.registry)
    result.release_digests.append(store.latest().digest)
    result.attempted += 1
    after = built.ml_pipeline.feature_cache.stats()
    result.featcache = (after.hits - featcache.hits,
                        after.misses - featcache.misses)
    result.cache_stats = built.asdb.cache.stats()
    try:
        reads.connect(address)
        keys = KeySequence(seed, workload.reader, world)
        _cycles(attempt, workload, seed, world, built, store, app, registry,
                reads, keys, life, result, tracer, instrument)
        tracer.phase = "checks"
        rng = random.Random(f"bodies:{seed}")
        result.attempted += _check_bodies(app, address, keys, rng, result)
        full = index_from_snapshots(store.root)
        if app.index.fingerprint() != full.fingerprint():
            result.fail(f"lifecycle {attempt}: served index differs from "
                        f"a full rebuild")
        result.final_digests.append(store.latest().digest)
        tracer.phase = "done"
    finally:
        server.call(app.stop())


def _cycles(attempt: int, workload: Workload, seed: int, world, built,
            store, app, registry, reads: _Reads, keys: KeySequence,
            life: Lifecycle, result: RunResult, tracer, instrument) -> None:
    """The maintenance cycles, each followed by its read burst."""
    workers = os.cpu_count() or 1
    daemon = MaintenanceDaemon(built.asdb, workers=workers,
                               snapshots=store, last_day=0)
    instrument("daemon", daemon)
    day = 0
    refreshed = registry.get("asdb_serve_refresh_incremental_total")
    for cycle in range(1, workload.cycles + 1):
        stats = simulate_churn(
            world, days=workload.cycle_days,
            seed=seed * 1009 + cycle, start_day=day + 1,
        )
        day += workload.cycle_days
        incremental_before = refreshed.total()
        phase = (attempt - 1) * workload.cycles + cycle
        tracer.phase = f"cycle-{phase:02d}"
        start = time.perf_counter()
        report = tracer.run("phase.cycle", _update, daemon, app, day)
        life.updates.append(time.perf_counter() - start)
        result.attempted += 2
        if report.changed_asns != stats.changed_asns:
            result.failed += 1
            result.fail(f"cycle {cycle}: sweep reclassified "
                        f"{len(report.changed_asns)} ASes, churn "
                        f"changed {len(stats.changed_asns)}")
        if refreshed.total() != incremental_before + 1:
            result.failed += 1
            result.fail(f"cycle {cycle}: refresh was not incremental")
        keys.release(stats.new_asns, day)

        tracer.phase = f"keys-{phase:02d}"
        requests, expected = keys.burst(cycle, reads.count, day)
        reads.pipe.send(("load", requests, expected))
        reads.pipe.recv()
        before = serve_totals(registry)
        cpu_before = time.process_time()
        tracer.phase = f"burst-{phase:02d}"
        burst = tracer.run("phase.burst", _burst, reads.pipe)
        result.server_cpu_seconds += time.process_time() - cpu_before
        after = serve_totals(registry)
        life.blocks.append(_absorb(result, burst, before, after))
    result.refresh_incremental += int(refreshed.total())
    if refreshed.total() != workload.cycles:
        result.fail(f"lifecycle {attempt}: {int(refreshed.total())} "
                    f"incremental refreshes over {workload.cycles} cycles")


def _setup(workload: Workload, seed: int, tracer, instrument):
    world = tracer.run("world.generate_world", generate_world,
                       WorldConfig(n_orgs=workload.n_orgs, seed=seed))
    instrument("world", world)
    built = tracer.run("system.build_asdb", build_asdb, world,
                       SystemConfig(seed=seed, metrics=MetricsRegistry()))
    return world, built


def _update(daemon, app, day: int):
    report = daemon.sweep(day)
    app.refresh()
    return report


def _burst(pipe) -> dict:
    pipe.send(("burst",))
    return pipe.recv()


def _blocks(latencies: array, done: array) -> List[tuple]:
    """``(seconds, latencies)`` of each :data:`READ_BLOCK` requests of
    a burst: a block lasts from the last response of the blocks before
    it (or the start of the burst) to its own last response."""
    blocks = []
    finished = 0.0
    for first in range(0, len(latencies), READ_BLOCK):
        block = slice(first, first + READ_BLOCK)
        last = max((value for value in done[block]
                    if not math.isnan(value)), default=finished)
        blocks.append((last - finished, array("d", (
            value for value in latencies[block] if not math.isnan(value)))))
        finished = max(finished, last)
    return blocks


def _absorb(result: RunResult, burst: dict, before, after) -> List[tuple]:
    """Count one burst into ``result``; returns its blocks."""
    latencies = array("d")
    latencies.frombytes(burst["latencies"])
    done = array("d")
    done.frombytes(burst["done"])
    answered = array("d", (value for value in latencies
                           if not math.isnan(value)))
    result.latencies.extend(answered)
    result.bursts += 1
    result.burst_seconds += burst["seconds"]
    result.client_cpu_seconds += burst["cpu_seconds"]
    for status, count in burst["statuses"].items():
        result.statuses[status] = result.statuses.get(status, 0) + count
    result.attempted += len(latencies)
    bad = burst["mismatched"] + len(latencies) - len(answered)
    result.failed += bad
    result.request_failures += bad
    if bad:
        result.fail(f"{burst['mismatched']} unexpected statuses, "
                    f"{burst['errors']} connection errors and "
                    f"{len(latencies) - len(answered)} unanswered requests "
                    f"in a burst")
    result.handled += after[0] - before[0]
    result.handler_seconds += after[1] - before[1]
    result.cache_hits += after[2] - before[2]
    result.cache_misses += after[3] - before[3]
    return _blocks(latencies, done)
