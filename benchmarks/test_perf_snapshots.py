"""Performance: delta snapshot saves on a long-lived store handle.

A :class:`~repro.core.SnapshotStore` handle remembers the version it
saved last.  Its next delta save re-reads the parent's documents as
bytes instead of replaying them, and re-encodes only the records that
are not the very objects it saved (the warm path); a fresh handle
replays and verifies the parent from disk (the cold path).

The store holds ``RECORDS`` records from ``iter_record_shards``; each
cycle then replaces ``CHANGES`` of them (Section 5.3: about 140 changed
ASes a week) and times a warm save (the handle that saved the parent)
against a cold save (a fresh handle on a copy of the store), asserting
that both write the same bytes.  The peak traced memory of one warm
and one cold save, and what a handle keeps between saves, come from a
separate untimed ``tracemalloc`` pass.  Numbers land in
``BENCH_snapshots.json``; ``REPRO_BENCH_ROUNDS`` sets the number of
timed cycles (default 3).
"""

import dataclasses
import json
import os
import random
import shutil
import statistics
import time
import tracemalloc
from pathlib import Path

from repro.core import ASdbDataset, SnapshotStore
from repro.reporting import render_table
from repro.world.generator import iter_record_shards

BENCH_ROUNDS = max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "3")))

RECORDS = 100_000
CHANGES = 140

#: Warm/cold floor: well under the ratio measured on a 2-vCPU VM
#: (7.4-8.2x); it catches the warm path going unused, not a slow host.
MIN_WARM_COLD_RATIO = 2.0

#: The delta-save target at this size (reported, not gated).
TARGET_SECONDS = 0.3

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_snapshots.json"


def _record_bench(key, payload):
    """Merge one benchmark's numbers into ``BENCH_snapshots.json``."""
    document = {}
    if BENCH_PATH.exists():
        document = json.loads(BENCH_PATH.read_text())
    document[key] = payload
    BENCH_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )


def _tree(root):
    tree = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as handle:
            tree[name] = handle.read()
    return tree


class _Registry:
    """A 100k-record dataset, and churn that replaces records with new
    objects the way a maintenance sweep does."""

    def __init__(self):
        self.dataset = ASdbDataset()
        for shard in iter_record_shards(RECORDS):
            for record in shard:
                self.dataset.add(record)
        self._asns = [record.asn for record in self.dataset]
        self._rng = random.Random(140)
        self._cycle = 0

    def churn(self):
        self._cycle += 1
        for asn in self._rng.sample(self._asns, CHANGES):
            self.dataset.add(dataclasses.replace(
                self.dataset.get(asn),
                domain=f"c{self._cycle}-as{asn}.example",
            ))


def _cold_copy(root, name):
    copy = os.path.join(os.path.dirname(root), name)
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(root, copy)
    return copy


def _traced(save):
    """(peak, retained) traced bytes of one call."""
    tracemalloc.start()
    try:
        save()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, current


def test_perf_warm_delta_save(tmp_path, report):
    registry = _Registry()
    root = str(tmp_path / "releases")
    warm = SnapshotStore(root)
    t0 = time.perf_counter()
    warm.save(registry.dataset)
    full_seconds = time.perf_counter() - t0

    warm_seconds, cold_seconds, written = [], [], []
    identical = True
    for _ in range(BENCH_ROUNDS):
        registry.churn()
        cold_root = _cold_copy(root, "cold")
        cold = SnapshotStore(cold_root)
        t0 = time.perf_counter()
        info = warm.save(registry.dataset)
        warm_seconds.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        cold_info = cold.save(registry.dataset)
        cold_seconds.append(time.perf_counter() - t0)
        assert info.changed == CHANGES
        identical = (identical and info == cold_info
                     and _tree(root) == _tree(cold_root))
        written.append(os.path.getsize(os.path.join(root, info.filename)))
        del cold
        shutil.rmtree(cold_root)

    # Memory, untimed: one more cycle on each path under tracemalloc.
    registry.churn()
    cold_root = _cold_copy(root, "cold")
    warm_peak, _ = _traced(lambda: warm.save(registry.dataset))
    cold = SnapshotStore(cold_root)
    cold_peak, resident = _traced(lambda: cold.save(registry.dataset))
    del cold
    shutil.rmtree(cold_root)

    warm_median = statistics.median(warm_seconds)
    cold_median = statistics.median(cold_seconds)
    ratio = cold_median / warm_median
    mb = 1 << 20
    payload = {
        "records": RECORDS,
        "changes_per_cycle": CHANGES,
        "rounds": BENCH_ROUNDS,
        "full_save_seconds": round(full_seconds, 4),
        "warm_seconds": [round(value, 4) for value in warm_seconds],
        "cold_seconds": [round(value, 4) for value in cold_seconds],
        "warm_median_seconds": round(warm_median, 4),
        "cold_median_seconds": round(cold_median, 4),
        "warm_cold_ratio": round(ratio, 2),
        "ratio_floor": MIN_WARM_COLD_RATIO,
        "target_seconds": TARGET_SECONDS,
        "warm_meets_target": warm_median <= TARGET_SECONDS,
        "delta_bytes_written": int(statistics.median(written)),
        "byte_identical": identical,
        "warm_peak_traced_mb": round(warm_peak / mb, 1),
        "cold_peak_traced_mb": round(cold_peak / mb, 1),
        "handle_resident_mb": round(resident / mb, 1),
    }
    _record_bench("delta_save_100k", payload)
    report("perf_snapshot_save", render_table(
        ["Path", "Median seconds", "Peak traced MB"],
        [
            ["warm (handle that saved the parent)", f"{warm_median:.3f}",
             f"{warm_peak / mb:.1f}"],
            ["cold (fresh handle, replays the parent)",
             f"{cold_median:.3f}", f"{cold_peak / mb:.1f}"],
            ["cold / warm", f"{ratio:.1f}x", ""],
        ],
        title=f"delta save of {CHANGES} changes over {RECORDS:,} records "
              f"({BENCH_ROUNDS} cycles; a handle keeps "
              f"{resident / mb:.1f} MB between saves)",
    ))
    assert identical, "warm and cold saves wrote different stores"
    assert ratio >= MIN_WARM_COLD_RATIO, payload
