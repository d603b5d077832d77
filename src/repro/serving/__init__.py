"""Async serving layer: query API over hot, atomically swapped indexes.

The read side of the system (ROADMAP item 1): a dependency-free
``asyncio`` HTTP service exposing the released dataset for query
traffic, backed by an immutable :class:`ReadIndex` materialized from
any storage backend and swapped atomically on refresh.

Quickstart::

    from repro.serving import ReadIndex, ServingApp

    index = ReadIndex.build(dataset, source="memory")
    app = ServingApp(index)
    status, body, _ = app.handle_request("GET", "/healthz")

or over HTTP, via the CLI::

    python -m repro serve --snapshots releases --port 8311
    curl -s localhost:8311/asn/64512
"""

from typing import Dict, Optional

from ..core.persistence import record_from_item
from ..core.snapshots import SnapshotStore
from .app import ServingApp
from .index import HistoryIndex, IndexVersion, ReadIndex, record_view
from .queue import (
    OFFER_FULL,
    OFFER_PENDING,
    OFFER_QUEUED,
    ClassificationQueue,
    QueueWorker,
)

__all__ = [
    "ServingApp",
    "ReadIndex",
    "HistoryIndex",
    "IndexVersion",
    "record_view",
    "ClassificationQueue",
    "QueueWorker",
    "OFFER_QUEUED",
    "OFFER_PENDING",
    "OFFER_FULL",
    "index_from_store",
    "index_from_snapshots",
    "history_from_snapshots",
    "refresh_index_from_snapshots",
    "refresh_history_from_snapshots",
]


def index_from_store(
    store, generation: int = 1, source: str = ""
) -> ReadIndex:
    """Build a :class:`ReadIndex` from any dataset-store backend.

    ``store`` is anything iterable over records — an
    :class:`~repro.core.database.ASdbDataset`, a
    :class:`~repro.core.store.SqliteDatasetStore`, or a
    :class:`~repro.core.store.JsonDatasetStore`.
    """
    label = source or getattr(store, "path", "") or type(store).__name__
    return ReadIndex.build(iter(store), generation=generation,
                           source=str(label))


def index_from_snapshots(
    root: str,
    version: Optional[int] = None,
    generation: int = 1,
) -> ReadIndex:
    """Materialize a snapshot-store version into a fresh index.

    Reopens the store from ``root`` on every call, so a rebuild after
    ``repro refresh`` picks up versions appended since the last build —
    that is what makes ``POST /refresh`` serve new releases without a
    restart.
    """
    store = SnapshotStore(root)
    dataset, info = store.materialize(version)
    return ReadIndex.build(
        dataset,
        generation=generation,
        source=f"snapshots:{root}",
        snapshot_version=info.version,
        digest=info.digest,
    )


def refresh_index_from_snapshots(
    root: str,
    previous: ReadIndex,
    generation: int,
) -> Optional[ReadIndex]:
    """Delta-apply successor to ``previous`` from the snapshot store,
    or ``None`` when incremental refresh does not apply.

    The O(changed) counterpart of :func:`index_from_snapshots`:
    instead of materializing the latest release and rebuilding every
    lookup structure, the chain recorded since ``previous`` was built
    (:meth:`SnapshotStore.deltas_since`, which checks the lineage) is
    merged into one net change set (remove-then-readd collapses
    correctly) and applied copy-on-write.  A lineage mismatch (store
    rewritten, an index without a snapshot digest) returns ``None``,
    and so does a chain holding a ``full`` save, so the caller
    re-baselines through the digest-verified full rebuild.
    """
    version = previous.version
    chain = SnapshotStore(root).deltas_since(
        version.snapshot_version or 0, version.digest
    )
    if chain is None or any(info.kind == "full" for info, _, _ in chain):
        return None
    net_changed: Dict[int, dict] = {}
    net_removed: Dict[int, None] = {}
    for _, changed, removed in chain:
        for asn in removed:
            net_changed.pop(int(asn), None)
            net_removed[int(asn)] = None
        for item in changed:
            asn = int(item["asn"])
            net_removed.pop(asn, None)
            net_changed[asn] = item
    latest = chain[-1][0] if chain else None
    return previous.apply_delta(
        (record_from_item(item) for item in net_changed.values()),
        net_removed,
        generation=generation,
        source=f"snapshots:{root}",
        snapshot_version=(latest.version if latest
                          else version.snapshot_version),
        digest=latest.digest if latest else version.digest,
    )


def refresh_history_from_snapshots(
    root: str,
    previous: HistoryIndex,
    generation: int,
) -> Optional[HistoryIndex]:
    """Incrementally extended successor to ``previous``, or ``None``
    when the store's lineage no longer matches (see
    :meth:`HistoryIndex.extend`); the caller falls back to
    :func:`history_from_snapshots`.
    """
    return previous.extend(
        SnapshotStore(root),
        generation=generation,
        source=f"snapshots:{root}",
    )


def history_from_snapshots(
    root: str, generation: int = 1
) -> HistoryIndex:
    """Precompute the temporal :class:`HistoryIndex` from a snapshot
    store.

    Reopens the store from ``root`` on every call, like
    :func:`index_from_snapshots`, so a refresh swap extends the served
    history to releases appended since the last build.
    """
    return HistoryIndex.build(SnapshotStore(root), generation=generation)
