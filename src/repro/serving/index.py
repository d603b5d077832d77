"""The immutable in-memory read index behind the serving layer.

The ASdb paper frames the dataset as a continuously refreshed *product*
that downstream users query; serving that product at high request rates
wants a different shape than the write-side stores.  A
:class:`ReadIndex` is that shape: every lookup the API exposes —
by-ASN, by-organization, category histogram, version facts — is
precomputed at build time into plain dicts, and the finished index is
never mutated.  The service swaps a freshly built index in with one
attribute assignment (see :mod:`repro.serving.app`), so the read path
takes no lock and a request that grabbed the old index keeps serving a
fully consistent view while the new one takes over.

Build an index from any record iterable — an in-memory
:class:`~repro.core.database.ASdbDataset`, an indexed
:class:`~repro.core.store.SqliteDatasetStore`, or a materialized
:class:`~repro.core.snapshots.SnapshotStore` version via
:meth:`SnapshotStore.materialize` — the index neither knows nor cares
which backend fed it.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.database import ASdbRecord
from ..core.history import TimelineEvent, fold_timelines
from ..core.persistence import record_to_item
from ..core.snapshots import SnapshotInfo, SnapshotStore
from ..core.stages import Stage
from ..world.names import token_set

__all__ = ["HistoryIndex", "IndexVersion", "ReadIndex", "record_view"]


def record_view(record: ASdbRecord) -> Dict[str, object]:
    """The JSON-able API view of one record.

    The release-item shape (:func:`record_to_item`) plus the derived
    fields a query client wants inline: ``classified`` and the stage's
    prior-accuracy ``confidence``.
    """
    view = record_to_item(record)
    view["classified"] = record.classified
    view["confidence"] = record.confidence
    return view


def _tally(counts: Dict[str, int]) -> Dict[str, int]:
    """``counts`` sorted by key, without zero entries."""
    return {key: count for key, count in sorted(counts.items()) if count}


def _org_tokens(record: ASdbRecord) -> Tuple[str, ...]:
    """Search tokens identifying the record's owning organization.

    The org key carries either the normalized name token set
    (``name:acme corp``) or the chosen domain (``domain:acme.com``);
    both forms tokenize, and the record's own domain contributes its
    dot-split labels so ``/org/acme.com`` and ``/org/acme`` both hit.
    """
    tokens: List[str] = []
    for key in (record.org_key or "",):
        _, _, value = key.partition(":")
        tokens.extend(token_set(value.replace(".", " ")))
    if record.domain:
        tokens.extend(token_set(record.domain.replace(".", " ")))
        tokens.append(record.domain.lower())
    return tuple(dict.fromkeys(tokens))


@dataclass(frozen=True)
class IndexVersion:
    """Identity of one served index build.

    Attributes:
        generation: Monotone swap counter, bumped on every rebuild —
            the number clients see change when a refresh lands.
        records: Records in the index.
        coverage: Fraction of records with at least one category.
        source: Human-readable description of the backing source.
        snapshot_version: Snapshot-store version materialized into this
            build, when the index serves a versioned release.
        digest: The release document digest, when known.
    """

    generation: int
    records: int
    coverage: float
    source: str = ""
    snapshot_version: Optional[int] = None
    digest: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "generation": self.generation,
            "records": self.records,
            "coverage": round(self.coverage, 4),
            "source": self.source,
            "snapshot_version": self.snapshot_version,
            "digest": self.digest,
        }


class ReadIndex:
    """Immutable precomputed lookup structures over one dataset build.

    Construct via :meth:`build`; instances are never mutated after
    construction (the service swaps whole indexes instead), which is
    what makes the lock-free read path safe.
    """

    def __init__(
        self,
        records: Dict[int, ASdbRecord],
        postings: Dict[str, Tuple[int, ...]],
        categories: Dict[str, int],
        stage_counts: Dict[str, int],
        version: IndexVersion,
        classified: int,
    ) -> None:
        self._records = records
        self._postings = postings
        # Sorted, without zero tallies, once at construction, so every
        # render of the histograms (and the fingerprint) depends only on
        # the records served.
        self._categories = _tally(categories)
        self._stage_counts = _tally(stage_counts)
        self._classified = classified
        self.version = version
        #: Per-generation pre-rendered responses, keyed by request
        #: target.  The index is immutable, so an entry never goes
        #: stale — the whole cache dies with the index at swap time.
        #: Written by :class:`~repro.serving.app.ServingApp`.
        self.response_cache: Dict[str, tuple] = {}
        self.etag = self._make_etag()

    def _make_etag(self) -> str:
        """Strong ETag for every response derived from this build.

        Snapshot-backed indexes carry the release digest, so the tag is
        content-strong across restarts; digest-less sources fall back
        to an aggregate token (record count, coverage, histograms) plus
        the process-local generation.
        """
        if self.version.digest:
            tail = self.version.digest
        else:
            hasher = hashlib.blake2b(digest_size=8)
            hasher.update(json.dumps([
                self.version.source,
                self.version.records,
                repr(self.version.coverage),
                self._categories,
                self._stage_counts,
            ], sort_keys=True).encode("utf-8"))
            tail = hasher.hexdigest()
        return f'"asdb-g{self.version.generation}-{tail}"'

    @classmethod
    def build(
        cls,
        records: Iterable[ASdbRecord],
        generation: int = 1,
        source: str = "",
        snapshot_version: Optional[int] = None,
        digest: Optional[str] = None,
    ) -> "ReadIndex":
        """Materialize an index from any record iterable: the records
        applied as one delta to an empty index, in one streaming pass
        (a store-backed build reads each record exactly once)."""
        empty = cls({}, {}, {}, {}, IndexVersion(0, 0, 0.0), classified=0)
        return empty.apply_delta(
            records, (), generation=generation, source=source,
            snapshot_version=snapshot_version, digest=digest,
        )

    # -- incremental refresh -------------------------------------------------

    def apply_delta(
        self,
        changed: Iterable[ASdbRecord],
        removed: Iterable[int],
        generation: int,
        source: Optional[str] = None,
        snapshot_version: Optional[int] = None,
        digest: Optional[str] = None,
    ) -> "ReadIndex":
        """Build the successor index from this one plus a delta.

        The one build path (:meth:`build` applies every record to an
        empty index).  Copy-on-write of only the touched state: the
        by-ASN map and the postings table are shallow-copied dicts, and
        only entries for removed/changed records — their org tokens,
        their category and stage tallies — are recomputed.  ``removed``
        applies first, then ``changed`` (a changed ASN already present
        replaces its record), matching snapshot delta semantics.  This
        index is left untouched.
        """
        records = dict(self._records)
        categories = dict(self._categories)
        stage_counts = dict(self._stage_counts)
        classified = self._classified
        #: token -> its new member set, for every token touched.
        members: Dict[str, set] = {}

        def tally(record: ASdbRecord, step: int) -> None:
            nonlocal classified
            if record.classified:
                classified += step
            stage = record.stage.value
            stage_counts[stage] = stage_counts.get(stage, 0) + step
            for slug in record.labels.layer1_slugs():
                categories[slug] = categories.get(slug, 0) + step
            for token in _org_tokens(record):
                asns = members.get(token)
                if asns is None:
                    asns = members[token] = set(self._postings.get(token, ()))
                if step > 0:
                    asns.add(record.asn)
                else:
                    asns.discard(record.asn)

        for asn in removed:
            old = records.pop(int(asn), None)
            if old is not None:
                tally(old, -1)
        for record in changed:
            old = records.get(record.asn)
            if old is not None:
                tally(old, -1)
            records[record.asn] = record
            tally(record, 1)

        postings = dict(self._postings)
        for token, asns in members.items():
            if asns:
                postings[token] = tuple(sorted(asns))
            else:
                postings.pop(token, None)

        version = IndexVersion(
            generation=generation,
            records=len(records),
            coverage=classified / len(records) if records else 0.0,
            source=self.version.source if source is None else source,
            snapshot_version=snapshot_version,
            digest=digest,
        )
        return ReadIndex(records, postings, categories, stage_counts,
                         version, classified=classified)

    def fingerprint(self) -> str:
        """Content digest of everything the index serves.

        Two indexes with equal fingerprints answer every endpoint with
        the same data: records, postings, histograms, coverage, and the
        stamped release identity all feed the hash.  Generation and
        source are deliberately excluded — a delta-applied successor
        proves itself byte-identical to a full rebuild even though the
        two carry different build labels.
        """
        hasher = hashlib.blake2b(digest_size=16)
        for asn in sorted(self._records):
            item = record_to_item(self._records[asn])
            hasher.update(
                json.dumps(item, sort_keys=True).encode("utf-8")
            )
            hasher.update(b"\x00")
        for token in sorted(self._postings):
            hasher.update(token.encode("utf-8"))
            hasher.update(repr(self._postings[token]).encode("ascii"))
            hasher.update(b"\x00")
        hasher.update(json.dumps(
            [
                self._categories,
                self._stage_counts,
                self._classified,
                self.version.snapshot_version,
                self.version.digest,
            ],
            sort_keys=True,
        ).encode("utf-8"))
        return hasher.hexdigest()

    # -- lookups -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, asn: int) -> bool:
        return asn in self._records

    def get(self, asn: int) -> Optional[ASdbRecord]:
        """The record for an ASN, or None."""
        return self._records.get(asn)

    def org_matches(self, query: str) -> List[int]:
        """Every ASN whose organization matches all query tokens,
        ascending — the unbounded candidate set behind
        :meth:`search_org`, exposed so callers can report the true
        match count while still capping the records they materialize.
        """
        tokens = list(token_set(query.replace(".", " ")))
        if query.strip():
            tokens.append(query.strip().lower())
        candidates: Optional[set] = None
        for token in tokens:
            posting = self._postings.get(token)
            if posting is None:
                continue
            hits = set(posting)
            candidates = hits if candidates is None else candidates & hits
        return sorted(candidates) if candidates else []

    def search_org(
        self, query: str, limit: int = 20
    ) -> List[ASdbRecord]:
        """Records whose organization matches every query token.

        Tokenizes the query the same way index postings were built
        (name normalization; dots split), intersects the posting lists,
        and returns up to ``limit`` records in ascending ASN order.
        """
        return [
            self._records[asn]
            for asn in self.org_matches(query)[: max(0, limit)]
        ]

    def categories(self) -> Dict[str, int]:
        """AS count per layer 1 slug (a copy; the index stays frozen)."""
        return dict(self._categories)

    def stage_counts(self) -> Dict[str, int]:
        """Record count per producing pipeline stage (a copy)."""
        return dict(self._stage_counts)

    def stage_counts_typed(self) -> Dict[Stage, int]:
        """Stage counts keyed by :class:`Stage` (protocol parity)."""
        return {
            Stage(slug): count
            for slug, count in self._stage_counts.items()
        }


class HistoryIndex:
    """Immutable per-ASN release-history map behind the temporal
    endpoints.

    The serving-side face of :class:`~repro.core.history.ReleaseHistory`:
    one pass over the snapshot store's version chain at build time
    precomputes every AS's timeline plus a day → version resolution
    table, and the finished index is never mutated.  The service
    publishes a rebuilt history with the same single-assignment swap
    discipline as :class:`ReadIndex`, so ``/asn/{asn}/history`` and
    ``/asof/{day}/asn/{asn}`` answers are always internally consistent
    — no request ever sees half an old history and half a new one.
    """

    def __init__(
        self,
        timelines: Dict[int, Tuple[TimelineEvent, ...]],
        infos: Dict[int, SnapshotInfo],
        generation: int,
        source: str = "",
    ) -> None:
        self._timelines = timelines
        self._infos = infos
        #: (through_day, version) ascending — bisect resolves "the
        #: release in force on day D" without touching the store.
        self._days: List[Tuple[int, int]] = sorted(
            (info.through_day, info.version)
            for info in infos.values()
            if info.through_day is not None
        )
        self._day_keys = [day for day, _ in self._days]
        self.generation = generation
        self.source = source

    @classmethod
    def build(
        cls,
        store: SnapshotStore,
        generation: int = 1,
        source: str = "",
    ) -> "HistoryIndex":
        """Precompute all timelines from a snapshot store: :meth:`extend`
        from an empty history."""
        return cls({}, {}, generation, source).extend(
            store, generation, source or f"snapshots:{store.root}"
        )

    def extend(
        self,
        store: SnapshotStore,
        generation: int,
        source: str = "",
    ) -> Optional["HistoryIndex"]:
        """Successor covering releases appended since this build.

        Folds just the new versions into the existing timelines
        (:func:`~repro.core.history.fold_timelines`; untouched ASes
        share their event tuples with this index) instead of rescanning
        the whole chain.  A full save among them pins the whole state.
        Returns ``None`` when the store's lineage no longer matches (the
        newest release this index covers is gone or has another
        digest); the caller falls back to :meth:`build`.  This index is
        left untouched.
        """
        base = self.latest_version
        chain = store.deltas_since(
            base, self._infos[base].digest if base else None
        )
        if chain is None:
            return None
        infos = dict(self._infos)
        infos.update((info.version, info) for info, _, _ in chain)
        return HistoryIndex(
            fold_timelines(self._timelines, chain),
            infos,
            generation=generation,
            source=source or self.source,
        )

    # -- lookups -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._timelines)

    @property
    def latest_version(self) -> int:
        """Newest release version covered by this build (0 if empty)."""
        return max(self._infos) if self._infos else 0

    def info(self, version: int) -> SnapshotInfo:
        """Manifest facts for one covered version (KeyError if absent)."""
        return self._infos[version]

    def timeline(self, asn: int) -> Optional[Tuple[TimelineEvent, ...]]:
        """The AS's event trajectory, or None if it never appears."""
        return self._timelines.get(asn)

    def version_on(self, day: int) -> Optional[int]:
        """The release in force on ``day`` (newest version whose sweep
        window closed at or before it), or None."""
        position = bisect.bisect_right(self._day_keys, day) - 1
        return self._days[position][1] if position >= 0 else None

    def record_asof(
        self, asn: int, version: int
    ) -> Optional[Dict[str, object]]:
        """The AS's record item as of ``version``, replayed from its
        precomputed timeline (None when absent at that point)."""
        state: Optional[Dict[str, object]] = None
        for event in self._timelines.get(asn, ()):
            if event.version > version:
                break
            state = event.item
        return state
