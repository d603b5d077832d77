"""Temporal queries over the release history (ROADMAP item 3).

"Back-to-the-Future Whois" argues attribution datasets are only
trustworthy when they answer point-in-time questions — *how was AS X
classified on day D?* — and the AS-taxonomy lineage motivates churn
analytics across releases as a first-class product.
:class:`ReleaseHistory` is both, built directly on the digest-verified
:class:`~repro.core.snapshots.SnapshotStore`:

- :meth:`~ReleaseHistory.asof` reconstructs the full dataset in force
  at a version or day, into any ``DatasetStore`` backend, replaying
  from the nearest checkpoint;
- :meth:`~ReleaseHistory.timeline` yields one AS's per-version
  classification trajectory by scanning the recorded delta chain —
  no dataset is ever materialized, and each of that AS's stored items
  is parsed as a load would parse it;
- :meth:`~ReleaseHistory.churn` computes category-flow analytics
  between two releases through scratch stores (O(batch) residency).

Day semantics follow the sweep windows releases record: a version is
"in force" on day D if it is the newest release whose window closed at
or before D (``through_day <= D``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .persistence import record_from_item
from .snapshots import (
    _MALFORMED,
    SnapshotCorruption,
    SnapshotError,
    SnapshotInfo,
    SnapshotStore,
)

__all__ = [
    "ABSENT",
    "UNCLASSIFIED",
    "ChurnReport",
    "ReleaseHistory",
    "TimelineEvent",
    "categorization",
    "event_for",
    "fold_timelines",
]

#: Churn-state label for an AS not present in a release.
ABSENT = "(absent)"
#: Churn-state label for a record carrying no category labels.
UNCLASSIFIED = "(unclassified)"


def categorization(item: Optional[Dict[str, object]]) -> str:
    """The categorization state of one serialized record item: its
    sorted layer-1 slugs joined with ``+`` (multi-business orgs get a
    composite state), :data:`UNCLASSIFIED` for a labelless record, and
    :data:`ABSENT` for a missing one.

    States are exact and deterministic, so churn flows between them are
    countable without any similarity judgement.
    """
    if item is None:
        return ABSENT
    slugs = sorted({
        str(label["layer1"]) for label in item.get("labels", ())
    })
    return "+".join(slugs) if slugs else UNCLASSIFIED


def _record_state(record) -> str:
    """:func:`categorization` for a live record object."""
    slugs = sorted(record.labels.layer1_slugs())
    return "+".join(slugs) if slugs else UNCLASSIFIED


@dataclass(frozen=True)
class TimelineEvent:
    """One change to one AS's record across the release history.

    Attributes:
        version: The release that introduced the change.
        change: ``added`` / ``updated`` / ``removed``.
        since_day: The release's sweep-window lower bound (exclusive).
        through_day: The release's sweep-window upper bound (inclusive).
        item: The record's serialized item as of this release (None
            after a removal).
        labels_changed: For updates: whether the label set moved.
        stage_changed: For updates: whether the producing stage moved.
    """

    version: int
    change: str
    since_day: Optional[int]
    through_day: Optional[int]
    item: Optional[Dict[str, object]] = None
    labels_changed: bool = False
    stage_changed: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "change": self.change,
            "since_day": self.since_day,
            "through_day": self.through_day,
            "categorization": categorization(self.item),
            "labels_changed": self.labels_changed,
            "stage_changed": self.stage_changed,
            "item": self.item,
        }


def event_for(
    info: SnapshotInfo,
    old: Optional[Dict[str, object]],
    new: Optional[Dict[str, object]],
) -> Optional[TimelineEvent]:
    """The timeline event taking an AS from item ``old`` to ``new`` at
    release ``info``, or None when nothing changed."""
    if old is None and new is None:
        return None
    if old is None:
        change = "added"
    elif new is None:
        change = "removed"
    elif new != old:
        change = "updated"
    else:
        return None
    return TimelineEvent(
        version=info.version,
        change=change,
        since_day=info.since_day,
        through_day=info.through_day,
        item=new,
        labels_changed=bool(
            old is not None and new is not None
            and old.get("labels") != new.get("labels")
        ),
        stage_changed=bool(
            old is not None and new is not None
            and old.get("stage") != new.get("stage")
        ),
    )


def fold_timelines(
    timelines: Mapping[int, Tuple[TimelineEvent, ...]],
    chain: Iterable[Tuple[SnapshotInfo, List[dict], List[int]]],
) -> Dict[int, Tuple[TimelineEvent, ...]]:
    """``timelines`` (ASN -> events) carried through ``chain``, a
    :meth:`SnapshotStore.deltas_since` result.

    The one event fold: :class:`ReleaseHistory` runs it from nothing and
    :meth:`~repro.serving.index.HistoryIndex.extend` from the timelines
    it serves.  Each version applies its removals, then its changed
    items; a ``full`` version pins the whole state, so every present AS
    it lacks is removed.  ``timelines`` is left untouched and ASes the
    chain never touches keep their tuples.  Linear in events: a touched
    AS's events are copied into a list once and frozen at the end.
    """
    grown: Dict[int, List[TimelineEvent]] = {}

    def last(asn: int) -> Optional[Dict[str, object]]:
        events = grown.get(asn) or timelines.get(asn)
        return events[-1].item if events else None

    def apply(info: SnapshotInfo, asn: int, item: Optional[dict]) -> None:
        event = event_for(info, last(asn), item)
        if event is not None:
            if asn not in grown:
                grown[asn] = list(timelines.get(asn, ()))
            grown[asn].append(event)

    for info, changed, removed in chain:
        if info.kind == "full":
            kept = {int(item["asn"]) for item in changed}
            removed = [asn for asn in timelines.keys() | grown.keys()
                       if asn not in kept and last(asn) is not None]
        for asn in removed:
            apply(info, int(asn), None)
        for item in changed:
            apply(info, int(item["asn"]), item)
    successor = dict(timelines)
    successor.update((asn, tuple(events)) for asn, events in grown.items())
    return successor


@dataclass(frozen=True)
class ChurnReport:
    """Category flow between two releases.

    ``flows`` counts ASes per ``(old state, new state)`` transition —
    states are :func:`categorization` strings plus :data:`ABSENT` —
    sorted by descending count.  ``unchanged`` counts ASes whose
    categorization state held (their stage or provenance may still have
    moved; churn is about *category* movement).
    """

    old_version: int
    new_version: int
    old_records: int
    new_records: int
    added: int
    removed: int
    relabeled: int
    unchanged: int
    flows: Tuple[Tuple[str, str, int], ...]

    @property
    def changed(self) -> int:
        """ASes that appeared, disappeared, or switched category."""
        return self.added + self.removed + self.relabeled

    def to_dict(self) -> Dict[str, object]:
        return {
            "old_version": self.old_version,
            "new_version": self.new_version,
            "old_records": self.old_records,
            "new_records": self.new_records,
            "added": self.added,
            "removed": self.removed,
            "relabeled": self.relabeled,
            "unchanged": self.unchanged,
            "flows": [
                {"from": source, "to": target, "count": count}
                for source, target, count in self.flows
            ],
        }


class ReleaseHistory:
    """Point-in-time and trajectory queries over a snapshot store."""

    def __init__(self, store: SnapshotStore) -> None:
        self._store = store

    @property
    def store(self) -> SnapshotStore:
        return self._store

    # -- as-of reconstruction ----------------------------------------------

    def version_on(self, day: int) -> SnapshotInfo:
        """The release in force on ``day``: the newest version whose
        sweep window closed at or before it (SnapshotError when the
        history starts later, or records no windows at all)."""
        best: Optional[SnapshotInfo] = None
        for info in self._store.versions():
            if info.through_day is not None and info.through_day <= day:
                best = info
        if best is None:
            dated = [
                info for info in self._store.versions()
                if info.through_day is not None
            ]
            if dated:
                raise SnapshotError(
                    f"no release at or before day {day} (earliest is "
                    f"v{dated[0].version}, through day "
                    f"{dated[0].through_day})"
                )
            raise SnapshotError(
                f"no release at or before day {day}: no version in "
                f"this store records a sweep window"
            )
        return best

    def asof(
        self,
        version: Optional[int] = None,
        day: Optional[int] = None,
        into=None,
    ):
        """The full dataset as of a version or a day (exactly one).

        Returns ``(dataset, info)`` exactly like
        :meth:`SnapshotStore.materialize`: digest-verified, replayed
        from the nearest checkpoint, landing in ``into`` when a
        ``DatasetStore`` backend is passed.
        """
        if (version is None) == (day is None):
            raise SnapshotError(
                "asof needs exactly one of version= or day="
            )
        if day is not None:
            version = self.version_on(day).version
        return self._store.materialize(version, into=into)

    # -- trajectories -------------------------------------------------------

    def timeline(self, asn: int) -> Tuple[TimelineEvent, ...]:
        """One AS's per-version classification trajectory: the
        :func:`fold_timelines` of :meth:`timelines`, over the chain
        narrowed to this AS.  Deltas are scanned as recorded (never
        their checkpoints) and no dataset is ever materialized.  Empty
        when the AS never appears.

        Each of the AS's items is parsed as :meth:`SnapshotStore.load`
        parses it, so a malformed one raises
        :class:`~repro.core.snapshots.SnapshotCorruption` with load's
        message, at O(events of this AS).  The fold itself parses
        nothing (it runs in every serving refresh), and no version's
        digest is checked: a well-formed edit still passes.
        """
        chain = []
        for info, changed, removed in self._store.deltas_since(0):
            try:
                mine = [item for item in changed if int(item["asn"]) == asn]
                for item in mine:
                    record_from_item(item)
            except _MALFORMED as exc:
                raise SnapshotCorruption(
                    f"v{info.version}: malformed stored document: {exc!r}"
                ) from exc
            chain.append(
                (info, mine, [gone for gone in removed if gone == asn])
            )
        return fold_timelines({}, chain).get(asn, ())

    def timelines(self) -> Dict[int, Tuple[TimelineEvent, ...]]:
        """Every AS's trajectory, in one pass over the version chain:
        :func:`fold_timelines` from nothing.  Full versions pin the
        complete state (ASes absent from a full document get a
        ``removed`` event).
        """
        return fold_timelines({}, self._store.deltas_since(0))

    # -- churn --------------------------------------------------------------

    def churn(self, old_version: int, new_version: int) -> ChurnReport:
        """Category-flow analytics between two releases.

        Both sides stream through scratch sqlite stores and one ordered
        merge (O(batch) residency), counting per-AS transitions between
        :func:`categorization` states.
        """
        flows: Dict[Tuple[str, str], int] = {}
        added = removed = relabeled = unchanged = 0
        old_count = new_count = 0

        def flow(source: str, target: str) -> None:
            flows[(source, target)] = flows.get((source, target), 0) + 1

        with self._store.materialize_pair(old_version, new_version) as pair:
            old_ds, new_ds = pair
            sentinel = object()
            new_iter, old_iter = iter(new_ds), iter(old_ds)
            new = next(new_iter, sentinel)
            old = next(old_iter, sentinel)
            while new is not sentinel or old is not sentinel:
                if old is sentinel or (
                    new is not sentinel and new.asn < old.asn
                ):
                    added += 1
                    new_count += 1
                    flow(ABSENT, _record_state(new))
                    new = next(new_iter, sentinel)
                elif new is sentinel or old.asn < new.asn:
                    removed += 1
                    old_count += 1
                    flow(_record_state(old), ABSENT)
                    old = next(old_iter, sentinel)
                else:
                    old_count += 1
                    new_count += 1
                    old_state = _record_state(old)
                    new_state = _record_state(new)
                    if old_state == new_state:
                        unchanged += 1
                    else:
                        relabeled += 1
                        flow(old_state, new_state)
                    new = next(new_iter, sentinel)
                    old = next(old_iter, sentinel)
        ordered = sorted(
            flows.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ChurnReport(
            old_version=old_version,
            new_version=new_version,
            old_records=old_count,
            new_records=new_count,
            added=added,
            removed=removed,
            relabeled=relabeled,
            unchanged=unchanged,
            flows=tuple(
                (source, target, count)
                for (source, target), count in ordered
            ),
        )
