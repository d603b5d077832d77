"""Versioned dataset snapshots with delta encoding and periodic
checkpoints (Section 5.3).

The released ASdb is not one file but a *history*: quarterly releases,
each produced by sweeping the registry for changes since the previous
one.  "Back-to-the-Future Whois" makes the case that attribution
datasets need point-in-time snapshots with diffable history;
:class:`SnapshotStore` is that substrate for this system, and
:mod:`repro.core.history` builds the temporal query layer on top.

Layout on disk (everything under one root directory)::

    manifest.json        index of versions + free-form store metadata
    v0001.full.json      version 1: dataset_to_json output, verbatim
    v0002.delta.json     version 2: changed records + removed ASNs
    ...
    v0009.delta.json     every K-th delta also stores ...
    v0009.ckpt.json      ... a checkpoint: the full document, verbatim

Version 1 (and any version saved with ``full=True``) stores the
complete lossless JSON document from
:func:`~repro.core.persistence.dataset_to_json`, byte for byte.  Every
other version is a *delta* against its parent: the
:func:`~repro.core.persistence.record_to_item` items of records that
changed, plus the ASNs that disappeared.  With ``checkpoint_every=K``
(recorded in the manifest, so every handle on the store agrees), each
K-th consecutive delta is *promoted*: it keeps its delta document — the
chain stays uniformly scannable for timelines and churn — but also
stores the full document alongside it.  Loading any version replays the
chain forward from the nearest full document (checkpoint or full
snapshot), so reconstruction cost is O(K deltas) regardless of history
depth; a blake2b digest of the materialized document, recorded at save
time, guards every reconstruction.  A handle remembers the version it
saved last, so its next delta save re-checks the parent's documents by
their bytes instead of replaying them and encodes only the records that
are not the objects it saved (see :meth:`SnapshotStore.save`).

Each version also records the maintenance-sweep window and provenance
that produced it, so ``repro diff``/``repro refresh`` can answer "what
changed between releases, and why".
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import uuid
import weakref
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import partial
from typing import IO, Dict, Iterable, List, Optional, Tuple

from .database import ASdbDataset, DatasetDiff, diff_record_streams
from .persistence import (
    JsonFrame,
    item_json,
    record_from_item,
    record_to_item,
)
from .store import StoreError

__all__ = [
    "SnapshotError",
    "SnapshotCorruption",
    "SnapshotInfo",
    "SnapshotStore",
    "dataset_digest",
]

MANIFEST_FORMAT = "asdb-repro/snapshots/1"
DELTA_FORMAT = "asdb-repro/delta/1"
DATASET_FORMAT = "asdb-repro/1"
_MANIFEST = "manifest.json"


class SnapshotError(ValueError):
    """A snapshot-store operation could not proceed."""


class SnapshotCorruption(SnapshotError):
    """A stored document no longer matches its recorded digest."""


def dataset_digest(records) -> str:
    """Digest of a dataset's full JSON document, computed a bounded
    block of records at a time without materializing the document
    (O(1) memory for any backend).

    The same blake2b-128 recorded in every :class:`SnapshotInfo`, so a
    caller holding a store-backed dataset can check it against a
    version's manifest digest without loading anything.
    """
    return _document(item_json(record_to_item(record)) for record in records)


#: What parsing a stored record item raises when the item is malformed.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def _blake2b(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _file_digest(path: str) -> str:
    """:func:`_blake2b` of a file's bytes, read in bounded blocks."""
    hasher = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        for block in iter(partial(handle.read, 1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


def _document(texts: Iterable[str], handle: Optional[IO[bytes]] = None) -> str:
    """Digest of the full document around ``texts`` (:func:`item_json`
    texts in record order), hashed in :meth:`JsonFrame.document`'s
    bounded chunks and, given a binary handle, written as well."""
    hasher = hashlib.blake2b(digest_size=16)
    for chunk in JsonFrame.document(texts):
        data = chunk.encode("utf-8")
        hasher.update(data)
        if handle is not None:
            handle.write(data)
    return hasher.hexdigest()


def _canonical_item(item: dict, version: int) -> dict:
    """A stored item as :meth:`SnapshotStore.load` re-serializes it."""
    try:
        return record_to_item(record_from_item(item))
    except _MALFORMED as exc:
        raise SnapshotCorruption(
            f"v{version}: malformed record item: {exc!r}"
        ) from exc


@dataclass
class _SavedVersion:
    """The version a handle saved last, as it remembers it: every
    ASN's :func:`item_json` text in ASN order, a weak reference to the
    record each text came from, and the :func:`_blake2b` of every
    document on the version's :meth:`SnapshotStore._walk` as
    ``(file name, digest)`` pairs.

    The next delta save reads its parent from here (the warm path)
    once each of those documents, re-read, still has those bytes.  A
    weak reference tells that save that a record is the very immutable
    object its text was encoded from without keeping alive a record the
    dataset no longer holds; a sqlite-backed dataset yields fresh
    records on every pass, so there every reference reads dead and
    every record is encoded again.
    """

    version: int
    digest: str
    walk: Tuple[Tuple[str, str], ...]
    asns: List[int]
    texts: List[str]
    refs: list

    def known(self, position: int, record) -> Optional[str]:
        """The text of the parent's record at ``position`` when
        ``record`` is that very object."""
        if self.refs[position]() is record:
            return self.texts[position]
        return None

    def unchanged(self, position: int, item: dict, text: str) -> bool:
        return self.texts[position] == text

    def verify(self) -> None:
        """Nothing to check: the walk's bytes were re-read already."""


class _ReplayedParent:
    """A parent version replayed from its stored documents (the cold
    path).  :func:`_delta_pass` compares new records against its items,
    and :meth:`verify` then checks the parent's digest over the texts
    those comparisons settled, the check :meth:`SnapshotStore.load`
    would have made."""

    def __init__(self, info: SnapshotInfo, items: Dict[int, dict],
                 walk: Tuple[Tuple[str, str], ...]) -> None:
        self.info = info
        self.walk = walk
        self.asns = sorted(items)
        self._items = items
        self._texts: List[Optional[str]] = [None] * len(self.asns)

    def known(self, position: int, record) -> None:
        return None

    def unchanged(self, position: int, item: dict, text: str) -> bool:
        old = self._items[self.asns[position]]
        if old == item:
            self._texts[position] = text
            return True
        # A stored item that load() normalizes to the new one (say, its
        # labels listed in another order) is unchanged, as it was when
        # the parent was rebuilt as records.
        old = _canonical_item(old, self.info.version)
        self._texts[position] = item_json(old)
        return old == item

    def verify(self) -> None:
        """Raise :class:`SnapshotCorruption` unless the parent's items,
        re-serialized as :meth:`SnapshotStore.load` would, match the
        parent's recorded digest.  Only the items no new record matched
        are encoded here."""
        version = self.info.version
        SnapshotStore._verify(self.info, _document(
            item_json(_canonical_item(self._items[asn], version))
            if text is None else text
            for asn, text in zip(self.asns, self._texts)
        ))


def _delta_pass(parent, dataset):
    """``dataset`` against ``parent`` (a :class:`_SavedVersion` or a
    :class:`_ReplayedParent`) in one streaming pass, in ascending ASN
    order, ending with ``parent.verify()``.

    Returns ``(asns, texts, refs)`` of the new version, the changed
    items and the removed ASNs.  A record the parent knows as the very
    object its text came from is not encoded at all; every other record
    is encoded once, and items compare by their :func:`record_to_item`
    shape.
    """
    old, known, unchanged = parent.asns, parent.known, parent.unchanged
    end, position = len(old), 0
    asns: List[int] = []
    texts: List[str] = []
    refs: list = []
    changed: List[dict] = []
    removed: List[int] = []
    for record in dataset:
        asn = record.asn
        while position < end and old[position] < asn:
            removed.append(old[position])
            position += 1
        present = position < end and old[position] == asn
        text = known(position, record) if present else None
        if text is None:
            item = record_to_item(record)
            text = item_json(item)
            if not (present and unchanged(position, item, text)):
                changed.append(item)
        position += present
        asns.append(asn)
        texts.append(text)
        refs.append(weakref.ref(record))
    removed.extend(old[position:])
    parent.verify()
    return (asns, texts, refs), changed, removed


@dataclass(frozen=True)
class SnapshotInfo:
    """Manifest entry for one stored version.

    Attributes:
        version: 1-based version number (dense, ascending).
        kind: ``full`` (verbatim dataset JSON) or ``delta``.
        parent: The version this delta applies to (None for fulls).
        filename: Document file name inside the store root.
        since_day: Sweep window lower bound (exclusive), when known.
        through_day: Sweep window upper bound (inclusive), when known.
        record_count: Records in the materialized dataset.
        changed: Records added/replaced relative to the parent.
        removed: ASNs dropped relative to the parent.
        digest: blake2b-128 of the materialized full JSON document.
        note: Free-form release note.
        provenance: Sweep provenance (new/updated ASN lists, counts).
        checkpoint: File name of the checkpoint document stored next to
            a promoted delta (None for plain deltas and fulls).
    """

    version: int
    kind: str
    parent: Optional[int]
    filename: str
    since_day: Optional[int]
    through_day: Optional[int]
    record_count: int
    changed: int
    removed: int
    digest: str
    note: str = ""
    provenance: Dict[str, object] = field(default_factory=dict)
    checkpoint: Optional[str] = None

    @property
    def is_base(self) -> bool:
        """Whether this version stores a full document on disk (a full
        snapshot or a checkpointed delta) — i.e. replay can start here."""
        return self.kind == "full" or self.checkpoint is not None

    def to_manifest(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "version": self.version,
            "kind": self.kind,
            "parent": self.parent,
            "filename": self.filename,
            "since_day": self.since_day,
            "through_day": self.through_day,
            "record_count": self.record_count,
            "changed": self.changed,
            "removed": self.removed,
            "digest": self.digest,
            "note": self.note,
            "provenance": self.provenance,
        }
        if self.checkpoint is not None:
            document["checkpoint"] = self.checkpoint
        return document

    @classmethod
    def from_manifest(cls, item: Dict[str, object]) -> "SnapshotInfo":
        return cls(
            version=int(item["version"]),
            kind=str(item["kind"]),
            parent=item.get("parent"),
            filename=str(item["filename"]),
            since_day=item.get("since_day"),
            through_day=item.get("through_day"),
            record_count=int(item.get("record_count", 0)),
            changed=int(item.get("changed", 0)),
            removed=int(item.get("removed", 0)),
            digest=str(item.get("digest", "")),
            note=str(item.get("note", "")),
            provenance=dict(item.get("provenance", {})),
            checkpoint=item.get("checkpoint"),
        )


class SnapshotStore:
    """An on-disk, append-only history of dataset releases."""

    def __init__(
        self,
        root: str,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        """Open the store at ``root``.  Opening creates nothing: the
        directory appears with the first write (:meth:`save` or
        :meth:`set_meta`), so a mistyped path leaves no trace.

        ``checkpoint_every=K`` promotes every K-th consecutive delta to
        a checkpoint.  The setting persists in the manifest, so a store
        opened without the argument keeps checkpointing at the cadence
        it was created with; passing it on an existing store changes
        the cadence from the next save on.
        """
        self._root = str(root)
        self._versions: List[SnapshotInfo] = []
        #: Free-form store metadata (the CLI records world provenance
        #: here so ``refresh`` can rebuild the same world); persisted in
        #: the manifest.  Mutate via :meth:`set_meta`.
        self.meta: Dict[str, object] = {}
        self._checkpoint_every: Optional[int] = None
        #: The version this handle saved last (None until it saves).
        self._saved: Optional[_SavedVersion] = None
        manifest_path = os.path.join(self._root, _MANIFEST)
        if os.path.exists(manifest_path):
            self._load_manifest(manifest_path)
        if checkpoint_every is not None:
            if int(checkpoint_every) < 1:
                raise SnapshotError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            self._checkpoint_every = int(checkpoint_every)

    # -- manifest -----------------------------------------------------------

    def _load_manifest(self, path: str) -> None:
        with open(path) as handle:
            document = json.load(handle)
        if document.get("format") != MANIFEST_FORMAT:
            raise SnapshotError(
                f"unsupported manifest format "
                f"{document.get('format')!r} in {path}"
            )
        self._versions = [
            SnapshotInfo.from_manifest(item)
            for item in document.get("versions", ())
        ]
        for position, info in enumerate(self._versions, start=1):
            if info.version != position:
                raise SnapshotError(
                    f"manifest versions are not dense: expected "
                    f"v{position}, found v{info.version}"
                )
        self.meta = dict(document.get("meta", {}))
        every = document.get("checkpoint_every")
        self._checkpoint_every = int(every) if every else None

    def _count_disk_versions(self) -> int:
        """How many versions the on-disk manifest holds right now."""
        path = os.path.join(self._root, _MANIFEST)
        if not os.path.exists(path):
            return 0
        try:
            with open(path) as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            raise SnapshotError(
                f"cannot re-read manifest {path}: {exc}"
            ) from exc
        return len(document.get("versions", ()))

    def _write_manifest(self, expected_on_disk: Optional[int] = None) -> None:
        """Persist the manifest atomically.

        ``expected_on_disk`` is the version count the on-disk manifest
        must still hold; a mismatch means another handle appended since
        this one last read it, and blindly renaming over their manifest
        would orphan their documents and mint a colliding version
        number.  Detection, not locking: the caller gets a
        :class:`SnapshotError` and must reopen the store.
        """
        if expected_on_disk is not None:
            on_disk = self._count_disk_versions()
            if on_disk != expected_on_disk:
                raise SnapshotError(
                    f"snapshot store {self._root} changed under this "
                    f"handle: the manifest holds {on_disk} version(s) "
                    f"on disk but this handle expected "
                    f"{expected_on_disk}; reopen the store and retry"
                )
        document = {
            "format": MANIFEST_FORMAT,
            "meta": self.meta,
            "versions": [info.to_manifest() for info in self._versions],
        }
        if self._checkpoint_every is not None:
            document["checkpoint_every"] = self._checkpoint_every
        path = os.path.join(self._root, _MANIFEST)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(document, handle, indent=2)
        os.replace(tmp, path)

    def set_meta(self, meta: Dict[str, object]) -> None:
        """Replace the store metadata and persist the manifest."""
        self.meta = dict(meta)
        os.makedirs(self._root, exist_ok=True)
        self._write_manifest(expected_on_disk=len(self._versions))

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._versions)

    @property
    def root(self) -> str:
        """The store's root directory."""
        return self._root

    @property
    def checkpoint_every(self) -> Optional[int]:
        """Checkpoint cadence in deltas (None: never promote)."""
        return self._checkpoint_every

    def versions(self) -> Tuple[SnapshotInfo, ...]:
        """Manifest entries, ascending by version."""
        return tuple(self._versions)

    def latest(self) -> Optional[SnapshotInfo]:
        """The newest version's manifest entry, or None when empty."""
        return self._versions[-1] if self._versions else None

    def info(self, version: int) -> SnapshotInfo:
        """Manifest entry for one version (SnapshotError if absent)."""
        if not 1 <= version <= len(self._versions):
            raise SnapshotError(
                f"no snapshot version {version} (store has "
                f"{len(self._versions)})"
            )
        return self._versions[version - 1]

    # -- writing ------------------------------------------------------------

    def _deltas_since_base(self) -> int:
        """Consecutive trailing deltas with no full document on disk."""
        count = 0
        for info in reversed(self._versions):
            if info.is_base:
                break
            count += 1
        return count

    @contextmanager
    def _new_document(self, filename: str, created: List[str]):
        """A binary handle on a tmp file that becomes ``filename`` when
        the block exits cleanly.

        The file is hard-linked into place, which never replaces an
        existing file: a handle that lost a race for this version gets
        a :class:`SnapshotError` and leaves the winner's document
        intact.  The placed path is appended to ``created`` so a save
        that fails later removes exactly what it wrote; a crash before
        the link leaves no document at all.
        """
        path = os.path.join(self._root, filename)
        tmp = f"{path}.{uuid.uuid4().hex}.tmp"
        try:
            with open(tmp, "wb") as handle:
                yield handle
            try:
                os.link(tmp, path)
            except FileExistsError:
                raise SnapshotError(
                    f"snapshot store {self._root} already holds "
                    f"{filename}: another handle saved this version, "
                    f"or a crashed save left the file behind; reopen "
                    f"the store and retry"
                ) from None
            created.append(path)
        finally:
            with suppress(FileNotFoundError):
                os.unlink(tmp)

    def _remembered(self, parent: SnapshotInfo) -> Optional[_SavedVersion]:
        """What this handle remembers of ``parent`` (it saved it last),
        if every document on the parent's walk still has the bytes it
        had then.  Each document is re-read in full and no ``stat``
        field is trusted; None sends the save to the verifying replay.
        """
        saved = self._saved
        if saved is None or (saved.version, saved.digest) != (
            parent.version, parent.digest
        ):
            return None
        base, base_name, chain = self._walk(parent)
        names = [base_name] + [info.filename for info in chain]
        if names != [name for name, _ in saved.walk]:
            return None
        for name, digest in saved.walk:
            try:
                if _file_digest(os.path.join(self._root, name)) != digest:
                    return None
            except OSError:
                return None
        return saved

    def save(
        self,
        dataset: ASdbDataset,
        window: Optional[Tuple[int, int]] = None,
        provenance: Optional[Dict[str, object]] = None,
        note: str = "",
        full: bool = False,
        runlog=None,
    ) -> SnapshotInfo:
        """Record ``dataset`` as the next version.

        The first version (or ``full=True``) stores the complete
        :func:`dataset_to_json` document verbatim; later versions store
        only the items whose serialized form changed since the parent,
        plus removed ASNs.  Every ``checkpoint_every``-th consecutive
        delta additionally stores the full document as a checkpoint, so
        replay depth stays bounded.  ``window`` is the ``(since_day,
        through_day]`` sweep window that produced the release.  With a
        run ledger passed, the save emits one ``snapshot.saved`` event
        carrying the new version's manifest facts (plus a
        ``snapshot.checkpoint`` event when the save was promoted).

        ``dataset`` may be any :class:`~repro.core.store.DatasetStore`
        backend, and is read in one streaming pass in ascending ASN
        order; the handle keeps each record's document text, never the
        records.  A delta save reads its parent from what this handle
        remembers of the version it saved last, once every document on
        that version's load walk has been re-read and still has the
        bytes it had then; there, a record that is the very object a
        remembered text came from is not encoded again.  Otherwise (a
        fresh handle, a changed or missing file) it replays the
        parent's record items straight from the stored JSON and
        verifies the parent's digest in the same pass, raising
        :class:`SnapshotCorruption` wherever :meth:`load` of the parent
        would fail.  Either way the new document and its checkpoint are
        digested and written from the texts.  Documents land atomically
        and never replace an existing file, and the manifest append
        detects a concurrent writer before minting a version number; a
        save that fails removes the documents it placed.
        """
        on_disk = self._count_disk_versions()
        if on_disk != len(self._versions):
            raise SnapshotError(
                f"snapshot store {self._root} changed under this "
                f"handle: the manifest holds {on_disk} version(s) on "
                f"disk but this handle expected {len(self._versions)}; "
                f"reopen the store and retry"
            )
        version = len(self._versions) + 1
        since_day, through_day = window if window is not None else (None,
                                                                    None)
        checkpoint: Optional[str] = None
        created: List[str] = []
        os.makedirs(self._root, exist_ok=True)
        try:
            if version == 1 or full:
                filename = f"v{version:04d}.full.json"
                kind, parent = "full", None
                changed = len(dataset)
                removed: List[int] = []
                asns, texts, refs = [], [], []
                for record in dataset:
                    asns.append(record.asn)
                    texts.append(item_json(record_to_item(record)))
                    refs.append(weakref.ref(record))
                with self._new_document(filename, created) as handle:
                    digest = _document(texts, handle)
                walk = ((filename, digest),)
            else:
                kind, parent = "delta", version - 1
                filename = f"v{version:04d}.delta.json"
                if (self._checkpoint_every is not None
                        and self._deltas_since_base() + 1
                        >= self._checkpoint_every):
                    checkpoint = f"v{version:04d}.ckpt.json"
                parent_info = self.info(parent)
                source = (self._remembered(parent_info)
                          or self._replay(parent_info))
                (asns, texts, refs), changed_items, removed = _delta_pass(
                    source, dataset
                )
                if checkpoint is not None:
                    with self._new_document(checkpoint, created) as handle:
                        digest = _document(texts, handle)
                else:
                    digest = _document(texts)
                delta = json.dumps(
                    {
                        "format": DELTA_FORMAT,
                        "base": parent,
                        "changed": changed_items,
                        "removed": removed,
                    },
                    indent=2,
                ).encode("utf-8")
                with self._new_document(filename, created) as handle:
                    handle.write(delta)
                walk = (((checkpoint, digest),) if checkpoint is not None
                        else source.walk + ((filename, _blake2b(delta)),))
                changed = len(changed_items)
            info = SnapshotInfo(
                version=version,
                kind=kind,
                parent=parent,
                filename=filename,
                since_day=since_day,
                through_day=through_day,
                record_count=len(dataset),
                changed=changed,
                removed=len(removed),
                digest=digest,
                note=note,
                provenance=dict(provenance or {}),
                checkpoint=checkpoint,
            )
            self._versions.append(info)
            try:
                self._write_manifest(expected_on_disk=version - 1)
            except BaseException:
                self._versions.pop()
                raise
        except BaseException:
            for path in created:
                with suppress(FileNotFoundError):
                    os.unlink(path)
            raise
        self._saved = _SavedVersion(version, digest, walk, asns, texts, refs)
        if runlog is not None:
            runlog.emit(
                "snapshot.saved",
                version=info.version,
                kind=info.kind,
                records=info.record_count,
                changed=info.changed,
                removed=info.removed,
                digest=info.digest,
                since_day=info.since_day,
                through_day=info.through_day,
                checkpoint=checkpoint is not None,
            )
            if checkpoint is not None:
                runlog.emit(
                    "snapshot.checkpoint",
                    version=info.version,
                    filename=checkpoint,
                    records=info.record_count,
                    every=self._checkpoint_every,
                )
        return info

    # -- reading ------------------------------------------------------------

    def _read_file(self, filename: str, version: int) -> bytes:
        path = os.path.join(self._root, filename)
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except OSError as exc:
            raise SnapshotCorruption(
                f"cannot read v{version} document {path}: {exc}"
            ) from exc

    def _read_json(self, filename: str, version: int,
                   walk: Optional[List[Tuple[str, str]]] = None):
        """One stored document, parsed; with ``walk``, the digest of
        the bytes parsed is appended to it as ``(filename, digest)``.
        Bytes that do not decode as JSON are :class:`SnapshotCorruption`."""
        data = self._read_file(filename, version)
        if walk is not None:
            walk.append((filename, _blake2b(data)))
        try:
            return json.loads(data.decode("utf-8"))
        except ValueError as exc:
            raise SnapshotCorruption(
                f"v{version}: cannot parse document {filename}: {exc}"
            ) from exc

    def _full_document_name(
        self,
        info: SnapshotInfo,
        use_checkpoints: bool = True,
    ) -> Optional[str]:
        """File holding ``info``'s complete document, if one exists."""
        if info.kind == "full":
            return info.filename
        if use_checkpoints and info.checkpoint is not None:
            return info.checkpoint
        return None

    def _full_items(self, name: str, version: int) -> List[dict]:
        """Record items of a stored full document, in file order."""
        document = self._read_json(name, version)
        if document.get("format") != DATASET_FORMAT:
            raise SnapshotCorruption(
                f"v{version}: unsupported document format "
                f"{document.get('format')!r}"
            )
        return document["records"]

    def _read_delta(self, info: SnapshotInfo,
                    walk: Optional[List[Tuple[str, str]]] = None
                    ) -> Tuple[List[dict], List[int]]:
        delta = self._read_json(info.filename, info.version, walk)
        if delta.get("format") != DELTA_FORMAT:
            raise SnapshotCorruption(
                f"v{info.version}: unsupported delta format "
                f"{delta.get('format')!r}"
            )
        return (
            list(delta.get("changed", ())),
            [int(asn) for asn in delta.get("removed", ())],
        )

    def deltas_since(
        self, version: int, digest: Optional[str] = None
    ) -> Optional[List[Tuple[SnapshotInfo, List[dict], List[int]]]]:
        """The recorded chain after ``version``, oldest first, as
        ``[(info, changed items, removed ASNs), ...]``; ``None`` when the
        caller's lineage does not match the store.

        The one chain iterator behind every timeline fold and
        incremental refresh, and the one lineage check: a caller holding
        state built at ``version``, whose manifest digest was
        ``digest``, absorbs everything newer by folding these entries in
        order, never materializing a dataset.  Version 0 means "from the
        start" (no digest needed), so the chain opens with v1.  A delta
        yields what it recorded (checkpoints are never read); a ``full``
        version yields its whole document's items and no removals: it
        pins the complete state, so a fold treats every AS it lacks as
        removed.  ``None`` means ``version`` is not in the store or its
        digest differs: the store was rewritten, or is another store.
        """
        if version and not (
            1 <= version <= len(self._versions) and digest
            and self._versions[version - 1].digest == digest
        ):
            return None
        chain: List[Tuple[SnapshotInfo, List[dict], List[int]]] = []
        for info in self._versions[version:]:
            if info.kind == "full":
                chain.append(
                    (info, self._full_items(info.filename, info.version), [])
                )
            else:
                chain.append((info, *self._read_delta(info)))
        return chain

    @staticmethod
    def _rollback(store) -> None:
        """Best-effort clearing of a partially populated load target, so
        a failed verification never leaves half a version behind in a
        persistent backend."""
        try:
            if hasattr(store, "asns"):
                asns = list(store.asns())
            else:
                asns = [record.asn for record in store]
            for asn in asns:
                store.remove(asn)
            store.flush()
        except Exception:  # pragma: no cover - the original error wins
            pass

    def _walk(
        self,
        target: SnapshotInfo,
        use_checkpoints: bool = True,
    ) -> Tuple[SnapshotInfo, str, List[SnapshotInfo]]:
        """The replay plan for ``target``: the nearest version at or
        before it with a stored full document, that document's name,
        and the deltas from there to ``target``, oldest first."""
        chain: List[SnapshotInfo] = []
        info = target
        base_name = self._full_document_name(info, use_checkpoints)
        while base_name is None:
            chain.append(info)
            if info.parent is None:
                raise SnapshotCorruption(
                    f"delta v{info.version} has no parent"
                )
            info = self.info(info.parent)
            base_name = self._full_document_name(info, use_checkpoints)
        chain.reverse()
        return info, base_name, chain

    @staticmethod
    def _verify(info: SnapshotInfo, digest: str) -> None:
        """Check a materialized document's digest against the manifest."""
        if not info.digest:
            raise SnapshotCorruption(
                f"v{info.version}: manifest entry records no "
                f"digest; refusing to trust an unverifiable document"
            )
        if digest != info.digest:
            raise SnapshotCorruption(
                f"v{info.version}: materialized document does not "
                f"match its recorded digest"
            )

    def _replay(self, parent: SnapshotInfo) -> _ReplayedParent:
        """``parent``'s record items by ASN, replayed from the stored
        JSON along :meth:`load`'s walk without building records, with
        the walk's digests for the :class:`_SavedVersion` this save
        leaves: each delta's bytes as read, and for the base document
        (a full one, which digests to its version's manifest digest
        when intact) that digest, unhashed.  A base that replayed but
        differs from it fails the next save's byte check, which then
        replays again.

        Fails with :class:`SnapshotCorruption` wherever :meth:`load`
        would fail on these documents: an item that a later one
        replaces or removes is parsed here as load parses it, and the
        items that survive are checked, with the digest, by
        :meth:`_ReplayedParent.verify`.
        """
        version = parent.version
        base, base_name, chain = self._walk(parent)
        items: Dict[int, dict] = {}
        walk = [(base_name, base.digest)]

        def place(item: dict) -> None:
            asn = int(item["asn"])
            if asn in items:
                record_from_item(items[asn])
            items[asn] = item

        try:
            for item in self._full_items(base_name, base.version):
                place(item)
            for info in chain:
                changed, removed = self._read_delta(info, walk)
                for asn in removed:
                    if asn in items:
                        record_from_item(items.pop(asn))
                for item in changed:
                    place(item)
        except SnapshotError:
            raise
        except _MALFORMED as exc:
            raise SnapshotCorruption(
                f"v{version}: malformed stored document: {exc!r}"
            ) from exc
        return _ReplayedParent(parent, items, tuple(walk))

    def load(
        self,
        version: Optional[int] = None,
        into=None,
        use_checkpoints: bool = True,
    ) -> ASdbDataset:
        """Materialize one version (default: the latest).

        Walks back to the nearest stored full document — a checkpoint
        or a full snapshot — and replays the delta chain forward, so
        reconstruction touches at most ``checkpoint_every`` deltas no
        matter how deep the history is.  ``use_checkpoints=False``
        forces the replay all the way back to the nearest ``full``
        version (the benchmark's baseline, and a recovery path should a
        checkpoint file ever be lost).  The result is verified against
        the version's recorded digest before it is returned; a manifest
        entry with no digest is treated as corruption, never as a
        silent pass.

        With ``into`` (an empty :class:`~repro.core.store.DatasetStore`
        backend, e.g. a :class:`SqliteDatasetStore`), records land in
        that store instead of a fresh in-memory dataset — a sqlite
        target keeps only its write batch resident while the chain
        replays.  If replay or verification fails, the target store is
        rolled back to empty before the error propagates.  The digest
        check streams the result's chunk stream, so it never
        materializes the document either way.
        """
        if version is None:
            latest = self.latest()
            if latest is None:
                raise SnapshotError("snapshot store is empty")
            version = latest.version
        target = self.info(version)
        base, base_name, chain = self._walk(target, use_checkpoints)
        if into is not None and len(into):
            raise SnapshotError(
                "load target store is not empty: refusing to merge "
                f"v{target.version} into {len(into)} existing records"
            )
        dataset = ASdbDataset() if into is None else into
        try:
            try:
                for item in self._full_items(base_name, base.version):
                    dataset.add(record_from_item(item))
                for delta_info in chain:
                    changed, removed = self._read_delta(delta_info)
                    for asn in removed:
                        dataset.remove(asn)
                    for item in changed:
                        dataset.add(record_from_item(item))
            except (SnapshotError, StoreError):
                raise
            except _MALFORMED as exc:
                raise SnapshotCorruption(
                    f"v{target.version}: malformed stored document: "
                    f"{exc!r}"
                ) from exc
            dataset.flush()
            self._verify(target, dataset_digest(dataset))
        except BaseException:
            if into is not None:
                self._rollback(into)
            raise
        return dataset

    def materialize(
        self,
        version: Optional[int] = None,
        into=None,
    ) -> Tuple[ASdbDataset, SnapshotInfo]:
        """Materialize one version *with* its manifest identity.

        The serving layer's hook: :meth:`load` answers "give me the
        records", but an index built for query traffic also needs the
        release facts — version number, digest, record count — to stamp
        on every response.  Returns ``(dataset, info)`` where
        ``dataset`` is exactly what :meth:`load` would produce (same
        ``into`` semantics, same digest verification).
        """
        if version is None:
            latest = self.latest()
            if latest is None:
                raise SnapshotError("snapshot store is empty")
            version = latest.version
        return self.load(version, into=into), self.info(version)

    @contextmanager
    def materialize_pair(self, old_version: int, new_version: int):
        """Both versions materialized into throwaway sqlite scratch
        stores, yielded as ``(old_dataset, new_dataset)``.

        The streaming substrate for :meth:`diff` and churn analytics:
        each side replays into its own on-disk store (O(batch)
        residency), and the scratch directory is removed when the
        ``with`` block exits — success or not.
        """
        from .store import SqliteDatasetStore

        old_info = self.info(old_version)
        new_info = self.info(new_version)
        scratch = tempfile.mkdtemp(prefix="asdb-snapdiff-")
        old_ds = new_ds = None
        try:
            old_ds = SqliteDatasetStore(
                os.path.join(scratch, f"v{old_info.version}.sqlite")
            )
            new_ds = SqliteDatasetStore(
                os.path.join(scratch, f"v{new_info.version}.sqlite")
            )
            self.load(old_info.version, into=old_ds)
            self.load(new_info.version, into=new_ds)
            yield old_ds, new_ds
        finally:
            for store in (old_ds, new_ds):
                if store is not None:
                    store.close()
            shutil.rmtree(scratch, ignore_errors=True)

    def diff(self, old_version: int, new_version: int) -> DatasetDiff:
        """What changed from ``old_version`` to ``new_version``.

        Both sides stream through scratch sqlite stores and an ordered
        merge, so diffing a million-AS history holds O(batch) records —
        the same discipline as ``save``'s delta path.
        """
        with self.materialize_pair(old_version, new_version) as pair:
            old_ds, new_ds = pair
            return diff_record_streams(iter(new_ds), iter(old_ds))
