"""Warm/cold parity of snapshot saves.

A :class:`SnapshotStore` handle remembers the version it saved last and
takes its next delta from there (the warm path) once the parent's
documents re-read byte for byte; a fresh handle replays the parent from
disk (the cold path).  The state machine here drives one long-lived
handle and, in a twin directory, a handle reopened before every save,
and holds both to the same bytes and to a model of every version.
"""

import dataclasses
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    ASdbDataset,
    ASdbRecord,
    SnapshotCorruption,
    SnapshotError,
    SnapshotStore,
    Stage,
    record_to_item,
)
from repro.core.persistence import item_json
from repro.taxonomy import LabelSet

_SLUGS = (("isp",), ("hosting", "isp"), ("banks",), ())
_STAGES = tuple(Stage)

#: ASNs the machine draws from: small enough that removals, re-adds and
#: replacements keep hitting the same numbers.
_POOL = range(1, 41)


def _record(asn, pick):
    return ASdbRecord(
        asn=asn,
        labels=LabelSet.from_layer2_slugs(list(_SLUGS[pick % len(_SLUGS)])),
        stage=_STAGES[pick % len(_STAGES)],
        domain=None if pick % 5 == 0 else f"d{pick % 7}.example",
        degraded_sources=("dnb",) if pick % 11 == 0 else (),
    )


def _dataset(records):
    dataset = ASdbDataset()
    for record in records:
        dataset.add(record)
    return dataset


def _tree(root):
    """Every file under ``root`` by name, with its bytes."""
    tree = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as handle:
            tree[name] = handle.read()
    return tree


def _walk_names(store):
    """The documents ``load(latest)`` reads, base first."""
    names = []
    for info in reversed(store.versions()):
        if info.is_base:
            names.append(info.checkpoint or info.filename)
            break
        names.append(info.filename)
    return names[::-1]


class WarmColdParity(RuleBasedStateMachine):
    """A long-lived handle (warm) against a handle reopened before every
    save (cold), in twin directories, over one shared model."""

    def __init__(self):
        super().__init__()
        self.scratch = tempfile.mkdtemp(prefix="asdb-parity-")
        self.roots = (os.path.join(self.scratch, "warm"),
                      os.path.join(self.scratch, "cold"))
        #: The dataset as the next save sees it: the very record objects
        #: earlier saves saw, unless a rule replaced them.
        self.records = {}
        #: Records a rule removed, for re-adds.
        self.gone = []
        #: ``{asn: item}`` of every saved version, oldest first.
        self.model = []
        self.every = None
        self.warm = None

    def teardown(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _cold(self):
        return SnapshotStore(self.roots[1], checkpoint_every=self.every)

    @initialize(every=st.sampled_from([None, 1, 3]),
                picks=st.lists(st.integers(0, 10 ** 6), max_size=12))
    def start(self, every, picks):
        self.every = every
        self.warm = SnapshotStore(self.roots[0], checkpoint_every=every)
        for position, pick in enumerate(picks):
            asn = _POOL[(pick + position) % len(_POOL)]
            self.records[asn] = _record(asn, pick)

    @rule(ops=st.lists(
        st.tuples(
            st.sampled_from(["replace", "equal", "remove", "readd", "add"]),
            st.integers(0, 10 ** 6),
        ),
        min_size=1, max_size=6,
    ))
    def change(self, ops):
        """Replace records with new or equal-but-new objects, remove
        them, re-add removed ones (the same object or a new one), and
        add new ASNs."""
        for op, pick in ops:
            present = sorted(self.records)
            if op == "add":
                asn = _POOL[pick % len(_POOL)]
                if asn not in self.records:
                    self.records[asn] = _record(asn, pick)
            elif op == "readd":
                if self.gone:
                    record = self.gone.pop(pick % len(self.gone))
                    if record.asn not in self.records:
                        self.records[record.asn] = (
                            record if pick % 2 else _record(record.asn, pick)
                        )
            elif present:
                asn = present[pick % len(present)]
                if op == "remove":
                    self.gone.append(self.records.pop(asn))
                elif op == "equal":
                    self.records[asn] = dataclasses.replace(self.records[asn])
                else:
                    self.records[asn] = _record(asn, pick + 1)

    def _save_both(self, full):
        dataset = _dataset(self.records.values())
        warm = self.warm.save(dataset, window=(0, len(self.model)),
                              note=f"v{len(self.model) + 1}", full=full)
        cold = self._cold().save(dataset, window=(0, len(self.model)),
                                 note=f"v{len(self.model) + 1}", full=full)
        assert warm == cold
        self.model.append({
            asn: record_to_item(record)
            for asn, record in self.records.items()
        })

    @rule(full=st.booleans())
    def save(self, full):
        self._save_both(full)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def load(self, data):
        version = data.draw(st.integers(1, len(self.model)))
        for store in (self.warm, self._cold()):
            loaded = store.load(version)
            assert {record.asn: record_to_item(record)
                    for record in loaded} == self.model[version - 1]

    def _edited(self, names, index, original, same_size):
        """``original`` (the walk's ``index``-th document) with one item
        that survives into the parent changed, so that only the
        parent's digest catches it; with no such item, the format
        marker changed."""
        docs = []
        for name in names:
            with open(os.path.join(self.roots[0], name)) as handle:
                docs.append(json.load(handle))
        writer = {}
        for position, doc in enumerate(docs):
            for item in doc.get("records", doc.get("changed", ())):
                writer[item["asn"]] = position
            for asn in doc.get("removed", ()):
                writer[asn] = None
        survivors = [
            item for item in docs[index].get(
                "records", docs[index].get("changed", ()))
            if writer[item["asn"]] == index
        ]
        if not survivors:
            at = original.index(b'"format": "') + len('"format": "')
            return original[:at] + (b"A" + original[at + 1:] if same_size
                                    else b"tampered/" + original[at:])
        item = survivors[len(original) % len(survivors)]
        text = item_json(item).encode()
        if same_size:
            # Another ASN of as many digits: the survivor leaves the
            # parent and nothing else about the file changes.
            asn = item["asn"]
            edit = dict(item, asn=asn - asn % 10 + (asn + 1) % 10)
        else:
            edit = dict(item, domain="tampered.example")
        return original.replace(text, item_json(edit).encode(), 1)

    @precondition(lambda self: self.model)
    @rule(kind=st.sampled_from(["edit", "truncate", "delete", "same-size"]),
          pick=st.integers(0, 10 ** 6))
    def tamper(self, kind, pick):
        """Corrupt one document on the parent's walk in both
        directories: the next save must raise and change nothing, on the
        handle that wrote the chain as on a fresh one.  Then put it
        back."""
        names = _walk_names(self.warm)
        index = pick % len(names)
        with open(os.path.join(self.roots[0], names[index]), "rb") as handle:
            original = handle.read()
        if kind == "truncate":
            tampered = original[:-20]
        elif kind != "delete":
            tampered = self._edited(names, index, original,
                                    kind == "same-size")
            assert tampered != original
        originals = []
        for root in self.roots:
            path = os.path.join(root, names[index])
            stat = os.stat(path)
            originals.append((path, stat))
            if kind == "delete":
                os.unlink(path)
                continue
            with open(path, "wb") as handle:
                handle.write(tampered)
            if kind == "same-size":
                # Only the bytes tell this document from the saved one.
                assert len(tampered) == len(original)
                os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        trees = [_tree(root) for root in self.roots]
        dataset = _dataset(self.records.values())
        for store, root, tree in zip((self.warm, self._cold()),
                                     self.roots, trees):
            with pytest.raises(SnapshotCorruption):
                store.save(dataset)
            assert _tree(root) == tree
        for path, stat in originals:
            with open(path, "wb") as handle:
                handle.write(original)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))

    @rule()
    def second_handle_loses(self):
        """A handle opened before the long-lived one saves the next
        version cannot save that version too."""
        other = SnapshotStore(self.roots[0])
        self._save_both(full=False)
        tree = _tree(self.roots[0])
        with pytest.raises(SnapshotError, match="reopen"):
            other.save(_dataset(self.records.values()))
        assert _tree(self.roots[0]) == tree

    @invariant()
    def directories_are_byte_identical(self):
        if self.model:
            assert _tree(self.roots[0]) == _tree(self.roots[1])

    @invariant()
    def latest_equals_the_model(self):
        if self.model:
            loaded = self.warm.load()
            assert {record.asn: record_to_item(record)
                    for record in loaded} == self.model[-1]


WarmColdParity.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestWarmColdParity = WarmColdParity.TestCase


def _chain(root, checkpoint_every=None):
    store = SnapshotStore(root, checkpoint_every=checkpoint_every)
    records = {asn: _record(asn, asn) for asn in range(1, 30)}
    store.save(_dataset(records.values()))
    for version in range(2, 6):
        records[version] = _record(version, version * 7)
        records.pop(version + 10, None)
        store.save(_dataset(records.values()))
    return store, records


class TestWarmPath:
    @pytest.mark.parametrize("checkpoint_every", [None, 1, 3])
    def test_the_writing_handle_never_replays(
        self, tmp_path, monkeypatch, checkpoint_every
    ):
        store, records = _chain(tmp_path / "s", checkpoint_every)

        def replay(self, parent):
            raise AssertionError("replayed a remembered parent")

        monkeypatch.setattr(SnapshotStore, "_replay", replay)
        records[1] = _record(1, 999)
        info = store.save(_dataset(records.values()))
        assert info.changed == 1

    def test_a_fresh_handle_replays(self, tmp_path, monkeypatch):
        _, records = _chain(tmp_path / "s")
        replays = []
        real = SnapshotStore._replay

        def replay(self, parent):
            replays.append(parent.version)
            return real(self, parent)

        monkeypatch.setattr(SnapshotStore, "_replay", replay)
        store = SnapshotStore(tmp_path / "s")
        store.save(_dataset(records.values()))
        store.save(_dataset(records.values()))
        # The first save replays v5; the second reads v6 from memory.
        assert replays == [5]

    def test_remembered_texts_follow_the_record_objects(self, tmp_path):
        # A record swapped for an equal one is re-encoded and stays out
        # of the delta; a new value under an old object never happens,
        # because records are frozen.
        store, records = _chain(tmp_path / "s")
        records[3] = dataclasses.replace(records[3])
        info = store.save(_dataset(records.values()))
        assert (info.changed, info.removed) == (0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            records[3].domain = "x.example"
