"""Tests for the temporal layer: snapshot checkpointing, as-of
reconstruction, per-AS timelines, churn analytics, and the
snapshot-store correctness fixes that ride along (rollback on failed
verification, missing-digest corruption, concurrent-writer detection,
streaming diff)."""

import json
import os

import pytest

from repro.core import (
    ASdbDataset,
    ASdbRecord,
    ReleaseHistory,
    SnapshotCorruption,
    SnapshotError,
    SnapshotStore,
    SqliteDatasetStore,
    Stage,
    categorization,
    dataset_to_json,
)
from repro.core.history import ABSENT, UNCLASSIFIED
from repro.taxonomy import LabelSet


def _record(asn, slugs=("isp",), stage=Stage.ONE_SOURCE, **kwargs):
    return ASdbRecord(
        asn=asn,
        labels=LabelSet.from_layer2_slugs(list(slugs)),
        stage=stage,
        **kwargs,
    )


def _dataset(*records):
    dataset = ASdbDataset()
    for record in records:
        dataset.add(record)
    return dataset


def _grow(store, versions):
    """Save a sequence of datasets with consecutive 90-day windows."""
    infos = []
    for epoch, dataset in enumerate(versions):
        window = (-1, 0) if epoch == 0 else (epoch * 90 - 90, epoch * 90)
        infos.append(store.save(dataset, window=window))
    return infos


class _LedgerStub:
    """Records emitted events like a RunLog would."""

    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append((event, fields))


class _RacingDataset(ASdbDataset):
    """A dataset whose first iteration runs ``race`` before yielding,
    to interleave another handle's save with the save reading it."""

    def __init__(self, race, *records):
        super().__init__()
        for record in records:
            self.add(record)
        self._race = race
        self.raced = False

    def __iter__(self):
        if not self.raced:
            self.raced = True
            self._race()
        return super().__iter__()


class TestCheckpointing:
    def _versions(self, count):
        """v1 plus ``count - 1`` one-record-changed successors."""
        out = [_dataset(_record(1), _record(2), _record(3))]
        for i in range(1, count):
            out.append(_dataset(
                _record(1, domain=f"rev{i}.example"), _record(2),
                _record(3)
            ))
        return out

    def test_promotion_at_k_deltas(self, tmp_path):
        store = SnapshotStore(tmp_path / "s", checkpoint_every=3)
        # v1 full; v2, v3 plain deltas (K-1 = 2 deltas: no promotion
        # yet); v4 is the 3rd consecutive delta -> checkpoint; v5 (K+1)
        # starts the next run as a plain delta.
        infos = _grow(store, self._versions(5))
        assert [info.kind for info in infos] == \
            ["full", "delta", "delta", "delta", "delta"]
        assert [info.checkpoint is not None for info in infos] == \
            [False, False, False, True, False]
        assert infos[3].checkpoint == "v0004.ckpt.json"
        assert (tmp_path / "s" / "v0004.ckpt.json").exists()
        # The delta document exists alongside the checkpoint — the
        # chain stays uniformly scannable.
        assert (tmp_path / "s" / "v0004.delta.json").exists()

    def test_promotion_cadence_repeats(self, tmp_path):
        store = SnapshotStore(tmp_path / "s", checkpoint_every=2)
        infos = _grow(store, self._versions(7))
        promoted = [info.version for info in infos if info.checkpoint]
        assert promoted == [3, 5, 7]

    def test_cadence_persists_in_manifest(self, tmp_path):
        first = SnapshotStore(tmp_path / "s", checkpoint_every=2)
        versions = self._versions(3)
        first.save(versions[0])
        # A handle reopened without the knob inherits the manifest's
        # cadence and keeps promoting.
        reopened = SnapshotStore(tmp_path / "s")
        assert reopened.checkpoint_every == 2
        infos = [reopened.save(dataset) for dataset in versions[1:]]
        assert infos[-1].checkpoint is not None

    def test_bad_cadence_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="checkpoint_every"):
            SnapshotStore(tmp_path / "s", checkpoint_every=0)

    def test_load_replays_from_checkpoint(self, tmp_path):
        store = SnapshotStore(tmp_path / "s", checkpoint_every=2)
        versions = self._versions(6)
        _grow(store, versions)
        # Deleting v1's full document severs full replay but not the
        # checkpointed path — proof load() starts at the checkpoint.
        os.remove(tmp_path / "s" / "v0001.full.json")
        dataset = store.load(6)
        assert dataset_to_json(dataset) == dataset_to_json(versions[-1])
        with pytest.raises(SnapshotCorruption, match="cannot read"):
            store.load(6, use_checkpoints=False)

    def test_checkpointed_replay_matches_full_replay(self, tmp_path):
        store = SnapshotStore(tmp_path / "s", checkpoint_every=2)
        _grow(store, self._versions(6))
        for version in range(1, 7):
            fast = dataset_to_json(store.load(version))
            slow = dataset_to_json(
                store.load(version, use_checkpoints=False)
            )
            assert fast == slow

    def test_read_json_byte_identity_for_checkpoints(self, tmp_path):
        store = SnapshotStore(tmp_path / "s", checkpoint_every=2)
        versions = self._versions(3)
        infos = _grow(store, versions)
        assert infos[2].checkpoint is not None
        # read_json returns the checkpoint file verbatim, and that file
        # is byte-identical to the dataset's canonical document.
        expected = dataset_to_json(versions[2])
        assert store.read_json(3) == expected
        on_disk = (tmp_path / "s" / infos[2].checkpoint).read_text()
        assert on_disk == expected

    def test_corrupted_checkpoint_detected(self, tmp_path):
        store = SnapshotStore(tmp_path / "s", checkpoint_every=2)
        infos = _grow(store, self._versions(3))
        path = tmp_path / "s" / infos[2].checkpoint
        document = json.loads(path.read_text())
        document["records"][0]["domain"] = "tampered.example"
        path.write_text(json.dumps(document, indent=2))
        with pytest.raises(SnapshotCorruption, match="digest"):
            store.load(3)

    def test_checkpoint_ledger_events(self, tmp_path):
        store = SnapshotStore(tmp_path / "s", checkpoint_every=2)
        versions = self._versions(3)
        ledger = _LedgerStub()
        for epoch, dataset in enumerate(versions):
            store.save(dataset, window=(epoch - 1, epoch),
                       runlog=ledger)
        saved = [f for e, f in ledger.events if e == "snapshot.saved"]
        assert [f["checkpoint"] for f in saved] == [False, False, True]
        promoted = [
            f for e, f in ledger.events if e == "snapshot.checkpoint"
        ]
        assert promoted == [{
            "version": 3, "filename": "v0003.ckpt.json",
            "records": 3, "every": 2,
        }]


class TestCorrectnessFixes:
    def test_missing_digest_is_corruption(self, tmp_path):
        store = SnapshotStore(tmp_path / "s")
        store.save(_dataset(_record(1)))
        manifest = tmp_path / "s" / "manifest.json"
        document = json.loads(manifest.read_text())
        document["versions"][0]["digest"] = ""
        manifest.write_text(json.dumps(document))
        with pytest.raises(SnapshotCorruption, match="no.*digest|digest"):
            SnapshotStore(tmp_path / "s").load(1)

    def test_failed_load_rolls_back_into_store(self, tmp_path):
        store = SnapshotStore(tmp_path / "s")
        info = store.save(_dataset(_record(1), _record(2)))
        # Tamper with the stored document so the digest check fails
        # after the target store has been populated.
        path = tmp_path / "s" / info.filename
        document = json.loads(path.read_text())
        document["records"][0]["domain"] = "tampered.example"
        path.write_text(json.dumps(document, indent=2))
        target = SqliteDatasetStore(str(tmp_path / "scratch.sqlite"))
        with pytest.raises(SnapshotCorruption):
            store.load(1, into=target)
        assert len(target) == 0
        assert list(target) == []
        target.close()

    def test_rollback_covers_in_memory_targets_too(self, tmp_path):
        store = SnapshotStore(tmp_path / "s")
        info = store.save(_dataset(_record(1)))
        path = tmp_path / "s" / info.filename
        document = json.loads(path.read_text())
        document["records"][0]["domain"] = "tampered.example"
        path.write_text(json.dumps(document, indent=2))
        target = ASdbDataset()
        with pytest.raises(SnapshotCorruption):
            store.load(1, into=target)
        assert len(target) == 0

    def test_concurrent_writer_detected_not_clobbered(self, tmp_path):
        root = tmp_path / "s"
        first = SnapshotStore(root)
        first.save(_dataset(_record(1)))
        # A second handle opened at v1, racing the first to mint v2.
        second = SnapshotStore(root)
        winner = _dataset(_record(1), _record(2))
        first.save(winner)
        with pytest.raises(SnapshotError, match="reopen"):
            second.save(_dataset(_record(1), _record(3)))
        # The loser changed nothing: the winner's v2 is intact and the
        # loser's handle can be reopened to continue.
        fresh = SnapshotStore(root)
        assert len(fresh) == 2
        assert dataset_to_json(fresh.load(2)) == dataset_to_json(winner)

    @pytest.mark.parametrize("checkpoint_every", [None, 1])
    def test_losing_writer_never_overwrites_the_winner(
        self, tmp_path, checkpoint_every
    ):
        root = tmp_path / "s"
        loser = SnapshotStore(root, checkpoint_every=checkpoint_every)
        loser.save(_dataset(_record(1)))
        winner_handle = SnapshotStore(root)
        winner = _dataset(_record(1), _record(2))
        # The loser has passed its manifest check and is reading its
        # dataset when the winner commits the same version.
        losing = _RacingDataset(
            lambda: winner_handle.save(winner), _record(1), _record(3)
        )
        with pytest.raises(SnapshotError, match="reopen"):
            loser.save(losing)
        assert losing.raced
        fresh = SnapshotStore(root)
        assert len(fresh) == 2
        assert dataset_to_json(fresh.load(2)) == dataset_to_json(winner)
        assert sorted(os.listdir(root)) == sorted(
            ["manifest.json", "v0001.full.json", "v0002.delta.json"]
            + (["v0002.ckpt.json"] if checkpoint_every else [])
        )

    def test_failed_save_removes_only_its_own_documents(self, tmp_path):
        root = tmp_path / "s"
        loser = SnapshotStore(root)
        loser.save(_dataset(_record(1)))
        winner_handle = SnapshotStore(root)
        winner = _dataset(_record(2))
        # The winner's full v2 does not collide with the loser's delta
        # file, so the loser places v0002.delta.json before its
        # manifest append fails; it must take that file back out.
        losing = _RacingDataset(
            lambda: winner_handle.save(winner, full=True), _record(3)
        )
        with pytest.raises(SnapshotError, match="reopen"):
            loser.save(losing)
        assert losing.raced
        assert sorted(os.listdir(root)) == [
            "manifest.json", "v0001.full.json", "v0002.full.json",
        ]
        assert dataset_to_json(SnapshotStore(root).load(2)) == (
            dataset_to_json(winner)
        )

    def test_set_meta_detects_stale_handle(self, tmp_path):
        root = tmp_path / "s"
        first = SnapshotStore(root)
        second = SnapshotStore(root)
        first.save(_dataset(_record(1)))
        with pytest.raises(SnapshotError, match="reopen"):
            second.set_meta({"n_orgs": 4})

    def test_diff_streams_through_scratch_stores(self, tmp_path,
                                                 monkeypatch):
        import tempfile as _tempfile

        store = SnapshotStore(tmp_path / "s")
        store.save(_dataset(_record(1), _record(2), _record(3)))
        store.save(_dataset(
            _record(1, ("streaming",)), _record(2), _record(4)
        ))
        scratches = []
        real_mkdtemp = _tempfile.mkdtemp

        def spying_mkdtemp(*args, **kwargs):
            path = real_mkdtemp(*args, **kwargs)
            scratches.append(path)
            return path

        monkeypatch.setattr(
            "repro.core.snapshots.tempfile.mkdtemp", spying_mkdtemp
        )
        diff = store.diff(1, 2)
        assert diff.added == (4,)
        assert diff.removed == (3,)
        assert diff.relabeled == (1,)
        # The streaming path really ran, and cleaned up after itself.
        assert len(scratches) == 1
        assert not os.path.exists(scratches[0])

    def test_materialize_pair_cleans_up_on_error(self, tmp_path):
        store = SnapshotStore(tmp_path / "s")
        store.save(_dataset(_record(1)))
        store.save(_dataset(_record(1), _record(2)))
        with pytest.raises(RuntimeError, match="boom"):
            with store.materialize_pair(1, 2) as (old_ds, new_ds):
                scratch = os.path.dirname(old_ds.path)
                assert len(old_ds) == 1 and len(new_ds) == 2
                raise RuntimeError("boom")
        assert not os.path.exists(scratch)

    def test_pid_suffixed_tmp_files(self, tmp_path):
        # Two processes streaming the same document name must not share
        # a tmp path; the suffix carries the pid.
        store = SnapshotStore(tmp_path / "s")
        store.save(_dataset(_record(1)))
        leftovers = [
            name for name in os.listdir(tmp_path / "s")
            if ".tmp" in name
        ]
        assert leftovers == []


class TestReleaseHistory:
    def _store(self, tmp_path, checkpoint_every=None):
        store = SnapshotStore(tmp_path / "s",
                              checkpoint_every=checkpoint_every)
        _grow(store, [
            _dataset(_record(1), _record(2), _record(3, ("streaming",))),
            _dataset(_record(1, ("streaming",)), _record(2),
                     _record(4, ("banks",))),
            _dataset(_record(1, ("streaming",)), _record(2),
                     _record(3, ("hosting",)), _record(4, ("banks",))),
        ])
        return store

    def test_version_on_day(self, tmp_path):
        history = ReleaseHistory(self._store(tmp_path))
        # Windows: v1 (-1, 0], v2 (0, 90], v3 (90, 180].
        assert history.version_on(0).version == 1
        assert history.version_on(89).version == 1
        assert history.version_on(90).version == 2
        assert history.version_on(500).version == 3
        with pytest.raises(SnapshotError, match="no release"):
            history.version_on(-1)

    def test_asof_by_version_and_day(self, tmp_path):
        store = self._store(tmp_path)
        history = ReleaseHistory(store)
        dataset, info = history.asof(day=100)
        assert info.version == 2
        assert dataset_to_json(dataset) == store.read_json(2)
        dataset, info = history.asof(version=3)
        assert info.version == 3
        assert {record.asn for record in dataset} == {1, 2, 3, 4}

    def test_asof_needs_exactly_one_selector(self, tmp_path):
        history = ReleaseHistory(self._store(tmp_path))
        with pytest.raises(SnapshotError, match="exactly one"):
            history.asof()
        with pytest.raises(SnapshotError, match="exactly one"):
            history.asof(version=1, day=5)

    def test_asof_into_store_backend(self, tmp_path):
        store = self._store(tmp_path)
        target = SqliteDatasetStore(str(tmp_path / "asof.sqlite"))
        dataset, info = ReleaseHistory(store).asof(day=400, into=target)
        assert dataset is target
        assert dataset_to_json(target) == store.read_json(info.version)
        target.close()

    def test_timeline_remove_then_readd(self, tmp_path):
        history = ReleaseHistory(self._store(tmp_path))
        events = history.timeline(3)
        assert [e.change for e in events] == \
            ["added", "removed", "added"]
        assert [e.version for e in events] == [1, 2, 3]
        assert events[1].item is None
        assert categorization(events[0].item) == "media"
        assert categorization(events[2].item) == "computer_and_it"
        # The re-add carries the release's sweep window.
        assert events[2].through_day == 180

    def test_timeline_update_flags(self, tmp_path):
        history = ReleaseHistory(self._store(tmp_path))
        events = history.timeline(1)
        assert [e.change for e in events] == ["added", "updated"]
        assert events[1].labels_changed is True
        steady = history.timeline(2)
        assert [e.change for e in steady] == ["added"]

    def test_timeline_unknown_asn_is_empty(self, tmp_path):
        history = ReleaseHistory(self._store(tmp_path))
        assert history.timeline(999) == ()

    def test_timeline_scans_checkpointed_chains(self, tmp_path):
        # Same store, checkpointing every delta: the scan must read the
        # deltas (not the checkpoints) and produce identical events.
        plain = ReleaseHistory(self._store(tmp_path / "plain"))
        ckpt = ReleaseHistory(
            self._store(tmp_path / "ckpt", checkpoint_every=1)
        )
        assert ckpt.store.info(2).checkpoint is not None
        for asn in (1, 2, 3, 4):
            assert ckpt.timeline(asn) == plain.timeline(asn)

    def test_timelines_matches_per_asn_timeline(self, tmp_path):
        history = ReleaseHistory(self._store(tmp_path))
        bulk = history.timelines()
        assert set(bulk) == {1, 2, 3, 4}
        for asn, events in bulk.items():
            assert events == history.timeline(asn)

    def test_full_save_pins_state(self, tmp_path):
        store = SnapshotStore(tmp_path / "s")
        store.save(_dataset(_record(1), _record(2)), window=(-1, 0))
        # An explicit full save that dropped AS2 entirely.
        store.save(_dataset(_record(1)), window=(0, 90), full=True)
        history = ReleaseHistory(store)
        assert [e.change for e in history.timeline(2)] == \
            ["added", "removed"]
        bulk = history.timelines()
        assert bulk[2] == history.timeline(2)

    def test_churn_flows(self, tmp_path):
        history = ReleaseHistory(self._store(tmp_path))
        report = history.churn(1, 2)
        assert report.added == 1        # AS4 appeared
        assert report.removed == 1      # AS3 disappeared
        assert report.relabeled == 1    # AS1 computer_and_it -> media
        assert report.unchanged == 1    # AS2 held
        assert report.changed == 3
        assert (report.old_records, report.new_records) == (3, 3)
        assert report.flows == (
            (ABSENT, "finance", 1),
            ("computer_and_it", "media", 1),
            ("media", ABSENT, 1),
        )

    def test_churn_roundtrip_dict(self, tmp_path):
        report = ReleaseHistory(self._store(tmp_path)).churn(1, 3)
        document = report.to_dict()
        assert document["old_version"] == 1
        assert document["new_version"] == 3
        assert sum(flow["count"] for flow in document["flows"]) >= 1

    def test_churn_stage_only_changes_are_unchanged(self, tmp_path):
        store = SnapshotStore(tmp_path / "s")
        store.save(_dataset(_record(5, stage=Stage.ONE_SOURCE)))
        store.save(_dataset(_record(5, stage=Stage.MULTI_AGREE)))
        report = ReleaseHistory(store).churn(1, 2)
        assert report.unchanged == 1 and report.relabeled == 0
        assert report.flows == ()

    def test_categorization_states(self):
        assert categorization(None) == ABSENT
        assert categorization({"asn": 1, "labels": []}) == UNCLASSIFIED
        item = {"labels": [
            {"layer1": "media", "layer2": "streaming"},
            {"layer1": "finance", "layer2": "banks"},
        ]}
        assert categorization(item) == "finance+media"


class TestDeltasSince:
    """``SnapshotStore.deltas_since``: the one chain iterator and the one
    lineage check behind every timeline fold and incremental refresh."""

    def _store(self, tmp_path):
        store = SnapshotStore(tmp_path / "s")
        _grow(store, [
            _dataset(_record(1), _record(2)),
            _dataset(_record(1, ("streaming",)), _record(3)),
        ])
        store.save(_dataset(_record(1, ("streaming",)), _record(4)),
                   window=(180, 270), full=True)
        store.save(_dataset(_record(4, ("banks",))), window=(270, 360))
        return store

    def test_version_zero_is_the_whole_chain(self, tmp_path):
        store = self._store(tmp_path)
        chain = store.deltas_since(0)
        assert type(chain) is list
        assert [info.version for info, _, _ in chain] == [1, 2, 3, 4]
        first, items, removed = chain[0]
        assert first.kind == "full"
        assert [item["asn"] for item in items] == [1, 2]
        assert removed == []
        assert chain[1][1:] == store.deltas_since(
            1, store.info(1).digest)[0][1:]

    def test_a_full_save_yields_its_items(self, tmp_path):
        store = self._store(tmp_path)
        chain = store.deltas_since(2, store.info(2).digest)
        assert [info.version for info, _, _ in chain] == [3, 4]
        info, items, removed = chain[0]
        assert info.kind == "full"
        assert [item["asn"] for item in items] == [1, 4]
        assert removed == []
        assert [item["asn"] for item in chain[1][1]] == [4]
        assert chain[1][2] == [1]

    def test_latest_version_yields_an_empty_list(self, tmp_path):
        store = self._store(tmp_path)
        assert store.deltas_since(4, store.info(4).digest) == []

    def test_lineage_mismatch_is_none(self, tmp_path):
        store = self._store(tmp_path)
        assert store.deltas_since(2, store.info(3).digest) is None
        assert store.deltas_since(2, None) is None
        assert store.deltas_since(5, store.info(4).digest) is None
        assert store.deltas_since(-1, store.info(1).digest) is None
