"""Tests for the versioned snapshot store and the incremental refresh
engine (the Section-5.3 maintenance tentpole)."""

import dataclasses
import hashlib
import json
import os
import random

import pytest

from repro import SystemConfig, build_asdb
from repro.core import (
    ASdbDataset,
    ASdbRecord,
    SnapshotCorruption,
    SnapshotError,
    SnapshotStore,
    SqliteDatasetStore,
    Stage,
    dataset_from_json,
    dataset_to_json,
    record_to_item,
)
from repro.obs import MetricsRegistry, narrate_sweep
from repro.taxonomy import LabelSet
from repro.whois import WhoisFacts, render
from repro.whois.records import RIR
from repro.world import WorldConfig, generate_world, simulate_churn


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


def _raw(asn, name):
    facts = WhoisFacts(
        asn=asn, as_name=f"AS{asn}", org_name=name,
        emails=(f"abuse@org{asn}.example",), country="US",
    )
    return render(facts, RIR.ARIN)


class TestSnapshotStore:
    def test_first_version_is_verbatim_full_json(self, tmp_path):
        dataset = _dataset(_record(64512), _record(64513, ("hosting",)))
        store = SnapshotStore(tmp_path / "store")
        info = store.save(dataset, window=(-1, 0))
        assert info.version == 1 and info.kind == "full"
        # The stored document is byte-identical to dataset_to_json.
        assert store.read_json(1) == dataset_to_json(dataset)
        on_disk = (tmp_path / "store" / info.filename).read_text()
        assert on_disk == dataset_to_json(dataset)

    def test_second_version_is_a_delta(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.save(_dataset(_record(1), _record(2), _record(3)))
        changed = _dataset(
            _record(1),
            _record(2, ("hosting",)),   # relabeled
            _record(4),                  # added; 3 removed
        )
        info = store.save(changed, window=(0, 90))
        assert info.kind == "delta" and info.parent == 1
        assert info.changed == 2 and info.removed == 1
        delta = json.loads(
            (tmp_path / "store" / info.filename).read_text()
        )
        assert delta["removed"] == [3]
        assert [item["asn"] for item in delta["changed"]] == [2, 4]

    def test_every_version_reloads_exactly(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        v1 = _dataset(_record(1), _record(2))
        v2 = _dataset(_record(1), _record(2, ("hosting",)), _record(3))
        v3 = _dataset(_record(2, ("hosting",)), _record(3))
        for dataset in (v1, v2, v3):
            store.save(dataset)
        for version, dataset in ((1, v1), (2, v2), (3, v3)):
            assert store.read_json(version) == dataset_to_json(dataset)
            reloaded = store.load(version)
            assert [record for record in reloaded] == list(dataset)

    def test_reopened_store_reads_history(self, tmp_path):
        root = tmp_path / "store"
        first = SnapshotStore(root)
        first.save(_dataset(_record(1)))
        first.save(_dataset(_record(1), _record(2)), window=(0, 30))
        first.set_meta({"n_orgs": 5, "world_seed": 9})

        reopened = SnapshotStore(root)
        assert len(reopened) == 2
        assert reopened.meta == {"n_orgs": 5, "world_seed": 9}
        assert reopened.info(2).since_day == 0
        assert reopened.info(2).through_day == 30
        assert len(reopened.load(2)) == 2

    def test_degraded_sources_survive_snapshots(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.save(_dataset(_record(1)))
        store.save(
            _dataset(_record(1, degraded_sources=("dnb", "zvelo")))
        )
        record = store.load(2).get(1)
        assert record.degraded_sources == ("dnb", "zvelo")

    def test_corrupted_document_detected(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        info = store.save(_dataset(_record(1)))
        path = tmp_path / "store" / info.filename
        document = json.loads(path.read_text())
        document["records"][0]["stage"] = Stage.MULTI_AGREE.value
        path.write_text(json.dumps(document, indent=2))
        with pytest.raises(SnapshotCorruption):
            store.load(1)

    def test_unknown_version_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        with pytest.raises(SnapshotError):
            store.load()
        store.save(_dataset(_record(1)))
        with pytest.raises(SnapshotError):
            store.info(2)
        with pytest.raises(SnapshotError):
            store.diff(0, 1)

    def test_diff_between_versions(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.save(_dataset(_record(1), _record(2), _record(5)))
        store.save(
            _dataset(
                _record(1, ("hosting",)),
                _record(2, ("isp",), stage=Stage.MULTI_AGREE),
                _record(7),
            )
        )
        diff = store.diff(1, 2)
        assert diff.added == (7,)
        assert diff.removed == (5,)
        assert diff.relabeled == (1,)
        assert diff.stage_changed == (2,)
        assert diff.changed_asns == (1, 2, 5, 7)


def _delta_by_merge(new_records, old_records):
    """The delta that save() computed before its single-pass rewrite,
    by an ordered merge of the new dataset against the parent rebuilt
    with load(): the reference the new path must match."""
    changed, removed = [], []
    sentinel = object()
    new_iter, old_iter = iter(new_records), iter(old_records)
    new = next(new_iter, sentinel)
    old = next(old_iter, sentinel)
    while new is not sentinel or old is not sentinel:
        if old is sentinel or (new is not sentinel and new.asn < old.asn):
            changed.append(record_to_item(new))
            new = next(new_iter, sentinel)
        elif new is sentinel or old.asn < new.asn:
            removed.append(old.asn)
            old = next(old_iter, sentinel)
        else:
            new_item = record_to_item(new)
            if new_item != record_to_item(old):
                changed.append(new_item)
            new = next(new_iter, sentinel)
            old = next(old_iter, sentinel)
    return changed, removed


def _reference_json(dataset):
    """The full document as the format defines it."""
    return json.dumps(
        {
            "format": "asdb-repro/1",
            "records": [record_to_item(record) for record in dataset],
        },
        indent=2,
    )


_SLUG_CHOICES = (("isp",), ("hosting", "isp"), ("banks",), ())


def _churn(rng, records, gone):
    """Apply a few random adds, updates, removals and re-adds to the
    ``asn -> record`` map; ``gone`` keeps removed records for re-adds."""
    for _ in range(rng.randrange(6)):
        action = rng.choice(("add", "update", "remove", "readd"))
        if action == "add":
            asn = rng.randrange(1, 5000)
            records[asn] = _record(asn, rng.choice(_SLUG_CHOICES))
        elif action == "readd" and gone:
            record = gone.pop(rng.randrange(len(gone)))
            if rng.random() < 0.5:
                record = dataclasses.replace(record, domain="back.example")
            records[record.asn] = record
        elif records:
            asn = rng.choice(sorted(records))
            if action == "remove":
                gone.append(records.pop(asn))
                continue
            records[asn] = dataclasses.replace(
                records[asn],
                **rng.choice((
                    {"domain": f"d{rng.randrange(9)}.example"},
                    {"labels": LabelSet.from_layer2_slugs(
                        list(rng.choice(_SLUG_CHOICES)))},
                    {"stage": rng.choice(list(Stage))},
                    {"sources": tuple(rng.sample(("dnb", "zvelo", "ipinfo"),
                                                 rng.randrange(3)))},
                    {"org_key": rng.choice((None, "name:x", "name:y"))},
                    {"degraded_sources": rng.choice(((), ("dnb",)))},
                )),
            )


class TestSinglePassDelta:
    """Delta saves against the reference of reloading the parent."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("checkpoint_every", [None, 1, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reload_and_merge_reference(
        self, tmp_path, seed, checkpoint_every, backend
    ):
        rng = random.Random(seed)
        root = tmp_path / "s"
        store = SnapshotStore(root, checkpoint_every=checkpoint_every)
        records = {
            asn: _record(asn, rng.choice(_SLUG_CHOICES))
            for asn in rng.sample(range(1, 5000), 40)
        }
        gone = []
        deltas_since_base = 0
        for version in range(1, 15):
            if backend == "memory":
                dataset = _dataset(*records.values())
            else:
                dataset = SqliteDatasetStore(
                    str(tmp_path / f"v{version}.sqlite"), batch_size=7
                )
                for record in records.values():
                    dataset.add(record)
                dataset.flush()
            reference = _reference_json(dataset)
            full = version == 1 or rng.random() < 0.1
            kind = "full" if full else "delta"
            window, note = (version * 7, version * 7 + 7), f"v{version}"
            expected = {
                "version": version,
                "kind": kind,
                "parent": None if full else version - 1,
                "filename": f"v{version:04d}.{kind}.json",
                "since_day": window[0],
                "through_day": window[1],
                "record_count": len(records),
                "changed": len(records),
                "removed": 0,
                "digest": hashlib.blake2b(
                    reference.encode("utf-8"), digest_size=16
                ).hexdigest(),
                "note": note,
                "provenance": {"seed": seed},
            }
            if full:
                deltas_since_base = 0
                store.save(dataset, window=window, note=note,
                           provenance={"seed": seed}, full=version > 1)
                assert (root / expected["filename"]).read_text() == reference
            else:
                changed, removed = _delta_by_merge(
                    dataset, store.load(version - 1)
                )
                expected.update(changed=len(changed), removed=len(removed))
                deltas_since_base += 1
                checkpoint = root / f"v{version:04d}.ckpt.json"
                if (checkpoint_every is not None
                        and deltas_since_base >= checkpoint_every):
                    deltas_since_base = 0
                    expected["checkpoint"] = checkpoint.name
                store.save(dataset, window=window, note=note,
                           provenance={"seed": seed})
                assert (root / expected["filename"]).read_text() == (
                    json.dumps(
                        {
                            "format": "asdb-repro/delta/1",
                            "base": version - 1,
                            "changed": changed,
                            "removed": removed,
                        },
                        indent=2,
                    )
                )
                if "checkpoint" in expected:
                    assert checkpoint.read_text() == reference
                else:
                    assert not checkpoint.exists()
            manifest = json.loads((root / "manifest.json").read_text())
            assert manifest["versions"][-1] == expected
            if backend == "sqlite":
                dataset.close()
            _churn(rng, records, gone)
        assert not [name for name in os.listdir(root) if "tmp" in name]

    @staticmethod
    def _chain(root):
        """v1 full, then two deltas: v2 changes AS1, v3 swaps AS3 for
        AS4 and leaves v2's item for AS1 in place."""
        store = SnapshotStore(root)
        store.save(_dataset(_record(1), _record(2), _record(3)))
        store.save(_dataset(
            _record(1, domain="a.example"), _record(2), _record(3)
        ))
        store.save(_dataset(
            _record(1, domain="a.example"), _record(2), _record(4)
        ))
        return store

    @pytest.mark.parametrize("tamper", [
        "edit", "malformed", "truncate", "delete",
    ])
    @pytest.mark.parametrize("name", ["v0001.full.json", "v0002.delta.json"])
    def test_tampered_parent_chain_refuses_the_next_save(
        self, tmp_path, name, tamper
    ):
        root = tmp_path / "s"
        store = self._chain(root)
        path = root / name
        if tamper in ("edit", "malformed"):
            document = json.loads(path.read_text())
            if name.endswith(".full.json"):
                # AS2 survives to v3; AS1 is replaced by v2's item,
                # which load() still parses on the way.
                survivor, replaced = document["records"][:2][::-1]
            else:
                survivor = replaced = document["changed"][0]
            if tamper == "edit":
                survivor["domain"] = "tampered.example"
            else:
                del replaced["stage"]
            path.write_text(json.dumps(document, indent=2))
        elif tamper == "truncate":
            path.write_text(path.read_text()[:-20])
        else:
            path.unlink()
        with pytest.raises((KeyError, ValueError)):
            store.load(3)
        files = sorted(os.listdir(root))
        manifest = (root / "manifest.json").read_bytes()
        with pytest.raises(SnapshotCorruption):
            store.save(_dataset(_record(1), _record(5)))
        assert sorted(os.listdir(root)) == files
        assert (root / "manifest.json").read_bytes() == manifest
        assert len(store) == len(SnapshotStore(root)) == 3

    def test_items_load_normalizes_are_unchanged(self, tmp_path):
        # Stored items that differ from the new ones only in ways
        # load() normalizes away still verify and stay out of the delta.
        root = tmp_path / "s"
        store = SnapshotStore(root)
        records = (_record(1, ("hosting", "isp")), _record(2), _record(3))
        store.save(_dataset(*records))
        path = root / "v0001.full.json"
        document = json.loads(path.read_text())
        document["records"][0]["labels"].reverse()
        document["records"][1]["degraded_sources"] = []
        document["records"][2]["extra"] = "ignored"
        path.write_text(json.dumps(document, indent=2))
        current = _dataset(*records, _record(4))
        assert _delta_by_merge(current, store.load(1)) == (
            [record_to_item(_record(4))], []
        )
        info = store.save(current)
        assert (info.changed, info.removed) == (1, 0)
        assert json.loads((root / info.filename).read_text())["changed"] == (
            [record_to_item(_record(4))]
        )

    def test_replaced_item_edits_pass_as_they_do_in_load(self, tmp_path):
        # A value edit that a later delta overwrites never reaches the
        # parent's digest, so load() accepts it; so does the next save.
        root = tmp_path / "s"
        store = self._chain(root)
        path = root / "v0001.full.json"
        document = json.loads(path.read_text())
        document["records"][0]["domain"] = "tampered.example"
        path.write_text(json.dumps(document, indent=2))
        store.load(3)
        info = store.save(_dataset(_record(1), _record(5)))
        assert dataset_to_json(store.load(info.version)) == (
            dataset_to_json(_dataset(_record(1), _record(5)))
        )


class TestIncrementalRefresh:
    """The daemon + store against a churning world."""

    @pytest.fixture()
    def built(self, tmp_path):
        world = generate_world(WorldConfig(n_orgs=60, seed=77))
        built = build_asdb(
            world,
            SystemConfig(
                seed=1,
                train_ml=False,
                workers=2,
                snapshot_dir=str(tmp_path / "releases"),
            ),
        )
        return world, built

    def test_refresh_over_unchanged_registry_reclassifies_zero(
        self, built
    ):
        world, system = built
        daemon = system.daemon
        baseline = daemon.sweep(current_day=0)
        assert baseline.reclassified == len(world.asns())
        snapshot = dataset_from_json(dataset_to_json(system.asdb.dataset))

        second = daemon.sweep(current_day=90)
        assert second.reclassified == 0
        assert second.new_asns == () and second.updated_asns == ()
        # Nothing changed on disk either: v2 is an empty delta.
        assert system.snapshots.info(2).changed == 0
        assert system.snapshots.info(2).removed == 0
        assert system.snapshots.diff(1, 2).empty
        assert system.asdb.dataset.diff(snapshot).empty

    def test_churn_reclassifies_exactly_the_changed_set(self, built):
        world, system = built
        daemon = system.daemon
        daemon.sweep(current_day=0)

        stats = simulate_churn(world, days=200, seed=5, start_day=1)
        assert stats.changed_asns, "churn produced no changes"
        report = daemon.sweep(current_day=200)
        assert report.changed_asns == stats.changed_asns
        assert report.reclassified == len(stats.changed_asns)
        assert tuple(sorted(report.new_asns)) == stats.new_asns
        assert tuple(sorted(report.updated_asns)) == stats.updated_asns
        # The stored delta touches only churned ASNs ...
        diff = system.snapshots.diff(1, 2)
        assert not diff.removed
        assert set(diff.changed_asns) <= set(stats.changed_asns)
        # ... and every genuinely new AS appears in it.
        assert set(diff.added) == set(stats.new_asns)

    def test_no_asn_reclassified_twice_across_sweeps(self, built):
        """Regression for the unbounded sweep window: an AS registered
        after the sweep's cutoff must wait for the next sweep instead
        of being classified early *and* again."""
        world, system = built
        daemon = system.daemon
        daemon.sweep(current_day=0)

        future_asn = max(world.asns()) + 10
        world.registry.register(_raw(future_asn, "Future Org"), day=15)
        early = daemon.sweep(current_day=10)
        assert future_asn not in early.changed_asns
        assert future_asn not in system.asdb.dataset

        late = daemon.sweep(current_day=20)
        assert future_asn in late.new_asns
        assert future_asn not in late.updated_asns

        # Two-sweep churn scenario: windows partition the changes, so
        # no ASN is reclassified in both sweeps.
        first_churn = simulate_churn(world, days=30, seed=2,
                                     start_day=21)
        sweep_one = daemon.sweep(current_day=50)
        second_churn = simulate_churn(world, days=30, seed=3,
                                      start_day=51)
        sweep_two = daemon.sweep(current_day=80)
        assert sweep_one.changed_asns == first_churn.changed_asns
        assert not (
            set(sweep_one.changed_asns) - set(second_churn.changed_asns)
        ) & set(sweep_two.changed_asns)

    def test_sweep_day_cannot_go_backwards(self, built):
        _, system = built
        daemon = system.daemon
        daemon.sweep(current_day=10)
        with pytest.raises(ValueError):
            daemon.sweep(current_day=5)

    def test_sweep_metrics_exported(self, tmp_path):
        registry = MetricsRegistry()
        world = generate_world(WorldConfig(n_orgs=40, seed=8))
        built = build_asdb(
            world,
            SystemConfig(
                seed=1,
                train_ml=False,
                metrics=registry,
                snapshot_dir=str(tmp_path / "releases"),
            ),
        )
        baseline = built.daemon.sweep(current_day=0)
        simulate_churn(world, days=300, seed=4, start_day=1)
        report = built.daemon.sweep(current_day=300)
        assert registry.counter("asdb_sweep_total").total() == 2
        assert registry.counter(
            "asdb_sweep_reclassified_total"
        ).total() == baseline.reclassified + report.reclassified
        assert registry.gauge("asdb_sweep_last_day").value() == 300
        assert registry.gauge("asdb_snapshot_version").value() == 2
        text = registry.to_prometheus()
        assert "asdb_sweep_changed_total" in text

    def test_traced_sweep_has_phase_spans_and_narration(self, tmp_path):
        world = generate_world(WorldConfig(n_orgs=40, seed=8))
        built = build_asdb(
            world,
            SystemConfig(
                seed=1,
                train_ml=False,
                trace=True,
                snapshot_dir=str(tmp_path / "releases"),
            ),
        )
        report = built.daemon.sweep(current_day=0)
        assert report.trace is not None
        names = [span.name for span in report.trace.spans]
        assert names == ["window", "purge", "classify", "snapshot"]
        text = narrate_sweep(report)
        assert "baseline through day 0" in text
        assert "stored snapshot v1" in text

    def test_fault_free_snapshot_json_matches_direct_export(
        self, built
    ):
        world, system = built
        system.daemon.sweep(current_day=0)
        assert system.snapshots.read_json(1) == dataset_to_json(
            system.asdb.dataset
        )


class TestSweepReportWindows:
    def test_baseline_window_is_explicit(self):
        from repro.core import SweepReport

        report = SweepReport(
            since_day=-1, through_day=13,
            new_asns=tuple(range(28)), updated_asns=(), reclassified=28,
        )
        assert report.is_baseline
        assert report.window_days == 14
        assert report.updates_per_week == pytest.approx(14.0)

    def test_same_day_sweep_reports_zero_rate(self):
        from repro.core import SweepReport

        report = SweepReport(
            since_day=7, through_day=7,
            new_asns=(), updated_asns=(), reclassified=0,
        )
        assert report.window_days == 0
        assert report.updates_per_week == 0.0

    def test_incremental_window(self):
        from repro.core import SweepReport

        report = SweepReport(
            since_day=0, through_day=7,
            new_asns=tuple(range(100)),
            updated_asns=tuple(range(100, 140)),
            reclassified=140,
        )
        assert not report.is_baseline
        assert report.window_days == 7
        assert report.updates_per_week == pytest.approx(140.0)


class TestBoundedChangedSince:
    def test_upper_bound_hides_future_changes(self):
        from repro.whois.registry import WhoisRegistry

        registry = WhoisRegistry()
        registry.register(_raw(10, "Early Org"), day=1)
        registry.register(_raw(20, "Late Org"), day=9)
        registry.update(_raw(10, "Early Org Renamed"), day=8)

        assert registry.changed_since(0, through=5) == [10]
        assert registry.changed_since(5, through=8) == [10]
        assert registry.changed_since(0) == [10, 20]
        assert registry.changed_since(8, through=9) == [20]
        assert registry.changed_since(9, through=9) == []


class TestSweepTraceTags:
    """Satellite: per-AS traces carry the sweep window (and run id)
    that produced them, so a ledger can attribute any trace to its
    sweep."""

    def _built(self, tmp_path, runlog=None):
        world = generate_world(WorldConfig(n_orgs=40, seed=77))
        return world, build_asdb(
            world,
            SystemConfig(
                seed=1, train_ml=False, trace=True,
                snapshot_dir=str(tmp_path / "releases"), runlog=runlog,
            ),
        )

    def test_baseline_sweep_tags_every_trace(self, tmp_path):
        world, system = self._built(tmp_path)
        system.daemon.sweep(current_day=0)
        traces = [
            record.trace for record in system.asdb.dataset
            if record.trace is not None
        ]
        assert len(traces) == len(world.asns())
        for trace in traces:
            assert trace.tags["sweep_since"] == -1
            assert trace.tags["sweep_through"] == 0
            assert "run" not in trace.tags  # no ledger attached

    def test_incremental_sweep_retags_only_churned(self, tmp_path):
        world, system = self._built(tmp_path)
        system.daemon.sweep(current_day=0)
        stats = simulate_churn(world, days=60, seed=5, start_day=1)
        assert stats.changed_asns
        system.daemon.sweep(current_day=60)
        for record in system.asdb.dataset:
            if record.trace is None:
                continue
            expected = (
                (0, 60) if record.asn in stats.changed_asns else (-1, 0)
            )
            assert (
                record.trace.tags["sweep_since"],
                record.trace.tags["sweep_through"],
            ) == expected

    def test_run_id_tag_with_ledger(self, tmp_path):
        from repro.obs import RunLog, read_ledger

        runlog = RunLog(str(tmp_path / "sweep.ndjson"), kind="sweep")
        _, system = self._built(tmp_path, runlog=runlog)
        system.daemon.sweep(current_day=0)
        runlog.finish()
        for record in system.asdb.dataset:
            assert record.trace.tags["run"] == runlog.run_id
        # The ledger's as.trace events carry the same tags.
        traced = [
            event for event in read_ledger(str(tmp_path / "sweep.ndjson"))
            if event["event"] == "as.trace"
        ]
        assert traced
        assert all(
            event["tags"]["run"] == runlog.run_id for event in traced
        )
