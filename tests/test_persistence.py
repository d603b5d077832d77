"""Tests for dataset persistence (CSV and JSON round-trips)."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ASdbDataset,
    ASdbRecord,
    Stage,
    dataset_from_csv,
    dataset_from_json,
    dataset_to_json,
)
from repro.core.persistence import (
    JsonFrame,
    item_json,
    iter_json_chunks,
    record_to_item,
)
from repro.core.snapshots import dataset_digest
from repro.taxonomy import Label, LabelSet, naicslite


def _dataset():
    dataset = ASdbDataset()
    dataset.add(
        ASdbRecord(
            asn=64512,
            labels=LabelSet.from_layer2_slugs(["isp", "hosting"]),
            stage=Stage.MULTI_AGREE,
            domain="acme.net",
            sources=("dnb", "zvelo"),
            org_key="domain:acme.net",
        )
    )
    dataset.add(
        ASdbRecord(
            asn=64513,
            labels=LabelSet([Label(layer1="finance")]),
            stage=Stage.ONE_SOURCE,
            sources=("crunchbase",),
        )
    )
    dataset.add(
        ASdbRecord(
            asn=64514,
            labels=LabelSet(),
            stage=Stage.ZERO_SOURCES,
        )
    )
    return dataset


class TestCsvRoundTrip:
    def test_labels_and_stages_survive(self):
        original = _dataset()
        restored = dataset_from_csv(original.to_csv())
        assert len(restored) == 3
        assert restored.get(64512).labels == original.get(64512).labels
        assert restored.get(64512).stage is Stage.MULTI_AGREE
        assert restored.get(64512).sources == ("dnb", "zvelo")

    def test_layer1_only_label_survives(self):
        restored = dataset_from_csv(_dataset().to_csv())
        labels = restored.get(64513).labels
        assert labels.layer1_slugs() == {"finance"}
        assert not labels.has_layer2

    def test_unclassified_record_survives(self):
        restored = dataset_from_csv(_dataset().to_csv())
        record = restored.get(64514)
        assert not record.classified
        assert record.stage is Stage.ZERO_SOURCES

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_csv("not,a,header\n")

    def test_bad_asn_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_csv(
                "ASN,Layer1,Layer2,Sources,Stage\n"
                "banana,Finance and Insurance,,,one_source\n"
            )

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_csv(
                "ASN,Layer1,Layer2,Sources,Stage\n"
                "AS1,Quantum Industries,,,one_source\n"
            )

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_csv(
                "ASN,Layer1,Layer2,Sources,Stage\nAS1,too,few\n"
            )

    def test_conflicting_stage_rows_rejected(self):
        lines = _dataset().to_csv().strip().splitlines()
        # AS64512 spans two label rows; corrupt the stage of the last.
        index = max(
            i for i, line in enumerate(lines)
            if line.startswith("AS64512")
        )
        prefix, sources, _ = lines[index].rsplit(",", 2)
        lines[index] = ",".join((prefix, sources, Stage.ONE_SOURCE.value))
        with pytest.raises(ValueError, match="conflicting stages"):
            dataset_from_csv("\n".join(lines))

    def test_conflicting_source_rows_rejected(self):
        lines = _dataset().to_csv().strip().splitlines()
        index = max(
            i for i, line in enumerate(lines)
            if line.startswith("AS64512")
        )
        prefix, _, stage = lines[index].rsplit(",", 2)
        lines[index] = ",".join((prefix, "dnb", stage))
        with pytest.raises(ValueError, match="conflicting sources"):
            dataset_from_csv("\n".join(lines))

    def test_real_pipeline_output_roundtrips(self, medium_world):
        from repro import SystemConfig, build_asdb

        built = build_asdb(medium_world, SystemConfig(seed=1,
                                                      train_ml=False))
        for asn in medium_world.asns()[:60]:
            built.asdb.classify(asn)
        original = built.asdb.dataset
        restored = dataset_from_csv(original.to_csv())
        assert len(restored) == len(original)
        for record in original:
            assert restored.get(record.asn).labels == record.labels


class TestJsonRoundTrip:
    def test_lossless(self):
        original = _dataset()
        restored = dataset_from_json(dataset_to_json(original))
        for record in original:
            twin = restored.get(record.asn)
            assert twin.labels == record.labels
            assert twin.stage is record.stage
            assert twin.domain == record.domain
            assert twin.sources == record.sources
            assert twin.org_key == record.org_key

    def test_degraded_sources_roundtrip(self):
        original = ASdbDataset()
        original.add(
            ASdbRecord(
                asn=64515,
                labels=LabelSet.from_layer2_slugs(["isp"]),
                stage=Stage.ONE_SOURCE,
                sources=("peeringdb",),
                degraded_sources=("dnb", "zvelo"),
            )
        )
        restored = dataset_from_json(dataset_to_json(original))
        assert restored.get(64515).degraded_sources == ("dnb", "zvelo")
        # A record with no degradations omits the field entirely, so
        # fault-free exports stay byte-identical to older releases.
        assert "degraded_sources" not in dataset_to_json(_dataset())

    def test_format_marker_checked(self):
        with pytest.raises(ValueError):
            dataset_from_json('{"format": "other", "records": []}')

    def test_empty_dataset(self):
        restored = dataset_from_json(dataset_to_json(ASdbDataset()))
        assert len(restored) == 0


def _reference_item_json(item):
    """The record text as the format defines it: the standalone
    ``json.dumps(item, indent=2)``, re-indented two levels deep."""
    body = json.dumps(item, indent=2)
    return "\n".join("    " + line for line in body.splitlines())


_LAYER1 = [category.slug for category in naicslite.ALL_LAYER1]
_LAYER2 = [sub.slug for sub in naicslite.ALL_LAYER2]
# Quotes, backslashes, control characters, DEL, a line separator,
# non-ASCII and astral text, next to whatever st.text() draws.
_tricky_text = st.text(max_size=12) | st.text(
    alphabet='"\\\n\r\t\x00\x1f\x7f\u2028é中\U0001f600/ a', max_size=12
)
_labels = st.lists(
    st.sampled_from(_LAYER2).map(Label.from_layer2)
    | st.sampled_from(_LAYER1).map(lambda slug: Label(layer1=slug)),
    max_size=4,
).map(LabelSet)
_records = st.builds(
    ASdbRecord,
    asn=st.integers(min_value=0, max_value=2**32 - 1),
    labels=_labels,
    stage=st.sampled_from(list(Stage)),
    domain=st.none() | _tricky_text,
    sources=st.lists(_tricky_text, max_size=3).map(tuple),
    org_key=st.none() | _tricky_text,
    degraded_sources=st.lists(_tricky_text, max_size=2).map(tuple),
)


class TestJsonEncoding:
    """The JSON document's bytes are pinned to ``json.dumps(...,
    indent=2)``: every snapshot digest in existing stores depends on
    them."""

    @given(records=st.lists(_records, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_chunks_match_reindented_json_dumps(self, records):
        chunks = list(iter_json_chunks(records))
        assert len(chunks) == len(records) + 2
        for position, (record, chunk) in enumerate(
            zip(records, chunks[1:-1])
        ):
            separator = "\n" if position == 0 else ",\n"
            assert chunk == separator + _reference_item_json(
                record_to_item(record)
            )
        assert "".join(chunks) == json.dumps(
            {
                "format": "asdb-repro/1",
                "records": [record_to_item(record) for record in records],
            },
            indent=2,
        )

    @given(records=st.lists(_records, max_size=6),
           batch=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_document_frames_blocks_like_single_records(self, records,
                                                        batch):
        texts = [item_json(record_to_item(record)) for record in records]
        chunks = list(JsonFrame.document(texts, batch=batch))
        assert len(chunks) == 2 + -(-len(texts) // batch)
        assert "".join(chunks) == "".join(iter_json_chunks(records))

    @pytest.mark.parametrize("change", [
        {"asn": True},
        {"asn": 64512.0},
        {"domain": 7},
        {"sources": ("dnb", "zvelo")},
        {"sources": ["dnb", None]},
        {"org_key": ["not", "a", "string"]},
        {"degraded_sources": []},
        {"labels": [{"layer1": "finance"}]},
        {"labels": [{"layer2": None, "layer1": "finance"}]},
        {"extra": {"nested": [1, 2.5, None]}},
    ])
    def test_values_outside_the_record_shape_fall_back(self, change):
        item = record_to_item(_dataset().get(64512))
        item.update(change)
        assert item_json(item) == _reference_item_json(item)

    def test_reordered_item_falls_back(self):
        item = record_to_item(_dataset().get(64512))
        reordered = dict(reversed(list(item.items())))
        assert item_json(reordered) == _reference_item_json(reordered)

    def test_golden_digest(self):
        # Taken from the json.dumps encoder, before the record-shape
        # fast path replaced it.
        assert (
            dataset_digest(_seeded_dataset())
            == "d504dec98d776306931ddbf157e562ae"
        )


def _seeded_dataset(seed=2021, size=240):
    """A fixed dataset exercising every field of the record shape."""
    words = ("acme", "nét", "中文", 'quo"te', "back\\slash",
             "tab\tnl\n", "bell\x07", "emoji\U0001f600", "plain")
    sources = ("dnb", "crunchbase", "zoominfo", "clearbit", "zvelo",
               "peeringdb", "ipinfo")
    rng = random.Random(seed)

    def phrase():
        return "-".join(rng.sample(words, rng.randrange(1, 3)))

    dataset = ASdbDataset()
    for asn in sorted(rng.sample(range(1, 400_000), size)):
        labels = [Label.from_layer2(rng.choice(_LAYER2))
                  for _ in range(rng.randrange(3))]
        if rng.random() < 0.2:
            labels.append(Label(layer1=rng.choice(_LAYER1)))
        stage = rng.choice(list(Stage))
        domain = f"{phrase()}.example" if rng.random() < 0.7 else None
        dataset.add(ASdbRecord(
            asn=asn,
            labels=LabelSet(labels),
            stage=stage,
            domain=domain,
            sources=tuple(rng.sample(sources, rng.randrange(4))),
            org_key=f"name:{phrase()}" if rng.random() < 0.8 else None,
            degraded_sources=(tuple(rng.sample(sources, 1))
                              if rng.random() < 0.1 else ()),
        ))
    return dataset


class TestDatasetDiff:
    def test_identical_snapshots_empty_diff(self):
        a, b = _dataset(), _dataset()
        assert a.diff(b).empty

    def test_added_and_removed(self):
        from repro.core import ASdbDataset, ASdbRecord, Stage
        from repro.taxonomy import LabelSet

        old = _dataset()
        new = ASdbDataset()
        for record in old:
            if record.asn != 64514:
                new.add(record)
        new.add(
            ASdbRecord(
                asn=70000,
                labels=LabelSet.from_layer2_slugs(["banks"]),
                stage=Stage.ONE_SOURCE,
            )
        )
        diff = new.diff(old)
        assert diff.added == (70000,)
        assert diff.removed == (64514,)
        assert diff.relabeled == ()

    def test_relabeled(self):
        from repro.core import ASdbRecord, Stage
        from repro.taxonomy import LabelSet

        old = _dataset()
        new = _dataset()
        new.add(
            ASdbRecord(
                asn=64512,
                labels=LabelSet.from_layer2_slugs(["banks"]),
                stage=Stage.MULTI_AGREE,
            )
        )
        diff = new.diff(old)
        assert diff.relabeled == (64512,)
        assert not diff.added and not diff.removed

    def test_diff_after_maintenance_sweep(self, medium_world):
        """Reclassification after churn shows up in the diff."""
        import copy

        from repro import SystemConfig, build_asdb
        from repro.core import dataset_from_json, dataset_to_json

        built = build_asdb(medium_world, SystemConfig(seed=1,
                                                      train_ml=False))
        for asn in medium_world.asns()[:50]:
            built.asdb.classify(asn)
        snapshot = dataset_from_json(dataset_to_json(built.asdb.dataset))
        # Force a label change through the corrections workflow.
        from repro.core import Correction, CorrectionQueue
        from repro.taxonomy import LabelSet

        queue = CorrectionQueue(built.asdb)
        target = medium_world.asns()[0]
        queue.review(
            queue.submit(
                Correction(
                    asn=target,
                    proposed=LabelSet.from_layer2_slugs(["gambling"]),
                    submitter="x",
                )
            ),
            approve=True,
        )
        diff = built.asdb.dataset.diff(snapshot)
        assert target in diff.relabeled
