"""Dataset persistence: the released-dataset formats.

The real ASdb dataset ships as CSV from asdb.stanford.edu.  This module
round-trips :class:`~repro.core.database.ASdbDataset` through two formats:

* the CSV shape of :meth:`ASdbDataset.to_csv` (one row per label);
* a JSON document carrying full per-record structure (stage, sources,
  domain), which CSV cannot represent losslessly.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import islice
from typing import Dict, IO, Iterable, Iterator, List, Optional, Tuple

from ..taxonomy import Label, LabelSet, naicslite
from .database import ASdbDataset, ASdbRecord, iter_csv_rows
from .stages import Stage

__all__ = [
    "dataset_from_csv",
    "dataset_to_json",
    "dataset_from_json",
    "record_to_item",
    "record_from_item",
    "item_json",
    "JsonFrame",
    "iter_json_chunks",
    "write_json",
    "write_csv",
    "CSV_HEADER",
]

#: The released CSV shape's exact header (one row per label).
CSV_HEADER = ("ASN", "Layer1", "Layer2", "Sources", "Stage")

_LAYER1_BY_NAME = {
    category.name: category for category in naicslite.ALL_LAYER1
}
_LAYER2_BY_NAME: Dict[Tuple[int, str], str] = {
    (sub.layer1_code, sub.name): sub.slug for sub in naicslite.ALL_LAYER2
}


def dataset_from_csv(text: str) -> ASdbDataset:
    """Parse a dataset from the :meth:`ASdbDataset.to_csv` shape.

    Rows for the same ASN merge into one record (multi-label).  Raises
    ValueError on malformed rows or unknown category names; every
    row-level error names the offending CSV row number.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("missing CSV header")
    if tuple(header) != CSV_HEADER:
        raise ValueError(
            f"malformed CSV header: expected {list(CSV_HEADER)!r}, "
            f"got {header!r}"
        )
    accumulated: Dict[int, Dict[str, object]] = {}
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != 5:
            raise ValueError(
                f"row {line}: expected 5 columns, got {len(row)}: {row!r}"
            )
        asn_text, layer1_name, layer2_name, sources_text, stage_text = row
        if not asn_text.startswith("AS") or not asn_text[2:].isdigit():
            raise ValueError(f"row {line}: bad ASN field {asn_text!r}")
        asn = int(asn_text[2:])
        if asn not in accumulated:
            try:
                Stage(stage_text)
            except ValueError:
                raise ValueError(
                    f"row {line}: unknown stage {stage_text!r}"
                ) from None
        sources = tuple(sources_text.split("|")) if sources_text else ()
        slot = accumulated.setdefault(
            asn,
            {"labels": set(), "sources": sources, "stage": stage_text},
        )
        # Every row of a multi-label ASN must agree on the per-record
        # fields; silently keeping one of the conflicting values would
        # fabricate a record no exporter ever wrote.
        if slot["stage"] != stage_text:
            raise ValueError(
                f"row {line}: conflicting stages for AS{asn}: "
                f"{slot['stage']!r} vs {stage_text!r}"
            )
        if slot["sources"] != sources:
            raise ValueError(
                f"row {line}: conflicting sources for AS{asn}: "
                f"{slot['sources']!r} vs {sources!r}"
            )
        if layer1_name:
            layer1 = _LAYER1_BY_NAME.get(layer1_name)
            if layer1 is None:
                raise ValueError(
                    f"row {line}: unknown layer 1 name {layer1_name!r}"
                )
            if layer2_name:
                slug = _LAYER2_BY_NAME.get((layer1.code, layer2_name))
                if slug is None:
                    raise ValueError(
                        f"row {line}: unknown layer 2 name "
                        f"{layer2_name!r} under {layer1_name!r}"
                    )
                slot["labels"].add(Label.from_layer2(slug))
            else:
                slot["labels"].add(Label(layer1=layer1.slug))
    dataset = ASdbDataset()
    for asn, slot in accumulated.items():
        dataset.add(
            ASdbRecord(
                asn=asn,
                labels=LabelSet(slot["labels"]),
                stage=Stage(slot["stage"]),
                sources=slot["sources"],
            )
        )
    return dataset


def record_to_item(record: ASdbRecord) -> Dict[str, object]:
    """The JSON-able item for one record (the document's unit shape).

    A pure function of the record's released fields, so two records
    that serialize equal *are* equal for snapshot/delta purposes; the
    snapshot store's delta encoder compares items, not records, and
    never diffs on fields the release format does not carry.
    """
    item: Dict[str, object] = {
        "asn": record.asn,
        "labels": [
            {"layer1": label.layer1, "layer2": label.layer2}
            for label in record.labels
        ],
        "stage": record.stage.value,
        "domain": record.domain,
        "sources": list(record.sources),
        "org_key": record.org_key,
    }
    # Only emitted when a source actually degraded, so documents
    # from healthy runs stay byte-identical to the previous format.
    if record.degraded_sources:
        item["degraded_sources"] = list(record.degraded_sources)
    return item


def record_from_item(item: Dict[str, object]) -> ASdbRecord:
    """Rebuild one record from its :func:`record_to_item` shape."""
    labels = LabelSet(
        Label(layer1=entry["layer1"], layer2=entry.get("layer2"))
        for entry in item["labels"]
    )
    return ASdbRecord(
        asn=int(item["asn"]),
        labels=labels,
        stage=Stage(item["stage"]),
        domain=item.get("domain"),
        sources=tuple(item.get("sources", ())),
        org_key=item.get("org_key"),
        degraded_sources=tuple(item.get("degraded_sources", ())),
    )


_ITEM_KEYS = ("asn", "labels", "stage", "domain", "sources", "org_key")
_DEGRADED_ITEM_KEYS = _ITEM_KEYS + ("degraded_sources",)
_LABEL_KEYS = ("layer1", "layer2")
_string = json.encoder.encode_basestring_ascii


def _optional_string(value: object) -> str:
    return "null" if value is None else _string(value)


def _string_list(values: object, indent: str) -> str:
    if type(values) is not list:
        raise TypeError("not a list")
    if not values:
        return "[]"
    inner = indent + "  "
    return (
        "[\n" + inner + (",\n" + inner).join(map(_string, values))
        + "\n" + indent + "]"
    )


def _shaped_item_json(item: Dict[str, object]) -> str:
    """:func:`item_json` for the :func:`record_to_item` shape; raises
    TypeError on anything outside it."""
    if type(item) is not dict or (
        tuple(item) not in (_ITEM_KEYS, _DEGRADED_ITEM_KEYS)
    ):
        raise TypeError("not a record item")
    asn, labels = item["asn"], item["labels"]
    if type(asn) is not int or type(labels) is not list:
        raise TypeError("not a record item")
    label_texts = []
    for label in labels:
        if type(label) is not dict or tuple(label) != _LABEL_KEYS:
            raise TypeError("not a label item")
        label_texts.append(
            '        {\n          "layer1": ' + _string(label["layer1"])
            + ',\n          "layer2": ' + _optional_string(label["layer2"])
            + "\n        }"
        )
    text = (
        '    {\n      "asn": ' + str(asn)
        + ',\n      "labels": '
        + ("[\n" + ",\n".join(label_texts) + "\n      ]"
           if label_texts else "[]")
        + ',\n      "stage": ' + _string(item["stage"])
        + ',\n      "domain": ' + _optional_string(item["domain"])
        + ',\n      "sources": ' + _string_list(item["sources"], "      ")
        + ',\n      "org_key": ' + _optional_string(item["org_key"])
    )
    if "degraded_sources" in item:
        text += ',\n      "degraded_sources": ' + _string_list(
            item["degraded_sources"], "      "
        )
    return text + "\n    }"


def item_json(item: Dict[str, object]) -> str:
    """One record item's text as it sits in the lossless document.

    Byte for byte ``json.dumps(item, indent=2)`` with every line
    indented four more spaces (records sit two levels deep).  Items of
    the fixed :func:`record_to_item` shape — str, int and None values
    in its key order — are built from ``encode_basestring_ascii`` and
    string joins, about 5x faster than ``json.dumps`` (which runs its
    pure-Python encoder whenever ``indent`` is set); anything else goes
    through ``json.dumps`` itself.
    """
    try:
        return _shaped_item_json(item)
    except TypeError:
        body = json.dumps(item, indent=2)
        # json escapes newlines inside values, so prefixing each line
        # re-nests the standalone dump exactly.
        return "\n".join("    " + line for line in body.splitlines())


class JsonFrame:
    """The lossless document's text around its records: :attr:`head`,
    then :meth:`record` for each record's :func:`item_json` text, then
    :meth:`tail`.  :func:`iter_json_chunks` pulls records through it
    one at a time; the snapshot store frames its texts a block at a
    time with :meth:`document` to write and digest a release."""

    head = '{\n  "format": "asdb-repro/1",\n  "records": ['

    #: Records per chunk in :meth:`document`: enough that joining and
    #: hashing run at C speed, few enough to bound each chunk's size.
    BATCH = 1024

    @classmethod
    def document(cls, texts: Iterable[str],
                 batch: int = BATCH) -> Iterator[str]:
        """The whole document around ``texts`` (:func:`item_json`
        texts, in record order) as chunks of at most ``batch`` records.

        The chunks concatenate to the bytes :meth:`record` and
        :meth:`tail` frame one text at a time; each block of texts is
        joined in one C call, and only one block is resident.
        """
        frame = cls()
        yield frame.head
        texts = iter(texts)
        while True:
            block = list(islice(texts, batch))
            if not block:
                break
            yield frame.record(",\n".join(block))
        yield frame.tail()

    def __init__(self) -> None:
        self._separator = "\n"

    def record(self, text: str) -> str:
        """The chunk carrying the next record's text."""
        chunk = self._separator + text
        self._separator = ",\n"
        return chunk

    def tail(self) -> str:
        """The document's closing chunk."""
        return "]\n}" if self._separator == "\n" else "\n  ]\n}"


def iter_json_chunks(records: Iterable[ASdbRecord]) -> Iterator[str]:
    """The lossless JSON document as a chunk stream, one record resident
    at a time.

    Concatenating the chunks yields *exactly* the bytes of
    ``json.dumps({"format": "asdb-repro/1", "records": [...]},
    indent=2)`` — :func:`dataset_to_json` is defined as that
    concatenation, so every backend that streams through here is
    byte-identical to the in-memory export by construction.  The
    snapshot store builds the same chunks through :class:`JsonFrame`
    and :func:`item_json`, hashing and writing them without ever
    materializing the document.
    """
    frame = JsonFrame()
    yield frame.head
    for record in records:
        yield frame.record(item_json(record_to_item(record)))
    yield frame.tail()


def write_json(records: Iterable[ASdbRecord], handle: IO[str]) -> int:
    """Stream the lossless JSON document to ``handle``; returns the
    number of records written."""
    written = 0

    def counted() -> Iterator[ASdbRecord]:
        nonlocal written
        for record in records:
            written += 1
            yield record

    for chunk in iter_json_chunks(counted()):
        handle.write(chunk)
    return written


def write_csv(records: Iterable[ASdbRecord], handle: IO[str]) -> None:
    """Stream the released CSV shape to ``handle``, row by row."""
    csv.writer(handle).writerows(iter_csv_rows(iter(records)))


def dataset_to_json(dataset: ASdbDataset) -> str:
    """Serialize a dataset to a JSON document (lossless)."""
    return "".join(iter_json_chunks(dataset))


def dataset_from_json(text: str) -> ASdbDataset:
    """Parse a dataset from :func:`dataset_to_json` output."""
    document = json.loads(text)
    if document.get("format") != "asdb-repro/1":
        raise ValueError(
            f"unsupported format marker {document.get('format')!r}"
        )
    dataset = ASdbDataset()
    for item in document["records"]:
        dataset.add(record_from_item(item))
    return dataset
