"""Branch-level tests for the Figure-4 pipeline using stub components.

These isolate each decision in ``repro.core.pipeline.ASdb`` - the
high-confidence ASN match, the ML-vs-sources arbitration, empty-label
handling - with hand-built sources, independent of the world simulation.
"""

from typing import Dict, Optional

import pytest

from repro.core import ASdb, Stage
from repro.datasources.base import DataSource, Query, SourceEntry, SourceMatch
from repro.matching.domains import DomainFrequencyIndex
from repro.matching.resolver import EntityResolver
from repro.ml.pipeline import ClassifierVerdict
from repro.taxonomy import Label, LabelSet
from repro.web import Page, WebUniverse, Website
from repro.whois import WhoisFacts, WhoisRegistry, render
from repro.whois.records import RIR


class StubSource(DataSource):
    """Returns a fixed match for every query (or None)."""

    def __init__(self, name, labels=None, domain=None, native=(),
                 by_asn=False):
        self.name = name
        self._labels = labels
        self._domain = domain
        self._native = native
        self._by_asn = by_asn

    def lookup(self, query: Query) -> Optional[SourceMatch]:
        if self._labels is None:
            return None
        if self._by_asn and query.asn is None:
            return None
        entry = SourceEntry(
            entity_id=f"{self.name}-1",
            org_id="org-stub",
            name="Stub Org",
            domain=self._domain,
            native_categories=self._native,
            labels=self._labels,
        )
        return SourceMatch(source=self.name, entry=entry)


class StubML:
    """A fake trained pipeline with a fixed verdict."""

    def __init__(self, is_isp=False, is_hosting=False, scraped=True):
        self._verdict = dict(
            is_isp=is_isp, is_hosting=is_hosting, scraped=scraped
        )
        self.calls = 0

    def classify_domain(self, domain):
        self.calls += 1
        return ClassifierVerdict(
            domain=domain,
            scraped=self._verdict["scraped"],
            is_isp=self._verdict["is_isp"],
            is_hosting=self._verdict["is_hosting"],
            isp_score=0.9 if self._verdict["is_isp"] else 0.1,
            hosting_score=0.9 if self._verdict["is_hosting"] else 0.1,
        )

    def classify_domains(self, domains):
        return [self.classify_domain(domain) for domain in domains]


def _registry_with_one_as(asn=65001, domain="stub.example"):
    registry = WhoisRegistry()
    facts = WhoisFacts(
        asn=asn,
        as_name="STUB-AS",
        org_name="Stub Org",
        emails=(f"abuse@{domain}",),
        country="US",
    )
    registry.register(render(facts, RIR.ARIN))
    return registry


def _web_with(domain="stub.example"):
    web = WebUniverse()
    web.add(Website(domain=domain,
                    homepage=Page(title="Stub Org - Home", text="words")))
    return web


def _build(
    peeringdb=None,
    ipinfo=None,
    identifier_sources=(),
    ml=None,
    asn=65001,
):
    registry = _registry_with_one_as(asn=asn)
    web = _web_with()
    resolver = EntityResolver(
        web, DomainFrequencyIndex(), list(identifier_sources)
    )
    return ASdb(
        registry=registry,
        resolver=resolver,
        peeringdb=peeringdb or StubSource("peeringdb", None),
        ipinfo=ipinfo or StubSource("ipinfo", None),
        ml_pipeline=ml,
    )


ISP = LabelSet.from_layer2_slugs(["isp"])
HOSTING = LabelSet.from_layer2_slugs(["hosting"])
BANKS = LabelSet.from_layer2_slugs(["banks"])


class TestStage1HighConfidence:
    def test_peeringdb_isp_short_circuits(self):
        pdb = StubSource("peeringdb", ISP, native=("Cable/DSL/ISP",),
                         by_asn=True)
        dnb = StubSource("dnb", BANKS)
        asdb = _build(peeringdb=pdb, identifier_sources=[dnb])
        record = asdb.classify(65001)
        assert record.stage is Stage.MATCHED_BY_ASN
        assert record.labels == ISP
        assert record.sources == ("peeringdb",)

    def test_peeringdb_non_isp_does_not_short_circuit(self):
        content = LabelSet.from_layer2_slugs(["streaming"])
        pdb = StubSource("peeringdb", content, by_asn=True)
        dnb = StubSource("dnb", BANKS)
        asdb = _build(peeringdb=pdb, identifier_sources=[dnb])
        record = asdb.classify(65001)
        assert record.stage is not Stage.MATCHED_BY_ASN
        # PeeringDB's labels still join the consensus pool.
        assert record.stage is Stage.MULTI_DISAGREE

    def test_ipinfo_never_short_circuits(self):
        ipinfo = StubSource("ipinfo", ISP, by_asn=True)
        asdb = _build(ipinfo=ipinfo)
        record = asdb.classify(65001)
        assert record.stage is Stage.ONE_SOURCE
        assert record.labels == ISP


class TestMLArbitration:
    def test_classifier_fires_without_sources(self):
        asdb = _build(ml=StubML(is_isp=True))
        record = asdb.classify(65001)
        assert record.stage is Stage.CLASSIFIER
        assert record.labels == ISP
        assert "classifier" in record.sources

    def test_agreeing_sources_override_classifier(self):
        # Section 5.2: hosting flagged by the classifier but marked
        # non-hosting by >= 2 agreeing sources -> the sources win.
        dnb = StubSource("dnb", BANKS)
        zvelo = StubSource("zvelo", BANKS)
        asdb = _build(identifier_sources=[dnb, zvelo],
                      ml=StubML(is_hosting=True))
        record = asdb.classify(65001)
        assert record.stage is Stage.MULTI_AGREE
        assert record.labels == BANKS

    def test_supporting_source_unions_with_classifier(self):
        dnb = StubSource("dnb", LabelSet.from_layer2_slugs(
            ["isp", "phone_provider"]))
        asdb = _build(identifier_sources=[dnb], ml=StubML(is_isp=True))
        record = asdb.classify(65001)
        assert record.stage is Stage.CLASSIFIER
        assert record.labels.layer2_slugs() == {"isp", "phone_provider"}
        assert set(record.sources) == {"classifier", "dnb"}

    def test_disagreeing_single_source_loses_to_classifier(self):
        dnb = StubSource("dnb", BANKS)
        asdb = _build(identifier_sources=[dnb], ml=StubML(is_isp=True))
        record = asdb.classify(65001)
        assert record.stage is Stage.CLASSIFIER
        assert record.labels == ISP

    def test_unscraped_verdict_is_no_information(self):
        asdb = _build(ml=StubML(is_isp=True, scraped=False))
        record = asdb.classify(65001)
        assert record.stage is Stage.ZERO_SOURCES
        assert not record.labels

    def test_ml_skipped_without_domain(self):
        ml = StubML(is_isp=True)
        registry = WhoisRegistry()
        facts = WhoisFacts(asn=65002, as_name="NODOMAIN-AS",
                           org_name="No Domain Org")
        registry.register(render(facts, RIR.ARIN))
        resolver = EntityResolver(
            WebUniverse(), DomainFrequencyIndex(), []
        )
        asdb = ASdb(
            registry=registry,
            resolver=resolver,
            peeringdb=StubSource("peeringdb", None),
            ipinfo=StubSource("ipinfo", None),
            ml_pipeline=ml,
        )
        record = asdb.classify(65002)
        assert ml.calls == 0
        assert record.stage is Stage.ZERO_SOURCES


class TestEmptyLabelHandling:
    def test_ipinfo_business_is_not_a_source(self):
        # IPinfo "business" translates to no NAICSlite labels; it must
        # not count toward the source tally.
        business = StubSource("ipinfo", LabelSet(), by_asn=True)
        dnb = StubSource("dnb", BANKS)
        asdb = _build(ipinfo=business, identifier_sources=[dnb])
        record = asdb.classify(65001)
        assert record.stage is Stage.ONE_SOURCE
        assert record.sources == ("dnb",)

    def test_nothing_anywhere_is_zero_sources(self):
        asdb = _build()
        record = asdb.classify(65001)
        assert record.stage is Stage.ZERO_SOURCES
        assert not record.classified


class TestDomainHints:
    def test_ipinfo_domain_hint_fills_whois_gap(self):
        # WHOIS has no domain, but IPinfo publishes one; the hint makes
        # the ML stage reachable.
        registry = WhoisRegistry()
        facts = WhoisFacts(asn=65003, as_name="HINTED-AS",
                           org_name="Hinted Org")
        registry.register(render(facts, RIR.ARIN))
        web = _web_with("hinted.example")
        ipinfo = StubSource(
            "ipinfo", LabelSet(), domain="hinted.example", by_asn=True
        )
        ml = StubML(is_isp=True)
        resolver = EntityResolver(web, DomainFrequencyIndex(), [])
        asdb = ASdb(
            registry=registry,
            resolver=resolver,
            peeringdb=StubSource("peeringdb", None),
            ipinfo=ipinfo,
            ml_pipeline=ml,
        )
        record = asdb.classify(65003)
        assert ml.calls == 1
        assert record.domain == "hinted.example"
        assert record.stage is Stage.CLASSIFIER
