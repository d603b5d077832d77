"""Common interfaces for external data sources (Table 1).

Every source - business database, networking database, or website
classifier - exposes the same contract: given a :class:`Query` (the
identifiers ASdb extracted from WHOIS), return a :class:`SourceMatch` or
None.  A match carries the source's *native* categories plus their
NAICSlite translation, and the entity the source believes it matched -
which may be the wrong one (entity disagreement, Section 3.4/3.5).

The module also carries the Table-1 catalogue of source attributes, which
the Table-1 benchmark renders.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..taxonomy import LabelSet

__all__ = [
    "Query",
    "SourceEntry",
    "SourceMatch",
    "DataSource",
    "lookup_outcomes",
    "SourceAttributes",
    "SOURCE_CATALOG",
]


@dataclass(frozen=True)
class Query:
    """The identifiers available when looking up an AS's organization.

    All fields are optional because WHOIS data is variably complete
    (Section 3.1).  ``asn`` is only usable by the networking sources.
    """

    name: Optional[str] = None
    domain: Optional[str] = None
    address: Optional[str] = None
    phone: Optional[str] = None
    asn: Optional[int] = None


@dataclass(frozen=True)
class SourceEntry:
    """One record inside a data source's directory.

    Attributes:
        entity_id: The source's identifier for the organization (e.g. a
            DUNS number for D&B).
        org_id: Ground-truth organization this entry actually describes
            (used by the evaluation harness, never by the pipeline).
        name: Organization name as the source knows it.
        domain: Domain the source associates with the organization.
        native_categories: The source's own category codes/names.
        labels: The NAICSlite translation of ``native_categories``.
    """

    entity_id: str
    org_id: str
    name: str
    domain: Optional[str]
    native_categories: Tuple[str, ...]
    labels: LabelSet


@dataclass(frozen=True)
class SourceMatch:
    """The outcome of a successful lookup.

    Attributes:
        source: Source name (e.g. ``"dnb"``).
        entry: The directory entry returned.
        confidence: Source-specific match confidence (D&B's 1-10 code).
        via: How the match was found (``"asn"``, ``"domain"``, ``"name"``,
            ``"identifiers"``) - used in evaluation breakdowns.
    """

    source: str
    entry: SourceEntry
    confidence: Optional[int] = None
    via: str = "identifiers"

    @property
    def labels(self) -> LabelSet:
        """NAICSlite labels of the matched entry."""
        return self.entry.labels


class DataSource(abc.ABC):
    """Abstract external data source."""

    #: Source name used in reports and consensus ranking.
    name: str = "abstract"

    @abc.abstractmethod
    def lookup(self, query: Query) -> Optional[SourceMatch]:
        """Automated lookup: resolve ``query`` to an entry, or None.

        This is the path the deployed pipeline uses; it is allowed to
        return the *wrong* entity, modeling real matching errors.
        """

    def lookup_many(
        self, queries: Sequence[Query]
    ) -> List[Optional[SourceMatch]]:
        """Bulk lookup: one result slot per query, in query order.

        Contract: elementwise identical to calling :meth:`lookup` per
        query — batching is purely a throughput optimization, never a
        semantic one.  The default loops; sources with indexable
        directories override with single-pass scans, and Zvelo overrides
        with a batched fetch/translate/score pass.
        """
        return [self.lookup(query) for query in queries]

    def lookup_by_org(self, org_id: str) -> Optional[SourceMatch]:
        """Manual-verification lookup: the entry for a known organization.

        Models the researchers' hand lookups used to evaluate coverage and
        recall (Section 3.2: "ask researchers to manually look up ASes in
        each candidate data source").  Returns None when the source simply
        has no (classified) entry for the organization.

        Sources that cannot be indexed by organization (e.g. pure website
        classifiers) override this with their own semantics.
        """
        raise NotImplementedError(
            f"data source {self.name!r} is not indexable by organization"
        )

    def coverage_count(self) -> int:
        """Number of classified entries in the directory (0 if unknown)."""
        return 0


def lookup_outcomes(
    source, queries: Sequence[Query]
) -> List[Tuple[Optional[SourceMatch], bool]]:
    """``(match, failed)`` for each query, from one bulk call: the one
    failure rule for sources.

    A source with ``try_lookup_many`` (the resilience layer's
    ``ResilientSource``) reports each query it could not answer as
    failed, and the pipeline records it as a degraded source; any other
    source's exception propagates.
    """
    if hasattr(source, "try_lookup_many"):
        return [
            (outcome.match, outcome.failed)
            for outcome in source.try_lookup_many(queries)
        ]
    return [(match, False) for match in source.lookup_many(queries)]


@dataclass(frozen=True)
class SourceAttributes:
    """Table-1 attributes of a candidate data source."""

    name: str
    display_name: str
    group: str  # "Business DB" | "Networking" | "Website Class"
    searchable_by: Tuple[str, ...]  # N, W, L, A
    has_name: bool
    industry_scheme: str
    has_domain: bool
    access: str  # "Paid" | "Free"
    used_by_asdb: bool


SOURCE_CATALOG: Tuple[SourceAttributes, ...] = (
    SourceAttributes("dnb", "D&B", "Business DB", ("N", "W", "L"), True,
                     "NAICS", True, "Paid", True),
    SourceAttributes("crunchbase", "Crunchbase", "Business DB", ("N", "W"),
                     True, "Custom", True, "Free", True),
    SourceAttributes("zoominfo", "ZoomInfo", "Business DB", ("N", "W", "L"),
                     True, "NAICS", True, "Paid", False),
    SourceAttributes("clearbit", "Clearbit", "Business DB", ("W",), True,
                     "NAICS*", True, "Paid", False),
    SourceAttributes("peeringdb", "PeeringDB", "Networking", ("A",), True,
                     "Custom", True, "Free", True),
    SourceAttributes("ipinfo", "IPinfo", "Networking", ("A",), True,
                     "Custom", True, "Paid", True),
    SourceAttributes("zvelo", "Zvelo", "Website Class", ("W",), False,
                     "Custom", True, "Paid", True),
)
