"""Ground-truth model of AS-owning organizations.

The synthetic world is the reproduction's stand-in for "the Internet":
a population of organizations with known (ground-truth) NAICSlite
categories, each owning one or more Autonomous Systems, with WHOIS records,
websites, and presence in external business databases.  Everything the
pipeline later infers is measured against this ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..taxonomy import LabelSet
from ..web.site import WebUniverse
from ..whois.records import RIR
from ..whois.registry import WhoisRegistry

__all__ = ["Organization", "ASInfo", "World"]


@dataclass(frozen=True)
class Organization:
    """One AS-owning organization with ground truth attached.

    Attributes:
        org_id: Stable unique identifier.
        name: Canonical organization name.
        truth: Ground-truth NAICSlite labels.  Usually a single layer 2
            category; multi-service technology companies (e.g. ISP+hosting)
            carry several, reproducing the paper's "nuanced disagreement".
        country: ISO-3166 alpha-2 country code.
        city: Headquarters city.
        address: Street address.
        phone: Contact phone number.
        domain: The organization's canonical domain, or None for the 17% of
            hosting providers (and others) without one.
        email_domains: Domains appearing in the org's contact emails; may
            include third-party mail providers like gmail.
        has_website: Whether a working website exists at ``domain``.
        is_startup: Drives Crunchbase's startup-skewed coverage.
        employees: Headcount (firmographic flavor for business DBs).
        founded_year: Founding year.
    """

    org_id: str
    name: str
    truth: LabelSet
    country: str
    city: str
    address: str
    phone: str
    domain: Optional[str] = None
    email_domains: Tuple[str, ...] = ()
    has_website: bool = True
    is_startup: bool = False
    employees: int = 50
    founded_year: int = 2000

    @property
    def is_tech(self) -> bool:
        """Whether the ground truth is a technology category."""
        return self.truth.is_tech

    @property
    def primary_layer2(self) -> Optional[str]:
        """The first (sorted) ground-truth layer 2 slug, if any."""
        slugs = sorted(self.truth.layer2_slugs())
        return slugs[0] if slugs else None


@dataclass(frozen=True)
class ASInfo:
    """One Autonomous System and its owner.

    Attributes:
        asn: The AS number.
        org_id: Owning organization's id.
        rir: The registry the AS is registered with.
        as_name: The registered AS handle.
    """

    asn: int
    org_id: str
    rir: RIR
    as_name: str


class World:
    """The complete synthetic universe the pipeline runs against.

    Holds organizations, their ASes, the bulk WHOIS registry (raw text the
    pipeline must parse), and the web universe (sites the scraper visits).
    External data-source simulators are constructed *from* a world, so all
    components observe one consistent reality.
    """

    def __init__(self) -> None:
        self.organizations: Dict[str, Organization] = {}
        self.ases: Dict[int, ASInfo] = {}
        self.registry = WhoisRegistry()
        self.web = WebUniverse()

    # -- population ---------------------------------------------------------

    def add_organization(self, org: Organization) -> None:
        """Register an organization (id must be fresh)."""
        if org.org_id in self.organizations:
            raise ValueError(f"duplicate org_id {org.org_id}")
        self.organizations[org.org_id] = org

    def add_as(self, info: ASInfo) -> None:
        """Attach an AS to an existing organization."""
        if info.asn in self.ases:
            raise ValueError(f"duplicate ASN {info.asn}")
        if info.org_id not in self.organizations:
            raise KeyError(f"unknown org {info.org_id}")
        self.ases[info.asn] = info

    # -- ground-truth queries ----------------------------------------------

    def org_of_asn(self, asn: int) -> Organization:
        """The owning organization of an AS."""
        return self.organizations[self.ases[asn].org_id]

    def truth(self, asn: int) -> LabelSet:
        """Ground-truth NAICSlite labels for an AS."""
        return self.org_of_asn(asn).truth

    def asns(self) -> List[int]:
        """All ASNs, ascending."""
        return sorted(self.ases)

    def asns_of_org(self, org_id: str) -> List[int]:
        """All ASNs owned by one organization."""
        return sorted(
            asn for asn, info in self.ases.items() if info.org_id == org_id
        )

    def iter_organizations(self) -> Iterator[Organization]:
        """Organizations in org_id order."""
        for org_id in sorted(self.organizations):
            yield self.organizations[org_id]

    def __len__(self) -> int:
        return len(self.ases)
