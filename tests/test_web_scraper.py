"""Tests for site generation and the keyword-link-following scraper."""

import random
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.web import (
    Link,
    Page,
    Scraper,
    SiteTraits,
    WebUniverse,
    Website,
    by_code,
    generate_site,
)
from repro.web.translate import translate_many


def _universe_with(site):
    universe = WebUniverse()
    universe.add(site)
    return universe


@dataclass(frozen=True)
class _Scraped:
    reachable: bool
    raw_text: str
    text: str
    pages_visited: Tuple[str, ...]

    @property
    def empty(self):
        return not self.text.strip()


def _scrape(scraper, domain):
    """One domain through the scraper's batch calls: fetch, then
    translate."""
    raw = scraper.gather_many([domain])[0]
    text = scraper.translate_texts([raw.raw_text])[0]
    return _Scraped(raw.reachable, raw.raw_text, text, raw.pages_visited)


def _simple_site(domain="acme.net", link_title="About Us",
                 inner_text="hosting cloud server", home_text="welcome home"):
    inner = Page(title=link_title, text=inner_text)
    home = Page(title="Acme - Home", text=home_text)
    return Website(
        domain=domain, homepage=home, links=(Link(link_title, inner),)
    )


class TestScraper:
    def test_scrapes_homepage(self):
        universe = _universe_with(_simple_site())
        result = _scrape(Scraper(universe), "acme.net")
        assert result.reachable
        assert "welcome home" in result.text

    def test_follows_keyword_links(self):
        universe = _universe_with(_simple_site(link_title="Our Services"))
        result = _scrape(Scraper(universe), "acme.net")
        assert "hosting" in result.text
        assert "Our Services" in result.pages_visited

    def test_skips_non_keyword_links(self):
        universe = _universe_with(_simple_site(link_title="Press Releases"))
        result = _scrape(Scraper(universe), "acme.net")
        assert "hosting" not in result.text
        assert "Press Releases" not in result.pages_visited

    def test_unreachable_domain(self):
        universe = WebUniverse()
        result = _scrape(Scraper(universe), "nosuch.example")
        assert not result.reachable
        assert result.empty

    def test_down_domain(self):
        universe = _universe_with(_simple_site())
        universe.mark_down("acme.net")
        result = _scrape(Scraper(universe), "acme.net")
        assert not result.reachable

    def test_max_internal_pages_respected(self):
        links = tuple(
            Link(f"Our Services {i}", Page(f"Our Services {i}", f"word{i}"))
            for i in range(8)
        )
        site = Website(
            domain="big.net",
            homepage=Page("Big - Home", "home"),
            links=links,
        )
        result = _scrape(Scraper(_universe_with(site)), "big.net")
        # Homepage + at most five internal pages (Figure 3).
        assert len(result.pages_visited) <= 6

    def test_text_in_images_yields_nothing(self):
        home = Page("Pix - Home", "hidden words", text_in_images=True)
        site = Website(domain="pix.net", homepage=home)
        result = _scrape(Scraper(_universe_with(site)), "pix.net")
        assert result.reachable
        assert result.empty

    def test_translation_applied(self):
        lang = by_code("xa")
        home = Page(
            "Foreign - Home",
            " ".join(lang.encode_word(w) for w in
                     ["hosting", "cloud", "server", "uptime", "rack"]),
        )
        site = Website(domain="foreign.net", homepage=home,
                       language_code="xa")
        result = _scrape(Scraper(_universe_with(site)), "foreign.net")
        assert "hosting" in result.text
        [translation] = translate_many([result.raw_text])
        assert translation.detected.code == "xa"

    def test_translation_can_be_disabled(self):
        lang = by_code("xa")
        home = Page(
            "Foreign - Home",
            " ".join(lang.encode_word(w) for w in
                     ["hosting", "cloud", "server", "uptime", "rack"]),
        )
        site = Website(domain="foreign.net", homepage=home)
        result = _scrape(
            Scraper(_universe_with(site), translate=False), "foreign.net"
        )
        assert "hosting" not in result.text

    def test_internal_link_following_can_be_disabled(self):
        universe = _universe_with(_simple_site(link_title="Our Services"))
        result = _scrape(
            Scraper(universe, follow_internal_links=False), "acme.net"
        )
        assert "hosting" not in result.text


class TestSiteGenerator:
    def _gen(self, traits=SiteTraits(), slug="hosting", seed=11):
        return generate_site(
            random.Random(seed), "Acme Hosting", "acme.net", slug, traits
        )

    def test_homepage_title_echoes_org_name(self):
        site = self._gen()
        assert "Acme Hosting" in site.homepage.title

    def test_generated_site_scrapes_category_keywords(self):
        site = self._gen()
        result = _scrape(Scraper(_universe_with(site)), "acme.net")
        tokens = set(result.text.split())
        assert tokens & {"hosting", "cloud", "server", "colocation",
                         "uptime", "vps", "datacenter"}

    def test_uninformative_site(self):
        site = self._gen(SiteTraits(uninformative=True))
        result = _scrape(Scraper(_universe_with(site)), "acme.net")
        assert "hosting" not in result.text
        assert "server" in result.text  # "...default web page for this server"

    def test_hidden_info_defeats_scraper(self):
        site = self._gen(SiteTraits(hidden_info=True), seed=3)
        result = _scrape(Scraper(_universe_with(site)), "acme.net")
        hidden_page_titles = {
            "Portfolio", "Blog", "Press Releases", "Investors",
            "Legal Notices",
        }
        assert not (set(result.pages_visited) & hidden_page_titles)
        # The informative page exists on the site, though.
        assert any(link.title in hidden_page_titles for link in site.links)

    def test_text_in_images_trait(self):
        site = self._gen(SiteTraits(text_in_images=True))
        result = _scrape(Scraper(_universe_with(site)), "acme.net")
        assert result.empty

    def test_non_english_site_roundtrips(self):
        lang = by_code("xb")
        site = self._gen(SiteTraits(language=lang))
        assert site.language_code == "xb"
        result = _scrape(Scraper(_universe_with(site)), "acme.net")
        tokens = set(result.text.split())
        assert tokens & {"hosting", "cloud", "server", "colocation",
                         "uptime", "vps", "datacenter"}

    def test_misleading_keywords_injected(self):
        site = self._gen(
            SiteTraits(misleading_keywords=("cloud", "computing")),
            slug="research",
        )
        result = _scrape(Scraper(_universe_with(site)), "acme.net")
        assert "cloud" in result.text.split()

    def test_deterministic(self):
        a = self._gen(seed=5)
        b = self._gen(seed=5)
        assert a.homepage.text == b.homepage.text
        assert [l.title for l in a.links] == [l.title for l in b.links]
