"""The web scraper feeding the ML classification pipeline (Figure 3).

The paper's scraper fetches the root page of an organization's domain and,
because service descriptions often live on inner pages, follows up to five
internal links whose link titles contain a curated keyword list.  Scraped
text is then translated to English before featurization.

This implementation mirrors that design against the synthetic
:class:`~repro.web.site.WebUniverse`.  The failure modes are faithful:

* unreachable domains scrape to nothing;
* pages whose text lives in images contribute nothing;
* informative pages behind non-keyword link titles are never visited
  (the paper attributes 67% of ML false negatives to this).

The scraper has one fetch call, :meth:`Scraper.gather_many`, and one
translate call, :meth:`Scraper.translate_texts`.  Training and
classification both go through them, and each is elementwise
deterministic, so a domain's text does not depend on its batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..taxonomy.keywords import SCRAPER_LINK_KEYWORDS
from .site import WebUniverse
from .translate import translate_many

__all__ = ["RawScrape", "Scraper"]

#: Maximum internal pages visited per site (Figure 3: "up to five").
MAX_INTERNAL_PAGES = 5


@dataclass(frozen=True)
class RawScrape:
    """One domain's fetch *before* the translation stage.

    The ML pipeline's content-addressed cache keys on this raw text, so
    it gathers first, consults the cache, and only pays for translation
    (via :meth:`Scraper.translate_texts`) on digest misses.

    Attributes:
        domain: The domain fetched.
        reachable: Whether the site answered at all.
        raw_text: Concatenated untranslated text from visited pages.
        pages_visited: Titles of the pages visited, homepage first.
    """

    domain: str
    reachable: bool
    raw_text: str
    pages_visited: Tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        """Whether nothing useful was fetched.

        Translation of a non-empty text is never empty (and vice
        versa), so this also says whether the translated text is empty.
        """
        return not self.raw_text.strip()


def _link_matches_keywords(title: str) -> bool:
    tokens = set(title.lower().replace("-", " ").split())
    return any(keyword in tokens for keyword in SCRAPER_LINK_KEYWORDS)


class Scraper:
    """Keyword-link-following scraper over a :class:`WebUniverse`.

    Links are selected by the paper's Figure-3 keyword list
    (:data:`~repro.taxonomy.keywords.SCRAPER_LINK_KEYWORDS`), at most
    :data:`MAX_INTERNAL_PAGES` per site.

    Args:
        universe: The web to scrape.
        translate: Whether to run the translation stage (the ML ablation
            bench turns this off).
        follow_internal_links: Whether to visit keyword-linked inner
            pages (the ML ablation bench turns this off).
        metrics: Optional metrics registry; emits per-batch scrape
            latency and per-outcome scrape counters.
    """

    def __init__(
        self,
        universe: WebUniverse,
        translate: bool = True,
        follow_internal_links: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._universe = universe
        self._translate = translate
        self._follow_internal_links = follow_internal_links
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_scrapes = registry.counter(
            "asdb_scrapes_total",
            "Scrape attempts by outcome.",
            ("outcome",),
        )
        for outcome in ("ok", "empty", "unreachable"):
            self._m_scrapes.inc(0, outcome=outcome)
        self._m_batch_seconds = registry.histogram(
            "asdb_scrape_batch_seconds",
            "Bulk scrape latency per batch (fetch + batched translate).",
        )

    def gather_many(self, domains: Sequence[str]) -> List[RawScrape]:
        """Fetch each domain's root page and keyword-linked inner pages,
        without translating (see :class:`RawScrape`).  Batch latency
        lands in ``asdb_scrape_batch_seconds``, and the outcome counters
        tick once per domain."""
        start = time.perf_counter()
        results = []
        for domain in domains:
            reachable, raw, visited = self._gather(domain)
            results.append(
                RawScrape(
                    domain=domain,
                    reachable=reachable,
                    raw_text=raw,
                    pages_visited=visited,
                )
            )
        self._m_batch_seconds.observe(time.perf_counter() - start)
        for result in results:
            self._m_scrapes.inc(
                1,
                outcome="unreachable" if not result.reachable
                else "empty" if result.empty
                else "ok",
            )
        return results

    def translate_texts(self, texts: Sequence[str]) -> List[str]:
        """Translate raw scraped texts to English in one batch
        (elementwise deterministic); a no-op passthrough when the
        scraper's translation stage is disabled."""
        out = list(texts)
        if not self._translate:
            return out
        positions = [index for index, text in enumerate(out) if text]
        translations = translate_many([out[index] for index in positions])
        for index, result in zip(positions, translations):
            out[index] = result.text
        return out

    def _gather(
        self, domain: str
    ) -> Tuple[bool, str, Tuple[str, ...]]:
        """Fetch one site's raw (untranslated) text.

        Returns ``(reachable, raw_text, pages_visited)``.
        """
        site = self._universe.fetch(domain)
        if site is None:
            return False, "", ()

        chunks: List[str] = []
        visited: List[str] = [site.homepage.title]
        root_text = site.homepage.scrapable_text
        if root_text:
            chunks.append(root_text)

        if self._follow_internal_links:
            followed = 0
            for link in site.links:
                if followed >= MAX_INTERNAL_PAGES:
                    break
                if not _link_matches_keywords(link.title):
                    continue
                followed += 1
                visited.append(link.page.title)
                inner_text = link.page.scrapable_text
                if inner_text:
                    chunks.append(inner_text)

        return True, " ".join(chunks), tuple(visited)
