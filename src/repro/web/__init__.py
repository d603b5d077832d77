"""Web substrate: synthetic websites, languages, translation, scraping.

Stands in for the live web + Google Translate that the paper's ML pipeline
depends on.  The :class:`WebUniverse` holds generated sites; the
:class:`Scraper` implements the Figure-3 keyword-link-following scrape as
one batch fetch (``gather_many``, yielding :class:`RawScrape` records) and
one batch translate (``translate_texts``); the :mod:`translate` module
inverts the synthetic language ciphers.
"""

from .corpus import FILLER_WORDS, UNINFORMATIVE_TEXT, category_text
from .language import ENGLISH, LANGUAGES, Language, by_code, encode_text
from .scraper import RawScrape, Scraper
from .site import Link, Page, Website, WebUniverse
from .sitegen import SiteTraits, generate_site
from .translate import TranslationResult, detect_language, translate_to_english

__all__ = [
    "Page",
    "Link",
    "Website",
    "WebUniverse",
    "SiteTraits",
    "generate_site",
    "Scraper",
    "RawScrape",
    "Language",
    "LANGUAGES",
    "ENGLISH",
    "by_code",
    "encode_text",
    "detect_language",
    "translate_to_english",
    "TranslationResult",
    "category_text",
    "FILLER_WORDS",
    "UNINFORMATIVE_TEXT",
]
