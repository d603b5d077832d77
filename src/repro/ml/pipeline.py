"""The Figure-3 ML classification pipeline.

``URL -> scrape (root + keyword-linked inner pages) -> translate to English
-> CountVectorizer -> TF-IDF -> SGD classifier ensemble -> {ISP?, Hosting?}``

Two binary classifiers are trained - one for hosting providers, one for
ISPs - because these are the two largest AS categories and the ones the
business databases misclassify the most (Section 4.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..web.scraper import RawScrape, Scraper
from .featcache import FeatureCache, content_digest
from .sgd import SGDClassifier
from .tfidf import TfidfTransformer
from .vectorize import CountVectorizer

__all__ = [
    "TrainingExample",
    "ClassifierVerdict",
    "TextScorer",
    "WebClassificationPipeline",
]


@dataclass(frozen=True)
class TrainingExample:
    """One labeled website for pipeline training.

    Attributes:
        domain: The site's domain.
        is_isp: Ground-truth ISP flag.
        is_hosting: Ground-truth hosting flag.
    """

    domain: str
    is_isp: bool
    is_hosting: bool


@dataclass(frozen=True)
class ClassifierVerdict:
    """Pipeline output for one domain.

    Attributes:
        domain: The classified domain.
        scraped: Whether any text was obtained; when False the flags are
            vacuously False and scores are 0.5 (no information).
        is_isp / is_hosting: Binary decisions.
        isp_score / hosting_score: Ensemble-mean positive probabilities.
    """

    domain: str
    scraped: bool
    is_isp: bool = False
    is_hosting: bool = False
    isp_score: float = 0.5
    hosting_score: float = 0.5


class _BinaryEnsemble:
    """A small bag of SGD classifiers differing only in shuffling seed."""

    def __init__(self, size: int, loss: str, seed: int) -> None:
        self._members = [
            SGDClassifier(loss=loss, seed=seed + index, epochs=15)
            for index in range(size)
        ]

    def fit(self, features, labels) -> None:
        for member in self._members:
            member.fit(features, labels)

    def scores(self, features) -> np.ndarray:
        stacked = np.vstack(
            [member.predict_proba(features) for member in self._members]
        )
        return stacked.mean(axis=0)


class TextScorer:
    """The pipeline's frozen scoring head: translated text -> scores.

    Holds only fitted model state (vocabulary dict, IDF vector, SGD
    weights).  The scalar and batch paths both score through this one
    ``score`` method, and every transform in it is row-independent, so
    a text's scores do not depend on what else was in its batch.
    """

    __slots__ = ("_vectorizer", "_tfidf", "_isp", "_hosting")

    def __init__(self, vectorizer, tfidf, isp, hosting) -> None:
        self._vectorizer = vectorizer
        self._tfidf = tfidf
        self._isp = isp
        self._hosting = hosting

    def score(self, texts: Sequence[str]) -> List[Tuple[float, float]]:
        """Per-text ``(isp_score, hosting_score)`` ensemble means."""
        counts = self._vectorizer.transform(texts)
        features = (
            counts if self._tfidf is None else self._tfidf.transform(counts)
        )
        isp_scores = self._isp.scores(features)
        hosting_scores = self._hosting.scores(features)
        return [
            (float(isp), float(hosting))
            for isp, hosting in zip(isp_scores, hosting_scores)
        ]


class WebClassificationPipeline:
    """End-to-end website classifier for ISPs and hosting providers.

    Args:
        scraper: The scraper to fetch site text with (carries its own
            translation and link-following configuration, which the
            ablation benches vary).
        max_features: Vocabulary cap for the CountVectorizer.
        ensemble_size: Number of SGD members per binary classifier.
        use_tfidf: Disable to feed raw counts to the classifiers (ablation).
        seed: Training seed.
        decision_threshold: Probability above which a flag is set.
        metrics: Optional metrics registry; emits per-domain
            classification latency and verdict-outcome counters.
    """

    def __init__(
        self,
        scraper: Scraper,
        max_features: int = 4000,
        ensemble_size: int = 3,
        use_tfidf: bool = True,
        seed: int = 0,
        decision_threshold: float = 0.5,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._scraper = scraper
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_classify_seconds = registry.histogram(
            "asdb_ml_classify_seconds",
            "Scrape+classify latency per domain.",
        )
        self._m_verdicts = registry.counter(
            "asdb_ml_verdicts_total",
            "ML pipeline verdicts by outcome.",
            ("outcome",),
        )
        for outcome in (
            "unscraped", "isp", "hosting", "isp+hosting", "negative"
        ):
            self._m_verdicts.inc(0, outcome=outcome)
        self._m_batch_seconds = registry.histogram(
            "asdb_ml_batch_seconds",
            "Batch scrape+classify latency per classify_domains call.",
        )
        self._m_batch_size = registry.histogram(
            "asdb_ml_batch_size",
            "Domains per classify_domains call.",
            buckets=(1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000),
        )
        self._m_featcache = registry.counter(
            "asdb_featcache_lookups_total",
            "Content-addressed score-cache lookups by outcome.",
            ("outcome",),
        )
        for outcome in ("hit", "miss"):
            self._m_featcache.inc(0, outcome=outcome)
        self._m_featcache_size = registry.gauge(
            "asdb_featcache_size",
            "Entries in the content-addressed score cache.",
        )
        self._featcache = FeatureCache()
        self._scorer: Optional[TextScorer] = None
        self._vectorizer = CountVectorizer(
            min_df=2, max_features=max_features
        )
        self._tfidf = TfidfTransformer() if use_tfidf else None
        self._isp = _BinaryEnsemble(ensemble_size, loss="log", seed=seed)
        self._hosting = _BinaryEnsemble(
            ensemble_size, loss="log", seed=seed + 1000
        )
        self._threshold = decision_threshold
        self._fitted = False

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._fitted

    @property
    def feature_cache(self) -> FeatureCache:
        """The content-addressed score cache (hit/miss stats, clear)."""
        return self._featcache

    def fit(self, examples: Sequence[TrainingExample]) -> "WebClassificationPipeline":
        """Scrape and train on labeled domains.

        Unscrapable training sites are dropped (they carry no text signal),
        mirroring the paper's practice of training on scraped text.
        """
        texts: List[str] = []
        isp_labels: List[bool] = []
        hosting_labels: List[bool] = []
        for example in examples:
            result = self._scraper.scrape(example.domain)
            if result.empty:
                continue
            texts.append(result.text)
            isp_labels.append(example.is_isp)
            hosting_labels.append(example.is_hosting)
        if not texts:
            raise ValueError("no scrapable training examples")
        features = self._vectorizer.fit_transform(texts)
        if self._tfidf is not None:
            features = self._tfidf.fit_transform(features)
        self._isp.fit(features, isp_labels)
        self._hosting.fit(features, hosting_labels)
        self._fitted = True
        self._scorer = TextScorer(
            self._vectorizer, self._tfidf, self._isp, self._hosting
        )
        # New weights invalidate every memoized score.
        self._featcache.clear()
        return self

    def classify_text(self, domain: str, text: str) -> ClassifierVerdict:
        """Classify already-scraped (translated) text."""
        if not self._fitted:
            raise RuntimeError("pipeline is not fitted")
        if not text.strip():
            return ClassifierVerdict(domain=domain, scraped=False)
        isp_score, hosting_score = self._scorer.score([text])[0]
        return self._verdict(domain, isp_score, hosting_score)

    def _verdict(
        self, domain: str, isp_score: float, hosting_score: float
    ) -> ClassifierVerdict:
        return ClassifierVerdict(
            domain=domain,
            scraped=True,
            is_isp=isp_score > self._threshold,
            is_hosting=hosting_score > self._threshold,
            isp_score=isp_score,
            hosting_score=hosting_score,
        )

    def _scores_for_raw(
        self, raws: Sequence[RawScrape]
    ) -> List[Tuple[float, float]]:
        """Scores for non-empty raw scrapes, via the content cache.

        Digest hits skip translation, featurization, and scoring
        entirely; misses are translated and scored as one
        :meth:`TextScorer.score` batch, and every transform is
        row/element independent, so the values are bit-identical to
        scoring each text alone.
        """
        digests = [content_digest(raw.raw_text) for raw in raws]
        scores: List[Optional[Tuple[float, float]]] = []
        miss_positions: List[int] = []
        hits = misses = 0
        for digest in digests:
            cached = self._featcache.get(digest)
            if cached is None:
                miss_positions.append(len(scores))
                misses += 1
            else:
                hits += 1
            scores.append(cached)
        if miss_positions:
            translated = self._scraper.translate_texts(
                [raws[index].raw_text for index in miss_positions]
            )
            computed = self._scorer.score(translated)
            for index, pair in zip(miss_positions, computed):
                scores[index] = pair
                self._featcache.put(digests[index], pair)
        if hits:
            self._m_featcache.inc(hits, outcome="hit")
        if misses:
            self._m_featcache.inc(misses, outcome="miss")
        self._m_featcache_size.set(len(self._featcache))
        return scores

    def classify_domain(self, domain: str) -> ClassifierVerdict:
        """Scrape then classify one domain (content-cache aware)."""
        start = time.perf_counter()
        raw = self._scraper.gather(domain)
        if raw.empty:
            verdict = ClassifierVerdict(domain=domain, scraped=False)
        else:
            if not self._fitted:
                raise RuntimeError("pipeline is not fitted")
            isp_score, hosting_score = self._scores_for_raw([raw])[0]
            verdict = self._verdict(domain, isp_score, hosting_score)
        self._m_classify_seconds.observe(time.perf_counter() - start)
        self._m_verdicts.inc(1, outcome=self._verdict_outcome(verdict))
        return verdict

    def classify_domains(
        self, domains: Sequence[str]
    ) -> List[ClassifierVerdict]:
        """Batch :meth:`classify_domain`: one raw-scrape pass, one
        content-cache probe, then one translate + vectorizer + TF-IDF +
        ensemble pass over the digest misses only.

        Elementwise identical to the scalar path: every transform in the
        stack (count vectorization, TF-IDF weighting with per-row L2
        normalization, SGD decision scores) is row-independent, so the
        scores for a text do not depend on what else is in the batch.
        Verdict-outcome counters tick per domain as in the scalar path;
        latency lands in ``asdb_ml_batch_seconds``.
        """
        if not self._fitted:
            raise RuntimeError("pipeline is not fitted")
        domains = list(domains)
        start = time.perf_counter()
        raws = self._scraper.gather_many(domains)
        verdicts: List[Optional[ClassifierVerdict]] = [None] * len(domains)
        positions: List[int] = []
        pending: List[RawScrape] = []
        for index, raw in enumerate(raws):
            if raw.empty:
                verdicts[index] = ClassifierVerdict(
                    domain=domains[index], scraped=False
                )
            else:
                positions.append(index)
                pending.append(raw)
        if pending:
            scores = self._scores_for_raw(pending)
            for index, (isp_score, hosting_score) in zip(positions, scores):
                verdicts[index] = self._verdict(
                    domains[index], isp_score, hosting_score
                )
        self._m_batch_seconds.observe(time.perf_counter() - start)
        self._m_batch_size.observe(len(domains))
        for verdict in verdicts:
            self._m_verdicts.inc(1, outcome=self._verdict_outcome(verdict))
        return verdicts

    @staticmethod
    def _verdict_outcome(verdict: ClassifierVerdict) -> str:
        if not verdict.scraped:
            return "unscraped"
        if verdict.is_isp and verdict.is_hosting:
            return "isp+hosting"
        if verdict.is_isp:
            return "isp"
        if verdict.is_hosting:
            return "hosting"
        return "negative"
