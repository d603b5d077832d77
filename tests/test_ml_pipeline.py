"""Integration tests for the Figure-3 web classification pipeline."""

import random

import pytest

from repro.datasources import DunBradstreet
from repro.ml import (
    TrainingExample,
    WebClassificationPipeline,
    build_training_examples,
    confusion_matrix,
    roc_auc,
)
from repro.web import Scraper
from scalar_reference import training_inputs


@pytest.fixture(scope="module")
def trained(medium_world):
    world = medium_world
    dnb = DunBradstreet(world)
    rng = random.Random(99)
    asns = world.asns()
    rng.shuffle(asns)
    test_asns = asns[:150]
    examples = build_training_examples(
        world, dnb, rng, exclude_asns=test_asns
    )
    pipeline = WebClassificationPipeline(Scraper(world.web), seed=5)
    pipeline.fit(examples)
    return world, pipeline, test_asns, examples


class TestTrainingSet:
    def test_size_near_225(self, trained):
        _, _, _, examples = trained
        # 150 random + 75 D&B-hosting; a few drop for missing domains.
        assert 150 <= len(examples) <= 225

    def test_hosting_oversampled(self, trained):
        world, _, test_asns, examples = trained
        train_rate = sum(e.is_hosting for e in examples) / len(examples)
        world_rate = sum(
            1 for org in world.iter_organizations()
            if "hosting" in org.truth.layer2_slugs()
        ) / len(world.organizations)
        assert train_rate > world_rate

    def test_no_test_leakage(self, trained):
        world, _, test_asns, examples = trained
        test_domains = {
            world.org_of_asn(asn).domain for asn in test_asns
        }
        train_domains = {e.domain for e in examples}
        assert not (train_domains & test_domains)


class TestPipelineBehavior:
    def test_fit_flag(self, trained):
        _, pipeline, _, _ = trained
        assert pipeline.fitted

    def test_unscrapable_domain_verdict(self, trained):
        _, pipeline, _, _ = trained
        verdict = pipeline.classify_domain("no.such.domain.example")
        assert not verdict.scraped
        assert not verdict.is_isp and not verdict.is_hosting

    def test_classify_before_fit_raises(self, medium_world):
        pipeline = WebClassificationPipeline(Scraper(medium_world.web))
        reachable = sorted(medium_world.web.domains())[0]
        for domain in (reachable, "x.example"):
            with pytest.raises(RuntimeError):
                pipeline.classify_domain(domain)

    def test_fit_with_no_scrapable_examples_raises(self, medium_world):
        pipeline = WebClassificationPipeline(Scraper(medium_world.web))
        with pytest.raises(ValueError):
            pipeline.fit(
                [TrainingExample("no.such.example", False, False)]
            )

    def test_verdict_deterministic(self, trained):
        world, pipeline, test_asns, _ = trained
        org = world.org_of_asn(test_asns[0])
        if org.domain is None:
            pytest.skip("sampled org has no domain")
        a = pipeline.classify_domain(org.domain)
        b = pipeline.classify_domain(org.domain)
        assert a == b


def _recorded_fit_inputs(pipeline, examples):
    """Fit ``pipeline`` and return what it handed the vectorizer (the
    texts) and each ensemble (the labels, and the feature row count)."""
    seen = {}
    fit_transform = pipeline._vectorizer.fit_transform

    def record_texts(texts):
        seen["texts"] = list(texts)
        return fit_transform(texts)

    pipeline._vectorizer.fit_transform = record_texts
    for name in ("_isp", "_hosting"):
        ensemble = getattr(pipeline, name)

        def record_labels(features, labels, name=name, fit=ensemble.fit):
            seen[name] = (features.shape[0], list(labels))
            return fit(features, labels)

        ensemble.fit = record_labels
    pipeline.fit(examples)
    return seen


class TestFitParity:
    """``fit`` fetches and translates in batches; it must train on the
    texts, labels and order of the per-example loop it replaced."""

    @pytest.mark.parametrize("world_name", ["small_world", "medium_world"])
    @pytest.mark.parametrize("translate", [True, False])
    @pytest.mark.parametrize("follow", [True, False])
    def test_fit_inputs_match_per_example_loop(
        self, request, world_name, translate, follow
    ):
        world = request.getfixturevalue(world_name)
        examples = build_training_examples(
            world, DunBradstreet(world), random.Random(99)
        )
        # One example that cannot be scraped, so the drop is exercised.
        examples.insert(3, TrainingExample("no.such.example", True, True))
        scraper = Scraper(
            world.web, translate=translate, follow_internal_links=follow
        )
        texts, isp_labels, hosting_labels = training_inputs(
            scraper, examples
        )
        assert 0 < len(texts) < len(examples)
        seen = _recorded_fit_inputs(
            WebClassificationPipeline(scraper, seed=5), examples
        )
        assert seen["texts"] == texts
        assert seen["_isp"] == (len(texts), isp_labels)
        assert seen["_hosting"] == (len(texts), hosting_labels)


class TestPipelineAccuracy:
    """Table-6-shaped checks with wide statistical bands."""

    def _evaluate(self, trained, slug):
        world, pipeline, test_asns, _ = trained
        truth, predicted, scores = [], [], []
        for asn in test_asns:
            org = world.org_of_asn(asn)
            if org.domain is None:
                continue
            verdict = pipeline.classify_domain(org.domain)
            truth.append(slug in org.truth.layer2_slugs())
            if slug == "isp":
                predicted.append(verdict.is_isp)
                scores.append(verdict.isp_score)
            else:
                predicted.append(verdict.is_hosting)
                scores.append(verdict.hosting_score)
        return truth, predicted, scores

    def test_isp_accuracy_high(self, trained):
        truth, predicted, scores = self._evaluate(trained, "isp")
        cm = confusion_matrix(truth, predicted)
        assert cm.accuracy >= 0.80            # paper: 94%
        assert cm.false_positive_rate <= 0.08  # paper: 1%
        assert roc_auc(truth, scores) >= 0.85  # paper: .94

    def test_hosting_low_false_positives(self, trained):
        truth, predicted, scores = self._evaluate(trained, "hosting")
        cm = confusion_matrix(truth, predicted)
        assert cm.false_positive_rate <= 0.08  # paper: 3%
        assert cm.accuracy >= 0.80             # paper: 90%

    def test_hosting_harder_than_isp(self, trained):
        # Table 6 / Section 4.1: the hosting classifier is the weaker one
        # (AUC .80 vs .94).
        isp_truth, _, isp_scores = self._evaluate(trained, "isp")
        host_truth, _, host_scores = self._evaluate(trained, "hosting")
        assert roc_auc(host_truth, host_scores) <= roc_auc(
            isp_truth, isp_scores
        ) + 0.02

    def test_false_negatives_exceed_false_positives(self, trained):
        # Section 4.1: "more likely to produce false negatives than false
        # positives".
        for slug in ("isp", "hosting"):
            truth, predicted, _ = self._evaluate(trained, slug)
            cm = confusion_matrix(truth, predicted)
            # Directional claim with N~150: allow small-sample slack.
            assert cm.fn + 3 >= cm.fp
