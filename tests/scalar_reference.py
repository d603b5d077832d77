"""Test-side copies of the scalar per-item paths the batch code replaced.

``ASdb`` has one driver, :func:`repro.core.parallel.run_batch`.  Its
parity tests compare it against this module: every AS in ascending
order, its stage generator served one request at a time through the
per-item source calls (``try_lookup`` on a resilient source, ``lookup``
on any other) and ``classify_domain`` — the pass the batch engine must
reproduce byte for byte.

``WebClassificationPipeline.fit`` fetches and translates its examples
in batches; :func:`training_inputs` is the per-example loop it must
reproduce.
"""

from repro.core.pipeline import REQUEST_ASN_MATCH, REQUEST_ML
from repro.datasources.base import Query
from repro.matching.resolver import ResolvedSources
from repro.obs.trace import trace_builder
from repro.web.translate import translate_to_english


def classify_ascending(asdb, asns=None):
    """Classify ``asns`` (default: the registry) into ``asdb.dataset``
    one AS at a time, in ascending order; returns the dataset."""
    for asn in sorted(asdb._registry.asns() if asns is None else asns):
        asdb.dataset.add(drive(asdb, asn))
    asdb.dataset.flush()
    return asdb.dataset


def drive(asdb, asn):
    """Serve one AS's stage generator inline; returns its record."""
    steps = asdb._classify_steps(asn, trace_builder(asn, False))
    try:
        request = next(steps)
        while True:
            if request[0] == REQUEST_ASN_MATCH:
                reply = _asn_lookup(asdb, Query(asn=request[1]))
            elif request[0] == REQUEST_ML:
                reply = asdb._ml.classify_domain(request[1])
            else:
                reply = match_sources(asdb._resolver, *request[1:])
            request = steps.send(reply)
    except StopIteration as stop:
        return stop.value
    finally:
        steps.close()


def match_sources(resolver, contact, domain):
    """Per-item source matching: one lookup per configured source."""
    query = Query(
        name=contact.name,
        domain=domain,
        address=contact.address,
        phone=contact.phone,
        asn=contact.asn,
    )
    matches, rejected, reasons, degraded = {}, [], {}, []
    for source in resolver._sources:
        match, failed = _lookup(source, query)
        if failed:
            degraded.append(source.name)
            continue
        if match is None:
            continue
        reason = resolver._reject_reason(match, domain)
        if reason is not None:
            rejected.append(source.name)
            reasons[source.name] = reason
            continue
        matches[source.name] = match
    return ResolvedSources(
        asn=contact.asn,
        chosen_domain=domain,
        matches=matches,
        rejected=tuple(rejected),
        rejected_reasons=reasons,
        degraded=tuple(degraded),
    )


def _asn_lookup(asdb, query):
    """Stage 1's reply: (peeringdb, ipinfo, degraded source names)."""
    sources = (asdb._peeringdb, asdb._ipinfo)
    (pdb, pdb_failed), (ipinfo, ipinfo_failed) = (
        _lookup(source, query) for source in sources
    )
    degraded = tuple(
        source.name
        for source, failed in zip(sources, (pdb_failed, ipinfo_failed))
        if failed
    )
    return pdb, ipinfo, degraded


def _lookup(source, query):
    """(match, failed) from one per-item call."""
    if hasattr(source, "try_lookup"):
        outcome = source.try_lookup(query)
        return outcome.match, outcome.failed
    return source.lookup(query), False


def training_inputs(scraper, examples):
    """``(texts, isp_labels, hosting_labels)`` as the per-example loop
    built them for training: each site gathered alone, translated with
    ``translate_to_english`` when the scraper translates, and dropped
    when its text is empty."""
    texts, isp_labels, hosting_labels = [], [], []
    for example in examples:
        _, text, _ = scraper._gather(example.domain)
        if scraper._translate and text:
            text = translate_to_english(text).text
        if not text.strip():
            continue
        texts.append(text)
        isp_labels.append(example.is_isp)
        hosting_labels.append(example.is_hosting)
    return texts, isp_labels, hosting_labels
