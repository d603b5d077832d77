"""Instrumentation adapters between pipeline components and metrics.

:class:`InstrumentedSource` decorates any ``DataSource`` so every
``lookup`` emits ``asdb_source_lookups_total{source, outcome}`` and an
``asdb_source_lookup_seconds{source}`` latency observation — without the
source (or its callers) knowing a registry exists.

The wrapper duck-types the ``DataSource`` contract (``name``,
``lookup``, ``lookup_by_org``, ``coverage_count``) rather than
importing it: ``repro.obs`` stays a leaf package every layer can
depend on without cycles.
"""

from __future__ import annotations

import time
from typing import Optional

from .metrics import MetricsRegistry, NULL_REGISTRY, NullRegistry

__all__ = ["InstrumentedSource", "instrument_source"]

#: Metric family names the wrapper emits (shared with tests and docs).
SOURCE_LOOKUPS_TOTAL = "asdb_source_lookups_total"
SOURCE_LOOKUP_SECONDS = "asdb_source_lookup_seconds"
SOURCE_BATCH_SECONDS = "asdb_source_batch_seconds"


class InstrumentedSource:
    """A ``DataSource`` decorator that meters every lookup.

    Delegates the full contract (``name``, ``lookup``, ``lookup_by_org``,
    ``coverage_count``) to the wrapped source, so it is a drop-in
    anywhere a source is accepted, including consensus ranking by name.
    """

    #: Marks the source as already carrying lookup metering, so
    #: :func:`instrument_source` leaves it alone.  Duck-typed (rather
    #: than isinstance) so outer wrappers from higher layers — e.g.
    #: ``repro.core.resilience.ResilientSource`` — can claim it too
    #: without this leaf package importing them.
    already_metered = True

    def __init__(self, inner, registry: MetricsRegistry) -> None:
        self._inner = inner
        self.name = inner.name
        self.registry = registry
        self._lookups = registry.counter(
            SOURCE_LOOKUPS_TOTAL,
            "Data-source lookups by source and outcome.",
            ("source", "outcome"),
        )
        self._seconds = registry.histogram(
            SOURCE_LOOKUP_SECONDS,
            "Data-source lookup latency in seconds.",
            ("source",),
        )
        self._batch_seconds = registry.histogram(
            SOURCE_BATCH_SECONDS,
            "Bulk data-source lookup latency per batch, in seconds.",
            ("source",),
        )
        # Register both outcome series up front so exporters show a
        # source that has, say, never missed.
        for outcome in ("match", "miss"):
            self._lookups.inc(0, source=self.name, outcome=outcome)

    @property
    def inner(self):
        """The wrapped source."""
        return self._inner

    def lookup(self, query):
        start = time.perf_counter()
        match = self._inner.lookup(query)
        self._seconds.observe(
            time.perf_counter() - start, source=self.name
        )
        self._lookups.inc(
            1,
            source=self.name,
            outcome="match" if match is not None else "miss",
        )
        return match

    def lookup_many(self, queries):
        """Meter a bulk lookup: one latency observation per batch, the
        same per-query outcome counters as the scalar path."""
        queries = list(queries)
        start = time.perf_counter()
        matches = self._inner.lookup_many(queries)
        self._batch_seconds.observe(
            time.perf_counter() - start, source=self.name
        )
        for match in matches:
            self._lookups.inc(
                1,
                source=self.name,
                outcome="match" if match is not None else "miss",
            )
        return matches

    def lookup_by_org(self, org_id: str):
        return self._inner.lookup_by_org(org_id)

    def coverage_count(self) -> int:
        return self._inner.coverage_count()


def instrument_source(source, registry: Optional[MetricsRegistry]):
    """Wrap ``source`` for metering, idempotently.

    Returns the source unchanged when there is nothing to meter into
    (no registry, or a :class:`NullRegistry`) or when it is already
    wrapped — so factories can instrument unconditionally.
    """
    if registry is None or isinstance(registry, NullRegistry):
        return source
    if getattr(source, "already_metered", False):
        return source
    return InstrumentedSource(source, registry)
