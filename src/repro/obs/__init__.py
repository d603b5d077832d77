"""Observability layer: metrics, per-AS tracing, source instrumentation.

Everything here is dependency-free and opt-in.  Components accept an
optional :class:`MetricsRegistry`; with none configured the shared
:data:`NULL_REGISTRY` makes every emission a no-op, so the zero-config
pipeline behaves exactly as before.

Quickstart::

    from repro import SystemConfig, WorldConfig, build_asdb, generate_world
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    world = generate_world(WorldConfig(n_orgs=200))
    built = build_asdb(world, SystemConfig(metrics=registry, trace=True))
    built.asdb.classify_all()
    print(registry.to_prometheus())            # scrapeable snapshot
    record = built.asdb.dataset.get(world.asns()[0])
    from repro.obs import narrate_trace
    print(narrate_trace(record.trace))         # per-stage span story
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from .trace import (
    ClassificationTrace,
    NullTraceBuilder,
    Span,
    TraceBuilder,
    trace_builder,
)
from .instrument import InstrumentedSource, instrument_source
from .narrate import (
    aggregate_spans,
    format_seconds,
    narrate_profile,
    narrate_sweep,
    narrate_trace,
)
from .runlog import (
    LEDGER_SCHEMA,
    NULL_RUNLOG,
    RunLog,
    config_digest,
    read_ledger,
    read_rss_kb,
)
from .health import (
    LedgerError,
    SloError,
    SloResult,
    SloRule,
    evaluate_slos,
    load_events,
    load_slos,
    percentile,
    render_compare,
    render_health,
    render_report,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "ClassificationTrace",
    "Span",
    "TraceBuilder",
    "NullTraceBuilder",
    "trace_builder",
    "InstrumentedSource",
    "instrument_source",
    "format_seconds",
    "narrate_trace",
    "narrate_sweep",
    "narrate_profile",
    "aggregate_spans",
    "LEDGER_SCHEMA",
    "RunLog",
    "NULL_RUNLOG",
    "config_digest",
    "read_ledger",
    "read_rss_kb",
    "LedgerError",
    "SloError",
    "SloRule",
    "SloResult",
    "load_events",
    "load_slos",
    "percentile",
    "evaluate_slos",
    "render_health",
    "render_report",
    "render_compare",
]
