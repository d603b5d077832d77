"""Factory wiring a complete ASdb system over a synthetic world.

This is the "ten lines to a working system" entry point used by the
examples, tests, and benchmarks:

    >>> from repro import system, world
    >>> w = world.generate_world(world.WorldConfig(n_orgs=200))
    >>> built = system.build_asdb(w)
    >>> dataset = built.asdb.classify_all()
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .core.maintenance import MaintenanceDaemon
from .core.pipeline import ASdb
from .core.consensus import resolve_consensus
from .core.resilience import ResilientSource, RetryPolicy
from .core.snapshots import SnapshotStore
from .core.store import open_store
from .datasources import Crunchbase, DunBradstreet, IPinfo, PeeringDB, Zvelo
from .datasources.faults import FaultPlan, FaultySource
from .matching.domains import DomainFrequencyIndex
from .matching.resolver import EntityResolver
from .ml.pipeline import WebClassificationPipeline
from .ml.training import build_training_examples
from .obs.instrument import instrument_source
from .obs.metrics import MetricsRegistry
from .web.scraper import Scraper
from .world.organization import World

__all__ = ["SystemConfig", "BuiltSystem", "build_asdb", "build_sources"]


@dataclass(frozen=True)
class SystemConfig:
    """Assembly knobs for :func:`build_asdb`.

    Attributes:
        seed: Seed for source construction and ML training sampling.
        train_ml: Train and attach the ML pipeline (stage 3).
        exclude_asns_from_training: ASNs whose organizations must not
            appear in ML training (reserve evaluation sets).
        dnb_confidence_threshold: Minimum accepted D&B confidence code.
        use_cache: Organization-level caching.
        reject_domain_mismatch: Entity-disagreement rejection.
        metrics: Metrics registry threaded through every component
            (sources, resolver, scraper, ML, pipeline); None disables
            metering with zero behavior change.
        trace: Attach a per-stage span trace to every record.
        workers: Default worker count for ``classify_all``; above 1 the
            whole-registry pass runs through the batch engine (output
            stays byte-identical to the sequential pass).
        faults: Fault-injection plan applied to every source (testing /
            chaos runs); None leaves the sources untouched.
        retry: Retry/breaker policy wrapped around every source.  None
            means no resilience wrapping *unless* ``faults`` is set, in
            which case a default policy seeded from ``seed`` is used —
            injecting faults without a degradation path would just
            crash the run.
        snapshot_dir: Directory of a versioned
            :class:`~repro.core.snapshots.SnapshotStore`.  When set,
            the built system carries the store plus a
            :class:`~repro.core.maintenance.MaintenanceDaemon` wired to
            it (each sweep stores a dataset version); None leaves both
            handles unset with zero behavior change.
        runlog: A :class:`~repro.obs.runlog.RunLog` event ledger.  When
            set, the pipeline, batch engine, resilience layer, and
            maintenance daemon emit structured events (spans, as.trace,
            breaker transitions, sweep reports) into it; None keeps the
            inert null ledger and byte-identical default output.
        dataset_store: Backend URL for the pipeline's dataset
            (``sqlite:PATH`` / ``json:PATH`` / ``memory:``, see
            :func:`repro.core.store.open_store`).  None keeps the
            default in-memory :class:`~repro.core.database.ASdbDataset`
            with zero behavior change; exports from any backend are
            byte-identical.
        sweep_batch_size: Default classify-window size for maintenance
            sweeps (see
            :class:`~repro.core.maintenance.MaintenanceDaemon`).  None
            keeps single-batch sweeps; a bound makes sweeps streaming —
            O(batch) records resident with byte-identical results.
        snapshot_checkpoint_every: Promote every K-th consecutive delta
            in the snapshot store to a checkpoint (full document stored
            alongside the delta), bounding point-in-time reconstruction
            to O(K) deltas.  None keeps the cadence already recorded in
            the store's manifest (or never promotes on a new store).
    """

    seed: int = 0
    train_ml: bool = True
    exclude_asns_from_training: Tuple[int, ...] = ()
    dnb_confidence_threshold: int = 6
    use_cache: bool = True
    reject_domain_mismatch: bool = True
    metrics: Optional[MetricsRegistry] = None
    trace: bool = False
    workers: int = 1
    faults: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    snapshot_dir: Optional[str] = None
    runlog: Optional[object] = None
    dataset_store: Optional[str] = None
    sweep_batch_size: Optional[int] = None
    snapshot_checkpoint_every: Optional[int] = None


@dataclass(frozen=True)
class BuiltSystem:
    """A fully wired system plus handles to its components."""

    asdb: ASdb
    dnb: DunBradstreet
    crunchbase: Crunchbase
    zvelo: Zvelo
    peeringdb: PeeringDB
    ipinfo: IPinfo
    resolver: EntityResolver
    ml_pipeline: Optional[WebClassificationPipeline]
    frequency_index: DomainFrequencyIndex
    snapshots: Optional[SnapshotStore] = None
    daemon: Optional[MaintenanceDaemon] = None
    #: Every ResilientSource wrapped around the live sources, in wiring
    #: order — the run ledger's end-of-run summary reads breaker states
    #: and degradation tallies from these handles.
    resilient: Tuple[ResilientSource, ...] = ()


def build_sources(world: World, seed: int = 0):
    """Construct the five deployed data sources over a world."""
    return (
        DunBradstreet(world, seed=seed),
        Crunchbase(world, seed=seed),
        Zvelo(world, seed=seed),
        PeeringDB(world, seed=seed),
        IPinfo(world, seed=seed),
    )


def _harden_source(
    source,
    config: SystemConfig,
    resilient_sink: Optional[List[ResilientSource]] = None,
):
    """Apply the configured observability + resilience wrapping.

    Innermost to outermost: metering -> fault injection -> retry/breaker,
    so injected faults are retried exactly like real ones.  With neither
    ``faults`` nor ``retry`` configured this reduces to the plain
    instrumented source and the pipeline behaves byte-identically to an
    unwrapped build.  Every :class:`ResilientSource` created is appended
    to ``resilient_sink`` so the run ledger's end-of-run summary can
    read breaker states.
    """
    wrapped = instrument_source(source, config.metrics)
    if config.faults is not None:
        wrapped = FaultySource(wrapped, config.faults,
                               source_name=source.name)
    if config.faults is not None or config.retry is not None:
        policy = (
            config.retry if config.retry is not None
            else RetryPolicy(seed=config.seed)
        )
        wrapped = ResilientSource(
            wrapped, policy, metrics=config.metrics, runlog=config.runlog
        )
        if resilient_sink is not None:
            resilient_sink.append(wrapped)
    return wrapped


def build_asdb(
    world: World, config: SystemConfig = SystemConfig()
) -> BuiltSystem:
    """Wire registry, sources, resolver, and ML into a runnable ASdb."""
    dnb, crunchbase, zvelo, peeringdb, ipinfo = build_sources(
        world, seed=config.seed
    )
    frequency_index = DomainFrequencyIndex.from_candidates(
        world.registry.contact(asn).candidate_domains
        for asn in world.asns()
    )
    resilient_sink: List[ResilientSource] = []
    resolver = EntityResolver(
        world.web,
        frequency_index,
        # _harden_source is a no-op without a registry/faults/retry, so
        # the default wiring is byte-identical to before.
        sources=[
            _harden_source(source, config, resilient_sink)
            for source in (dnb, crunchbase, zvelo)
        ],
        dnb_confidence_threshold=config.dnb_confidence_threshold,
        reject_domain_mismatch=config.reject_domain_mismatch,
        metrics=config.metrics,
    )
    ml_pipeline: Optional[WebClassificationPipeline] = None
    if config.train_ml:
        rng = random.Random(("ml-train", config.seed).__repr__())
        examples = build_training_examples(
            world,
            dnb,
            rng,
            exclude_asns=config.exclude_asns_from_training,
        )
        ml_pipeline = WebClassificationPipeline(
            Scraper(world.web, metrics=config.metrics),
            seed=config.seed,
            metrics=config.metrics,
        ).fit(examples)
    asdb = ASdb(
        registry=world.registry,
        resolver=resolver,
        peeringdb=_harden_source(peeringdb, config, resilient_sink),
        ipinfo=_harden_source(ipinfo, config, resilient_sink),
        ml_pipeline=ml_pipeline,
        consensus_strategy=resolve_consensus,
        use_cache=config.use_cache,
        metrics=config.metrics,
        trace=config.trace,
        workers=config.workers,
        runlog=config.runlog,
    )
    if config.dataset_store is not None:
        asdb.dataset = open_store(
            config.dataset_store,
            metrics=config.metrics,
            runlog=config.runlog,
        )
    snapshots = daemon = None
    if config.snapshot_dir is not None:
        snapshots = SnapshotStore(
            config.snapshot_dir,
            checkpoint_every=config.snapshot_checkpoint_every,
        )
        daemon = MaintenanceDaemon(
            asdb,
            workers=config.workers,
            snapshots=snapshots,
            batch_size=config.sweep_batch_size,
        )
    return BuiltSystem(
        asdb=asdb,
        dnb=dnb,
        crunchbase=crunchbase,
        zvelo=zvelo,
        peeringdb=peeringdb,
        ipinfo=ipinfo,
        resolver=resolver,
        ml_pipeline=ml_pipeline,
        frequency_index=frequency_index,
        snapshots=snapshots,
        daemon=daemon,
        resilient=tuple(resilient_sink),
    )
