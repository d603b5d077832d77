"""Command-line interface for the ASdb reproduction.

Subcommands::

    python -m repro classify  --n-orgs 400 --seed 42 --out dataset.csv
    python -m repro lookup    --asn 64512 --n-orgs 300 --seed 9
    python -m repro evaluate  --n-orgs 800 --seed 33
    python -m repro taxonomy  [--layer1 finance]
    python -m repro stats     --n-orgs 200 --format summary
    python -m repro dump      --n-orgs 200 --out whois.dump
    python -m repro snapshot  --store releases --n-orgs 200 --seed 42
    python -m repro refresh   --store releases --days 90
    python -m repro diff      --store releases --from 1 --to 2
    python -m repro asof      --store releases --day 120
    python -m repro timeline  --store releases --asn 64512
    python -m repro churn     --store releases --from 1 --to 3
    python -m repro report    run.ndjson
    python -m repro health    --slo slo.json run.ndjson
    python -m repro serve     --snapshots releases --port 8311

``classify`` builds a world, runs the full pipeline, and writes the
dataset (CSV or JSON by extension); ``--workers N`` runs the pass
through the parallel batch engine with byte-identical output.
``lookup`` narrates one AS through the pipeline.  ``evaluate``
reproduces the gold-standard evaluation.  ``taxonomy`` prints the
NAICSlite category system.  ``stats`` runs a classification pass and
prints the collected pipeline metrics.  ``dump`` exports a world's bulk
WHOIS, or parses a dump.

Release maintenance (Section 5.3): ``snapshot`` classifies a fresh
world through a baseline maintenance sweep and stores release v1 in a
versioned snapshot store (with world provenance in the manifest).
``refresh`` reopens a store, replays its recorded churn history,
simulates ``--days`` more days of registrations/metadata churn, and
runs one *incremental* sweep — only the changed ASNs are reclassified
(through the batch engine) and stored as a delta-encoded version.
``diff`` reports added/removed/relabeled/stage-changed ASNs between
any two stored versions.

Temporal queries: ``asof`` reconstructs the full digest-verified
dataset in force at a version or day (``snapshot --checkpoint-every K``
bounds the replay to K deltas); ``timeline`` prints one AS's
per-release classification trajectory from the delta chain alone;
``churn`` counts category flows between two releases.

Run ledgers: ``--runlog FILE`` persists a run's NDJSON event ledger;
``report`` renders one (or compares two) and ``health`` checks one
against SLO budgets.

Serving: ``serve`` exposes the dataset as an async HTTP query API
(``/asn/{asn}``, ``/org/{query}``, ``/categories``, ``/version``,
``/healthz``, ``/metrics``) over an immutable in-memory index that is
atomically swapped on refresh — from a snapshot store
(``--snapshots DIR``), a dataset store (``--store URL``), or a fresh
classification pass (optionally ``--lazy``: start empty and classify
on demand through the bounded background queue; unknown ASNs answer
202 with a Retry-After hint, queue overflow answers 503).

``repro <cmd> --help`` lists a subcommand's flags.  A flag that several
subcommands take is declared once, in ``_FLAGS``, and means the same
wherever it appears; ``_system_config`` is the one place flags become
a :class:`~repro.system.SystemConfig`.

Exit semantics: 0 on success; 2 on a usage error (argparse rejects a
malformed or out-of-range flag before any work starts) or an input the
command cannot use; 1 when ``health`` finds a breached budget or
``refresh`` reclassified something other than the churned set.  Output
piped into ``head``/``less`` may close stdout early; the CLI treats the
resulting broken pipe as deliberate truncation and exits 0 quietly (no
traceback) where a SIGPIPE-killed process would report exit 141.
Ctrl-C exits 130.
"""

from __future__ import annotations

import argparse
import asyncio
import io
import json
import os
import sys
from typing import List, Optional, Tuple

from . import SystemConfig, WorldConfig, build_asdb, generate_world
from .core.history import ReleaseHistory, categorization
from .core.maintenance import MaintenanceDaemon
from .core.persistence import write_csv, write_json
from .core.resilience import RetryPolicy
from .core.snapshots import SnapshotError, SnapshotStore, dataset_digest
from .core.store import StoreError, open_store
from .datasources.faults import FaultPlan
from .evaluation import build_gold_standard, evaluate_stages
from .obs import (
    NULL_RUNLOG,
    LedgerError,
    MetricsRegistry,
    RunLog,
    SloError,
    aggregate_spans,
    evaluate_slos,
    format_seconds,
    load_events,
    load_slos,
    narrate_profile,
    narrate_sweep,
    narrate_trace,
    render_compare,
    render_health,
    render_report,
)
from .reporting import render_metrics_summary, render_table
from .taxonomy import naicslite
from .world import simulate_churn

__all__ = ["main", "run", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type of a size or count that must be at least 1, so a
    zero is a usage error before the command builds anything."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: Every flag that more than one subcommand takes, declared once as its
#: ``add_argument`` keywords.  A key is the option string, plus the
#: metavar where ``--store`` names a snapshot-store directory on some
#: subcommands and a dataset-store URL on others.
_FLAGS = {
    "--n-orgs": dict(type=_positive_int,
                     help="organizations in the generated world"),
    "--seed": dict(type=int, help="seed of the world and the system"),
    "--no-ml": dict(action="store_true", help="skip the ML pipeline stage"),
    "--workers": dict(type=_positive_int, default=1,
                      help="worker threads for the batch engine (output "
                      "is byte-identical to --workers 1)"),
    "--trace": dict(action="store_true",
                    help="record a per-stage span trace for every AS"),
    "--metrics-out": dict(metavar="FILE",
                          help="write the metrics snapshot to FILE "
                          "(Prometheus text, or JSON when FILE ends in "
                          ".json)"),
    "--runlog": dict(metavar="FILE",
                     help="persist an NDJSON event ledger for the run "
                     "(implies --trace where the command has it); "
                     "inspect it with `repro report` / `repro health`"),
    "--out": dict(help="output file: the dataset as .csv or .json, or "
                  "`dump`'s bulk WHOIS"),
    "--store URL": dict(metavar="URL",
                        help="dataset store (sqlite:PATH, json:PATH, or "
                        "memory:); exports are byte-identical to the "
                        "in-memory default, and serve reopens it on "
                        "each refresh swap"),
    "--store DIR": dict(required=True, metavar="DIR",
                        help="snapshot store directory"),
    "--dataset-store": dict(metavar="URL",
                            help="dataset store backend to work in "
                            "(sqlite:PATH keeps O(batch) records "
                            "resident); refresh reuses a non-empty store "
                            "only when it matches the latest version's "
                            "digest"),
    "--sweep-batch": dict(type=_positive_int, metavar="N",
                          help="stream the sweep's classify phase in "
                          "windows of N ASNs (byte-identical results, "
                          "O(batch) memory)"),
    "--version": dict(type=int, metavar="V",
                      help="snapshot version V (asof reconstructs it; "
                      "serve pins it instead of following the latest)"),
    "--from": dict(dest="from_version", type=int, metavar="V",
                   help="older version (default: latest - 1)"),
    "--to": dict(dest="to_version", type=int, metavar="V",
                 help="newer version (default: latest)"),
    "--json": dict(action="store_true", help="emit a JSON document"),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ASdb reproduction: classify owners of Autonomous "
        "Systems over a calibrated synthetic world.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *flags: str, **defaults):
        """Subcommand ``name`` taking the shared ``flags``; ``defaults``
        maps a flag's dest to this subcommand's default."""
        subparser = sub.add_parser(name, help=summary)
        for flag in flags:
            action = subparser.add_argument(flag.split()[0], **_FLAGS[flag])
            action.default = defaults.get(action.dest, action.default)
        return subparser

    classify = command(
        "classify", "classify every AS in a fresh world",
        "--n-orgs", "--seed", "--no-ml", "--workers", "--out",
        "--store URL", "--trace", "--metrics-out", "--runlog",
        n_orgs=400, seed=42,
    )
    classify.add_argument("--profile", nargs="?", const=5,
                          type=_positive_int,
                          default=None, metavar="N",
                          help="print the top-N slowest pipeline stages "
                          "(default 5) aggregated from trace spans to "
                          "stderr; implies --trace")
    classify.add_argument("--profile-out", default=None, metavar="FILE",
                          help="write the --profile narration to FILE "
                          "instead of stderr")
    classify.add_argument("--inject-faults", nargs="?", const=0.15,
                          type=float, default=None, metavar="RATE",
                          help="inject deterministic source faults "
                          "(outages, rate limits, malformed entries, "
                          "latency spikes) at RATE (default 0.15) and "
                          "classify through the resilience layer")
    classify.add_argument("--retry", type=int, default=2, metavar="N",
                          help="retries per source lookup under "
                          "--inject-faults (default 2)")

    lookup = command(
        "lookup", "classify and explain one AS",
        "--n-orgs", "--seed", "--trace", "--metrics-out", "--runlog",
        n_orgs=300, seed=9,
    )
    lookup.add_argument("--asn", type=int, default=None,
                        help="ASN to look up (default: first with domain)")

    stats = command(
        "stats", "run a classification pass and print pipeline metrics",
        "--n-orgs", "--seed", "--no-ml", "--workers", "--store URL",
        n_orgs=200, seed=42,
    )
    stats.add_argument("--format", default="summary",
                       choices=("summary", "prometheus", "json"),
                       help="metrics output format (default: summary table)")

    command(
        "evaluate", "gold-standard evaluation of the full system",
        "--n-orgs", "--seed", n_orgs=800, seed=33,
    ).add_argument("--gold-size", type=_positive_int, default=150)

    command("taxonomy", "print NAICSlite").add_argument(
        "--layer1", default=None, help="restrict to one layer 1 slug"
    )

    sweep = ("--store DIR", "--workers", "--trace", "--metrics-out",
             "--runlog", "--dataset-store", "--sweep-batch")
    command(
        "snapshot", "classify a fresh world and store release v1 in a "
        "versioned snapshot store",
        "--n-orgs", "--seed", "--no-ml", *sweep, n_orgs=200, seed=42,
    ).add_argument("--checkpoint-every", type=_positive_int, default=None,
                   metavar="K",
                   help="promote every K-th delta to a checkpoint "
                   "(recorded in the manifest, so later refreshes keep "
                   "the cadence); bounds as-of reconstruction to O(K) "
                   "deltas")

    refresh = command(
        "refresh", "simulate churn and incrementally refresh a snapshot "
        "store", *sweep,
    )
    refresh.add_argument("--days", type=int, required=True,
                         help="days of registration/metadata churn to "
                         "simulate before the sweep")
    refresh.add_argument("--churn-seed", type=int, default=None,
                         help="seed for this churn epoch (default: the "
                         "epoch number)")

    command("diff", "diff two stored dataset versions",
            "--store DIR", "--from", "--to", "--json")

    command(
        "asof", "reconstruct the dataset as of a version or a day",
        "--store DIR", "--version", "--out", "--dataset-store",
    ).add_argument("--day", type=int, default=None, metavar="D",
                   help="reconstruct the release in force on day D (the "
                   "newest version whose sweep window closed at or "
                   "before D)")

    command(
        "timeline", "per-release classification trajectory of one AS",
        "--store DIR", "--json",
    ).add_argument("--asn", type=int, required=True,
                   help="ASN whose history to trace")

    command("churn", "category-flow analytics between two releases",
            "--store DIR", "--from", "--to", "--json")

    report = command(
        "report", "render a human-readable rollup from a run ledger"
    )
    report.add_argument("ledger", nargs="?", default=None,
                        help="NDJSON run ledger written with --runlog")
    report.add_argument("--compare", nargs=2, default=None,
                        metavar=("A", "B"),
                        help="diff two ledgers instead (BENCH-style "
                        "regression table)")

    health = command(
        "health", "evaluate SLO budgets against a run ledger "
        "(exit 1 on breach)",
    )
    health.add_argument("ledger",
                        help="NDJSON run ledger written with --runlog")
    health.add_argument("--slo", required=True, metavar="FILE",
                        help="JSON SLO file (see docs/ARCHITECTURE.md "
                        "section 12)")

    serve = command(
        "serve", "serve the dataset over an async HTTP query API "
        "(--n-orgs, --seed and --no-ml apply to fresh-world serving)",
        "--store URL", "--version", "--n-orgs", "--seed", "--no-ml",
        "--workers", "--metrics-out", "--runlog", n_orgs=200, seed=42,
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks an ephemeral port; "
                       "the bound port is printed and written to "
                       "--ready-file)")
    serve.add_argument("--snapshots", default=None, metavar="DIR",
                       help="serve the latest version of a snapshot "
                       "store; POST /refresh re-materializes so new "
                       "versions appear without a restart")
    serve.add_argument("--lazy", action="store_true",
                       help="start with an empty index and classify "
                       "on demand through the background queue "
                       "(fresh-world serving only)")
    serve.add_argument("--queue-size", type=_positive_int, default=256,
                       help="bound on the on-demand classification "
                       "queue; overflow answers 503 (default 256)")
    serve.add_argument("--queue-batch", type=int, default=16,
                       help="ASNs classified per background drain "
                       "window (default 16)")
    serve.add_argument("--retry-after", type=int, default=1,
                       help="Retry-After seconds on 202/503 responses")
    serve.add_argument("--ready-file", default=None, metavar="FILE",
                       help="write 'HOST PORT' to FILE once listening "
                       "(for scripts and smoke tests)")
    serve.add_argument("--max-seconds", type=float, default=None,
                       metavar="S",
                       help="serve for S seconds then exit cleanly "
                       "(smoke tests; default: until interrupted)")

    command(
        "dump", "export a world's bulk WHOIS, or parse an existing dump",
        "--n-orgs", "--seed", "--out", n_orgs=200, seed=42,
    ).add_argument("--parse", default=None, metavar="FILE",
                   help="parse FILE instead and print field stats")
    return parser


def _world(args: argparse.Namespace):
    """The world ``--n-orgs`` and ``--seed`` describe."""
    return generate_world(WorldConfig(n_orgs=args.n_orgs, seed=args.seed))


def _system_config(
    args: argparse.Namespace,
    registry: Optional[MetricsRegistry] = None,
    runlog: RunLog = NULL_RUNLOG,
    **fields: object,
) -> SystemConfig:
    """The one mapping from parsed flags to a :class:`SystemConfig`.

    Each shared flag sets its field here, the same way on every
    subcommand that takes it, and a flag the subcommand lacks leaves
    the field at its default.  ``fields`` holds only what a command
    decides otherwise: its store options, or the world recorded in a
    snapshot store's meta.  The ledger embeds per-AS traces and
    ``--profile`` aggregates them, so either implies ``--trace`` on a
    subcommand that has the flag; ``serve`` has none and keeps per-AS
    tracing off under ``--runlog``.
    """
    config = dict(
        seed=getattr(args, "seed", 0),
        train_ml=not getattr(args, "no_ml", False),
        workers=getattr(args, "workers", 1),
        trace=hasattr(args, "trace") and (
            args.trace or runlog.enabled
            or getattr(args, "profile", None) is not None
        ),
        metrics=registry,
        runlog=runlog,
    )
    config.update(fields)
    return SystemConfig(**config)


#: Arguments that only say where output goes: two runs that differ in
#: them alone did the same work.
_DESTINATIONS = {"out", "metrics_out", "profile_out", "ready_file", "runlog"}


def _open_runlog(
    args: argparse.Namespace, kind: str, world: Optional[dict] = None
):
    """A real ledger when ``--runlog`` was passed, else the null one.

    The run's config stanza is the parsed CLI arguments minus the
    output destinations (``--out``, ``--metrics-out``, ``--profile-out``,
    ``--ready-file`` and the ledger path itself): two otherwise
    identical runs writing to different files share a config digest.
    The world stanza defaults to the ``--n-orgs``/``--seed`` pair.
    """
    path = getattr(args, "runlog", None)
    if not path:
        return NULL_RUNLOG
    config = {
        key: value for key, value in sorted(vars(args).items())
        if key not in _DESTINATIONS
    }
    if world is None:
        world = {"n_orgs": args.n_orgs, "seed": args.seed}
    return RunLog(path, kind=kind, config=config, world=world)


def _open_releases(path: str) -> Optional[SnapshotStore]:
    """The snapshot store at ``path``, or None after one error naming
    the path when it holds no versions (it may not exist at all:
    opening a store creates nothing)."""
    store = SnapshotStore(path)
    if not len(store):
        print(f"error: {path} holds no snapshot versions; create them "
              f"with `repro snapshot`", file=sys.stderr)
        return None
    return store


def _resource_providers(built, registry: MetricsRegistry):
    """Stats stanzas for ``resource.sample`` events: org cache, string
    kernels, and the ML feature cache."""
    cache = built.asdb.cache
    providers = {
        "cache": lambda: {
            "hits": cache.hits,
            "misses": cache.misses,
            "none_keys": cache.none_keys,
            "hit_rate": cache.hit_rate,
        },
    }
    kernels = registry.get("asdb_kernel_candidates_total")
    if kernels is not None:
        providers["kernels"] = lambda: {
            "computed": kernels.value(outcome="computed"),
            "pruned": kernels.value(outcome="pruned"),
        }
    if built.ml_pipeline is not None:
        featcache = built.ml_pipeline.feature_cache
        providers["featcache"] = lambda: {
            "hits": featcache.stats().hits,
            "misses": featcache.stats().misses,
            "size": featcache.stats().size,
            "hit_rate": featcache.stats().hit_rate,
        }
    return providers


def _finish_runlog(
    runlog, registry: MetricsRegistry, built, dataset=None,
    **summary: object,
) -> None:
    """Emit the end-of-run summary: metrics snapshot, degraded-source
    tally, and circuit-breaker states."""
    if not runlog.enabled:
        return
    if dataset is not None:
        summary["degraded"] = {
            "records": sum(
                1 for record in dataset if record.degraded_sources
            ),
            "total": len(dataset),
        }
    if built.resilient:
        summary["breakers"] = {
            source.name: source.breaker_state()
            for source in built.resilient
        }
    runlog.finish(status="ok", metrics=registry, **summary)


def _write_metrics(registry: MetricsRegistry, path: str) -> None:
    payload = (
        registry.to_json() if path.endswith(".json")
        else registry.to_prometheus()
    )
    with open(path, "w") as handle:
        handle.write(payload)
    print(f"wrote metrics snapshot to {path}")


def _write_dataset(dataset, path: str) -> None:
    """Write ``--out``: JSON when ``path`` ends in .json, else CSV.
    Streamed record by record, so an export from a store-backed dataset
    never materializes the document."""
    with open(path, "w") as handle:
        if path.endswith(".json"):
            write_json(dataset, handle)
        else:
            write_csv(dataset, handle)
    print(f"wrote {path}")


def _record_traces(dataset):
    return (
        record.trace for record in dataset if record.trace is not None
    )


def _print_stage_timings(dataset) -> None:
    """Aggregate traced span wall time per pipeline stage."""
    totals = aggregate_spans(_record_traces(dataset))
    if not totals:
        return
    rows = [
        [name, str(count), format_seconds(seconds),
         format_seconds(seconds / count)]
        for name, count, seconds in totals
    ]
    print(render_table(["Span", "Calls", "Total", "Mean"], rows,
                       title="Per-stage wall time"))


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.out and not args.out.endswith((".csv", ".json")):
        print("error: --out must end in .csv or .json", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    world = _world(args)
    faults = retry = None
    if args.inject_faults is not None:
        faults = FaultPlan.uniform(args.inject_faults, seed=args.seed)
        # backoff_base=0 keeps chaos runs fast: retries still happen,
        # they just don't sleep between attempts.
        retry = RetryPolicy(
            seed=args.seed, max_retries=max(0, args.retry),
            backoff_base=0.0,
        )
    runlog = _open_runlog(args, "classify")
    try:
        built = build_asdb(world, _system_config(
            args, registry, runlog, faults=faults, retry=retry,
            dataset_store=args.store,
        ))
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    providers = _resource_providers(built, registry)
    runlog.sample_resources(providers, phase="built")
    dataset = built.asdb.classify_all()
    runlog.sample_resources(providers, phase="classified")
    print(f"classified {len(dataset)} ASes "
          f"(coverage {dataset.coverage():.1%})")
    if args.store is not None:
        print(f"dataset store: {args.store}")
    if faults is not None:
        degraded = sum(
            1 for record in dataset if record.degraded_sources
        )
        errors = registry.counter(
            "asdb_source_errors_total", labelnames=("source", "kind")
        ).total()
        print(f"fault injection: {degraded} records with degraded "
              f"sources, {errors:.0f} source errors absorbed")
    for stage, count in sorted(
        dataset.stage_counts().items(), key=lambda item: -item[1]
    ):
        print(f"  {stage.display:40s} {count:5d}")
    cache = built.asdb.cache
    print(f"cache hit rate: {cache.hit_rate:.1%} "
          f"({cache.hits} hits, {cache.misses} misses, "
          f"{cache.none_keys} keyless)")
    if args.trace:
        _print_stage_timings(dataset)
    if args.profile is not None:
        # Never to stdout: `classify --profile --out=-`-style piping and
        # CSV redirects must not interleave with the narration.
        narration = narrate_profile(_record_traces(dataset),
                                    top=args.profile)
        if args.profile_out:
            with open(args.profile_out, "w") as handle:
                handle.write(narration + "\n")
            print(f"wrote profile narration to {args.profile_out}")
        else:
            print(narration, file=sys.stderr)
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    if args.out:
        _write_dataset(dataset, args.out)
    _finish_runlog(
        runlog, registry, built, dataset,
        asns=len(dataset), coverage=round(dataset.coverage(), 4),
    )
    dataset.close()
    return 0


def _cmd_lookup(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    world = _world(args)
    runlog = _open_runlog(args, "lookup")
    built = build_asdb(world, _system_config(args, registry, runlog))
    asn = args.asn
    if asn is None:
        asn = next(
            a for a in world.asns()
            if world.org_of_asn(a).domain is not None
        )
    if asn not in world.ases:
        print(f"error: AS{asn} is not registered in this world "
              f"(try one of {world.asns()[:5]}...)", file=sys.stderr)
        runlog.finish(status="error: unknown ASN")
        return 2
    record = built.asdb.classify(asn)
    org = world.org_of_asn(asn)
    print(f"AS{asn}")
    print(f"  organization (truth): {org.name}")
    print(f"  classified as: "
          f"{', '.join(str(label) for label in record.labels) or '-'}")
    print(f"  stage: {record.stage.display}")
    print(f"  domain: {record.domain}")
    print(f"  sources: {'|'.join(record.sources) or '-'}")
    correct = record.labels.overlaps_layer1(org.truth)
    print(f"  layer-1 correct: {correct}")
    if args.trace and record.trace is not None:
        print()
        print(narrate_trace(record.trace))
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    _finish_runlog(runlog, registry, built, asn=asn,
                   stage=record.stage.display)
    return 0


def _render_cache_layers(built, registry: MetricsRegistry) -> str:
    """One row per work-avoidance layer: the org-record cache, the
    string-kernel candidate pruner, and the ML feature cache."""
    cache = built.asdb.cache
    rows = [[
        "org cache", str(cache.hits), str(cache.misses),
        f"{cache.hit_rate:.1%}", f"{cache.none_keys} keyless lookups",
    ]]
    kernels = registry.get("asdb_kernel_candidates_total")
    if kernels is not None:
        pruned = kernels.value(outcome="pruned")
        computed = kernels.value(outcome="computed")
        total = pruned + computed
        rows.append([
            "string kernels", f"{pruned:.0f}", f"{computed:.0f}",
            f"{pruned / total:.1%}" if total else "-",
            "candidates pruned before scoring",
        ])
    if built.ml_pipeline is not None:
        stats = built.ml_pipeline.feature_cache.stats()
        rows.append([
            "feature cache", str(stats.hits), str(stats.misses),
            f"{stats.hit_rate:.1%}", f"{stats.size} entries",
        ])
    return render_table(
        ["Layer", "Saved", "Computed", "Saved rate", "Notes"], rows,
        title="Cache & pruning layers",
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    try:
        built = build_asdb(_world(args), _system_config(
            args, registry, dataset_store=args.store
        ))
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dataset = built.asdb.classify_all()
    if args.format == "prometheus":
        print(registry.to_prometheus(), end="")
    elif args.format == "json":
        print(registry.to_json())
    else:
        print(f"classified {len(dataset)} ASes "
              f"(coverage {dataset.coverage():.1%})")
        if args.store is not None:
            print(f"dataset store: {args.store}")
        print(render_metrics_summary(registry))
        print(_render_cache_layers(built, registry))
    dataset.close()
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    world = _world(args)
    gold = build_gold_standard(world, size=args.gold_size, seed=0)
    built = build_asdb(world, _system_config(
        args, exclude_asns_from_training=tuple(gold.asns())
    ))
    dataset = built.asdb.classify_all()
    breakdown = evaluate_stages(dataset, gold)
    rows = [
        [row.stage.display, str(row.coverage), str(row.accuracy)]
        for row in breakdown.rows
    ]
    rows.append(["Overall Layer 1", str(breakdown.overall_l1_coverage),
                 str(breakdown.overall_l1_accuracy)])
    rows.append(["Overall Layer 2", str(breakdown.overall_l2_coverage),
                 str(breakdown.overall_l2_accuracy)])
    print(render_table(["Stage", "Coverage", "Accuracy"], rows,
                       title="Gold-standard evaluation"))
    return 0


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    categories = naicslite.ALL_LAYER1
    if args.layer1:
        try:
            categories = (naicslite.layer1_by_slug(args.layer1),)
        except KeyError:
            print(f"error: unknown layer 1 slug {args.layer1!r}; one of "
                  f"{[c.slug for c in naicslite.ALL_LAYER1]}",
                  file=sys.stderr)
            return 2
    for category in categories:
        print(f"{category.code:2d}  {category.name}  [{category.slug}]")
        for sub in category.layer2:
            print(f"      {sub.code:5s} {sub.name}  [{sub.slug}]")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    store = SnapshotStore(args.store)
    if len(store):
        print(f"error: {args.store} already holds {len(store)} "
              f"version(s); use `repro refresh`", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    runlog = _open_runlog(args, "snapshot")
    try:
        built = build_asdb(_world(args), _system_config(
            args, registry, runlog, snapshot_dir=args.store,
            dataset_store=args.dataset_store,
            sweep_batch_size=args.sweep_batch,
            snapshot_checkpoint_every=args.checkpoint_every,
        ))
    except (StoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    providers = _resource_providers(built, registry)
    runlog.sample_resources(providers, phase="built")
    report = built.daemon.sweep(current_day=0)
    runlog.sample_resources(providers, phase="swept")
    built.snapshots.set_meta({
        "n_orgs": args.n_orgs,
        "world_seed": args.seed,
        "train_ml": not args.no_ml,
        "last_day": 0,
        "epochs": [],
    })
    print(narrate_sweep(report))
    info = built.snapshots.latest()
    print(f"store {args.store}: v{info.version} ({info.kind}, "
          f"{info.record_count} records)")
    if built.snapshots.checkpoint_every:
        print(f"checkpointing every "
              f"{built.snapshots.checkpoint_every} deltas")
    if args.dataset_store is not None:
        print(f"dataset store: {args.dataset_store}")
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    _finish_runlog(
        runlog, registry, built, built.asdb.dataset,
        reclassified=report.reclassified, snapshot_version=info.version,
    )
    built.asdb.dataset.close()
    return 0


def _cmd_refresh(args: argparse.Namespace) -> int:
    probe = _open_releases(args.store)
    if probe is None:
        return 2
    meta = dict(probe.meta)
    if "n_orgs" not in meta or "world_seed" not in meta:
        print(f"error: {args.store} has no world provenance; was it "
              f"created by `repro snapshot`?", file=sys.stderr)
        return 2
    if args.days < 0:
        print("error: --days must be >= 0", file=sys.stderr)
        return 2

    registry = MetricsRegistry()
    world = generate_world(
        WorldConfig(n_orgs=int(meta["n_orgs"]),
                    seed=int(meta["world_seed"]))
    )
    # Replay the recorded churn history so the registry reaches the
    # state the latest snapshot was swept from.
    epochs = list(meta.get("epochs", []))
    for epoch in epochs:
        simulate_churn(world, days=int(epoch["days"]),
                       seed=int(epoch["seed"]),
                       start_day=int(epoch["start_day"]))
    runlog = _open_runlog(args, "refresh", {
        "n_orgs": int(meta["n_orgs"]),
        "seed": int(meta["world_seed"]),
    })
    built = build_asdb(world, _system_config(
        args, registry, runlog, seed=int(meta["world_seed"]),
        train_ml=bool(meta.get("train_ml", True)), snapshot_dir=args.store,
    ))
    store = built.snapshots
    if args.dataset_store is not None:
        try:
            dataset = open_store(
                args.dataset_store, metrics=registry, runlog=runlog
            )
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        latest = store.latest()
        if len(dataset):
            # A populated store left by a previous refresh is reused
            # only when it provably holds the latest version — its
            # streamed document digest must match the manifest's.
            if dataset_digest(dataset) != latest.digest:
                print(f"error: {args.dataset_store} does not match "
                      f"v{latest.version}'s digest; point "
                      f"--dataset-store at an empty or current store",
                      file=sys.stderr)
                return 2
            built.asdb.dataset = dataset
        else:
            built.asdb.dataset = store.load(into=dataset)
    else:
        built.asdb.dataset = store.load()

    last_day = int(meta.get("last_day", 0))
    epoch_seed = (
        args.churn_seed if args.churn_seed is not None else len(epochs) + 1
    )
    stats = simulate_churn(world, days=args.days, seed=epoch_seed,
                           start_day=last_day + 1)
    daemon = MaintenanceDaemon(
        built.asdb, workers=args.workers, snapshots=store,
        last_day=last_day, batch_size=args.sweep_batch,
    )
    providers = _resource_providers(built, registry)
    runlog.sample_resources(providers, phase="churned")
    report = daemon.sweep(last_day + args.days)
    runlog.sample_resources(providers, phase="swept")
    meta["epochs"] = epochs + [{
        "start_day": last_day + 1, "days": args.days, "seed": epoch_seed,
    }]
    meta["last_day"] = last_day + args.days
    store.set_meta(meta)

    print(narrate_sweep(report))
    exact = report.changed_asns == stats.changed_asns
    print(f"reclassified {report.reclassified} ASes "
          f"({len(report.new_asns)} new, "
          f"{len(report.updated_asns)} updated)")
    print(f"reclassified exactly the churned set: {exact}")
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    _finish_runlog(
        runlog, registry, built, built.asdb.dataset,
        reclassified=report.reclassified, exact=exact,
    )
    built.asdb.dataset.close()
    return 0 if exact else 1


def _format_asns(asns: Tuple[int, ...], limit: int = 12) -> str:
    shown = ", ".join(f"AS{asn}" for asn in asns[:limit])
    extra = len(asns) - limit
    return shown + (f", (+{extra} more)" if extra > 0 else "")


def _cmd_diff(args: argparse.Namespace) -> int:
    store = _open_releases(args.store)
    if store is None:
        return 2
    old = args.from_version
    new = args.to_version
    if new is None:
        new = len(store)
    if old is None:
        old = new - 1
    try:
        diff = store.diff(old, new)
    except (SnapshotError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({
            "from": old,
            "to": new,
            "added": list(diff.added),
            "removed": list(diff.removed),
            "relabeled": list(diff.relabeled),
            "stage_changed": list(diff.stage_changed),
        }, indent=2))
        return 0
    print(f"v{old} -> v{new}: {len(diff.added)} added, "
          f"{len(diff.removed)} removed, {len(diff.relabeled)} "
          f"relabeled, {len(diff.stage_changed)} stage-changed")
    for title, asns in (
        ("added", diff.added),
        ("removed", diff.removed),
        ("relabeled", diff.relabeled),
        ("stage-changed", diff.stage_changed),
    ):
        if asns:
            print(f"  {title}: {_format_asns(asns)}")
    if diff.empty:
        print("  (datasets are classification-identical)")
    return 0


def _cmd_asof(args: argparse.Namespace) -> int:
    if (args.version is None) == (args.day is None):
        print("error: provide exactly one of --version or --day",
              file=sys.stderr)
        return 2
    if args.out and not args.out.endswith((".csv", ".json")):
        print("error: --out must end in .csv or .json", file=sys.stderr)
        return 2
    store = _open_releases(args.store)
    if store is None:
        return 2
    history = ReleaseHistory(store)
    into = None
    try:
        if args.dataset_store is not None:
            into = open_store(args.dataset_store)
        dataset, info = history.asof(
            version=args.version, day=args.day, into=into
        )
    except (SnapshotError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    asked = (f"day {args.day}" if args.day is not None
             else f"v{args.version}")
    window = (f"({info.since_day}, {info.through_day}]"
              if info.through_day is not None else "(no sweep window)")
    print(f"as of {asked}: v{info.version} ({info.kind}, "
          f"window {window})")
    print(f"  records: {info.record_count}  digest: {info.digest} "
          f"(verified)")
    if args.out:
        _write_dataset(dataset, args.out)
    dataset.close()
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    store = _open_releases(args.store)
    if store is None:
        return 2
    try:
        events = ReleaseHistory(store).timeline(args.asn)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({
            "asn": args.asn,
            "versions": len(store),
            "events": [event.to_dict() for event in events],
        }, indent=2))
        return 0
    if not events:
        print(f"AS{args.asn} never appears in {args.store} "
              f"({len(store)} versions)")
        return 0
    rows = []
    for event in events:
        item = event.item or {}
        window = (f"({event.since_day}, {event.through_day}]"
                  if event.through_day is not None else "-")
        rows.append([
            f"v{event.version}",
            window,
            event.change,
            categorization(event.item) if event.item is not None
            else "-",
            str(item.get("stage", "-")),
        ])
    print(render_table(
        ["Version", "Window", "Change", "Categories", "Stage"],
        rows,
        title=f"AS{args.asn} classification timeline",
    ))
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    store = _open_releases(args.store)
    if store is None:
        return 2
    new = args.to_version if args.to_version is not None else len(store)
    old = args.from_version if args.from_version is not None else new - 1
    try:
        report = ReleaseHistory(store).churn(old, new)
    except (SnapshotError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    print(f"v{old} -> v{new}: {report.added} added, "
          f"{report.removed} removed, {report.relabeled} relabeled, "
          f"{report.unchanged} unchanged "
          f"({report.old_records} -> {report.new_records} records)")
    if report.flows:
        print(render_table(
            ["From", "To", "ASes"],
            [[source, target, str(count)]
             for source, target, count in report.flows],
            title="Category flow",
        ))
    else:
        print("  (no category movement between these releases)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.compare is None and args.ledger is None:
        print("error: provide a LEDGER path or --compare A B",
              file=sys.stderr)
        return 2
    try:
        if args.compare is not None:
            a_path, b_path = args.compare
            print(render_compare(load_events(a_path),
                                 load_events(b_path), a_path, b_path))
        else:
            print(render_report(load_events(args.ledger), args.ledger))
    except (OSError, LedgerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    try:
        events = load_events(args.ledger)
        rules = load_slos(args.slo)
    except (OSError, LedgerError, SloError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = evaluate_slos(events, rules)
    print(render_health(results))
    return 1 if any(not result.ok for result in results) else 0


def _build_serving_app(args: argparse.Namespace, registry, runlog):
    """Wire a ServingApp from the chosen source (snapshots, store, or
    a fresh classification pass).  Returns the app, or an exit code on
    a usage/source error."""
    from .serving import (
        ClassificationQueue,
        QueueWorker,
        ServingApp,
        history_from_snapshots,
        index_from_snapshots,
        index_from_store,
        refresh_history_from_snapshots,
        refresh_index_from_snapshots,
    )

    sources = sum(
        1 for flag in (args.snapshots, args.store) if flag is not None
    )
    if sources > 1:
        print("error: choose one of --snapshots or --store",
              file=sys.stderr)
        return 2
    if args.lazy and sources:
        print("error: --lazy only applies to fresh-world serving",
              file=sys.stderr)
        return 2

    if args.snapshots is not None:
        if _open_releases(args.snapshots) is None:
            return 2

        def rebuild(generation: int):
            return index_from_snapshots(
                args.snapshots, version=args.version,
                generation=generation,
            )

        def rebuild_history(generation: int):
            return history_from_snapshots(
                args.snapshots, generation=generation
            )

        try:
            index = rebuild(1)
            history = rebuild_history(1)
        except (SnapshotError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # Delta-apply refresh only makes sense tracking the latest
        # release: a pinned --version always re-serves that version.
        incremental = args.version is None
        return ServingApp(
            index, rebuild=rebuild, metrics=registry,
            runlog=runlog, retry_after=args.retry_after,
            history=history,
            rebuild_history=rebuild_history,
            refresh_incremental=(
                (lambda generation, previous:
                 refresh_index_from_snapshots(
                     args.snapshots, previous, generation))
                if incremental else None
            ),
            refresh_history_incremental=(
                (lambda generation, previous:
                 refresh_history_from_snapshots(
                     args.snapshots, previous, generation))
                if incremental else None
            ),
        )

    if args.store is not None:
        def rebuild(generation: int):
            # Reopen per rebuild: a sqlite store picks up rows written
            # by another process since the last swap, and the handle
            # never crosses threads.
            store = open_store(args.store)
            try:
                return index_from_store(
                    store, generation=generation, source=args.store
                )
            finally:
                store.close()

        try:
            index = rebuild(1)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return ServingApp(index, rebuild=rebuild, metrics=registry,
                          runlog=runlog, retry_after=args.retry_after)

    # Fresh world: classify (unless --lazy), then serve with on-demand
    # classification through the bounded background queue.
    built = build_asdb(_world(args),
                       _system_config(args, registry, runlog))
    if not args.lazy:
        built.asdb.classify_all()

    def rebuild(generation: int):
        return index_from_store(
            built.asdb.dataset, generation=generation, source="pipeline"
        )

    queue = ClassificationQueue(args.queue_size, metrics=registry)
    app = ServingApp(rebuild(1), rebuild=rebuild, queue=queue,
                     metrics=registry, runlog=runlog,
                     retry_after=args.retry_after)
    app.worker = QueueWorker(
        queue,
        classify=lambda asns: built.asdb.classify_batch(
            asns, workers=args.workers
        ),
        classify_one=built.asdb.classify,
        after=app.on_drained,
        batch_size=args.queue_batch,
    )
    return app


def _cmd_serve(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    runlog = _open_runlog(args, "serve", {
        "snapshots": args.snapshots, "store": args.store,
        "n_orgs": args.n_orgs, "seed": args.seed,
    })
    app = _build_serving_app(args, registry, runlog)
    if isinstance(app, int):
        runlog.finish(status="error: bad serving source")
        return app

    async def _run() -> None:
        host, port = await app.start(args.host, args.port)
        print(f"serving on http://{host}:{port}", flush=True)
        print(f"index: {len(app.index)} records "
              f"(generation {app.index.version.generation})",
              flush=True)
        if app.history is not None:
            print(f"history: {app.history.latest_version} release(s) "
                  f"over {len(app.history)} ASes", flush=True)
        if args.ready_file:
            with open(args.ready_file, "w") as handle:
                handle.write(f"{host} {port}\n")
        try:
            if args.max_seconds is not None:
                await asyncio.sleep(args.max_seconds)
            else:
                await app.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await app.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    if args.metrics_out:
        _write_metrics(registry, args.metrics_out)
    requests = registry.counter(
        "asdb_serve_requests_total",
        labelnames=("endpoint", "status"),
    ).total()
    runlog.finish(status="ok", metrics=registry,
                  requests=int(requests))
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    from .whois import read_dump, write_dump

    if args.parse:
        try:
            with open(args.parse) as handle:
                registry = read_dump(handle)
        except OSError as exc:
            print(f"error: cannot read {args.parse}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        print(f"parsed {len(registry)} AS objects from {args.parse}")
        stats = registry.field_availability()
        for fieldname, value in sorted(stats.items()):
            print(f"  {fieldname:8s} {value:.1%}")
        return 0
    world = _world(args)
    if not args.out:
        print("error: provide --out FILE or --parse FILE",
              file=sys.stderr)
        return 2
    with open(args.out, "w") as handle:
        count = write_dump(world.registry, handle)
    print(f"wrote {count} AS objects to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "classify": _cmd_classify,
        "lookup": _cmd_lookup,
        "evaluate": _cmd_evaluate,
        "taxonomy": _cmd_taxonomy,
        "dump": _cmd_dump,
        "stats": _cmd_stats,
        "snapshot": _cmd_snapshot,
        "refresh": _cmd_refresh,
        "diff": _cmd_diff,
        "asof": _cmd_asof,
        "timeline": _cmd_timeline,
        "churn": _cmd_churn,
        "report": _cmd_report,
        "health": _cmd_health,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


def run(argv: Optional[List[str]] = None) -> int:
    """Process entry point: :func:`main` plus pipe-friendly exits.

    Piping CLI output to ``head``/``less`` closes stdout early; Python
    turns the ignored SIGPIPE into :class:`BrokenPipeError` on the next
    write.  A traceback there is noise — the reader got everything it
    asked for.  This boundary flushes what it can, points the stdout
    file descriptor at ``/dev/null`` (so interpreter shutdown cannot
    trip over the dead pipe again), and exits 0: where a SIGPIPE-killed
    process would report 141, the truncation is deliberate here, so the
    quiet success exit is too.  Ctrl-C exits 130 like a signal-killed
    process.
    """
    try:
        code = main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        try:
            sys.stderr.flush()
        except (OSError, ValueError):
            pass
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError, AttributeError,
                io.UnsupportedOperation):
            pass
        return 0
    except KeyboardInterrupt:
        return 130
