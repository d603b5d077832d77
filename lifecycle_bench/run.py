"""Lifecycle benchmark of the deployed ASdb path.

Run from the repository root::

    python3 lifecycle_bench/run.py --workload churn --seed 1 --seconds 4
    python3 lifecycle_bench/run.py --workload churn --seed 1 --seconds 4 \\
        --trace 1

One run is three identical lifecycles of the seed: set up, release,
then the workload's maintenance cycles with a read burst after each
(see ``lifecycle.py`` and ``NOTES.md``).  ``--seconds`` sets the read
volume: ``seconds * READ_RATE`` requests, split evenly between the
bursts, which take about that long in all; ``BENCHMARK.json`` gives it
as ``run_seconds``.  The run prints every end-to-end metric
by name with its unit, the operations attempted and failed, and the
final release digest, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 when
a correctness check fails and 2 when the program cannot be imported.

``--trace 1`` first runs the same command untraced in a child process,
then runs the lifecycles again with every layer wrapped in spans, prints
the per-layer tables and the tracing overhead, and reports the
per-layer metrics instead of the end-to-end ones.  The spans are
written to ``lifecycle_bench/_out/``.

This module imports only the standard library at the top: the load
generator's ``spawn``-ed process re-imports it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END_UNITS = {
    "setup_s": "s",
    "release_as_per_s": "1/s",
    "update_to_served_s": "s",
    "lookup_rps": "1/s",
    "lookup_p50_ms": "ms",
    "lookup_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    ``repro`` imported is that one."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


def _untraced(args) -> dict:
    """The same command without tracing, in a child process; returns
    its end-to-end metrics."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=170, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"untraced run failed ({done.returncode}): "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])["metrics"]


def _print_end_to_end(lifecycle, result, values) -> None:
    workload = result.workload
    lifecycles = len(result.lifecycles)
    print(f"workload {workload.name}: {result.ases_released} ASes released, "
          f"{lifecycles} lifecycles of {workload.cycles} cycles of "
          f"{workload.cycle_days} days, {result.burst_seconds:.2f} s of reads")
    fast = result.fast_blocks()
    blocks = sum(len(burst) for burst in result.lifecycles[0].blocks)
    requests = sum(len(block) for _, block in fast)
    per_block = (f"fastest {len(fast)} of {blocks} blocks of "
                 f"{lifecycle.READ_BLOCK} requests, each the best of "
                 f"{lifecycles}")
    notes = {
        "setup_s": "median of " + " ".join(
            f"{life.setup_s:.4g}" for life in result.lifecycles),
        "release_as_per_s": (
            f"{len(result.lifecycles[0].release_parts)} segments, best of "
            f"{lifecycles}; whole releases " + " ".join(
                f"{result.ases_released / sum(life.release_parts):.4g}"
                for life in result.lifecycles)),
        "update_to_served_s":
            f"median over {workload.cycles} cycles, best of {lifecycles}",
        "lookup_rps": per_block,
        "lookup_p50_ms": f"over their {requests} requests",
        "lookup_p99_ms":
            f"{requests - -(-requests * 99 // 100)} requests beyond it",
    }
    for name, unit in END_TO_END_UNITS.items():
        extra = f"  {notes[name]}" if name in notes else ""
        print(f"  {name:<20} {values[name]:>12.4f} {unit}{extra}")
    statuses = ", ".join(f"{status}: {count}"
                         for status, count in sorted(result.statuses.items()))
    print(f"  {len(result.latencies)} requests in {result.bursts} bursts; "
          f"statuses {{{statuses}}}; loadgen.busy_share "
          f"{result.client_cpu_seconds / result.burst_seconds:.3f}")
    print(f"  operations attempted {result.attempted}, failed {result.failed}")
    print(f"  final release digest {result.final_digest}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import lifecycle

    workload = lifecycle.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (choose from "
              f"{', '.join(lifecycle.WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "_work", f"run-{os.getpid()}")
    untraced = None
    if args.trace:
        import layers
        import spans

        untraced = _untraced(args)
    try:
        result = lifecycle.run(workload, args.seed, args.seconds, workdir,
                               trace=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = result.end_to_end()
    _print_end_to_end(lifecycle, result, values)
    for failure in result.failures:
        print(f"  CHECK FAILED: {failure}")
    correct = not result.failures
    if args.trace:
        if not layers.report(result.spans, result):
            correct = False
            print("  CHECK FAILED: more than 10% of a phase's wall time "
                  "is unattributed")
        print("\ntracing overhead (traced - untraced):")
        for name, unit in END_TO_END_UNITS.items():
            delta = values[name] - untraced[name]["value"]
            print(f"  {name:<20} {delta:>+12.4f} {unit}")
        metrics = {
            name: {"value": value, "unit": layers.unit_of(name)}
            for name, value in layers.per_layer(result.spans, result).items()
        }
        out = os.path.join(HERE, "_out")
        os.makedirs(out, exist_ok=True)
        spans.write(result.spans, os.path.join(
            out, f"spans-{workload.name}-{args.seed}.jsonl.gz"))
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
