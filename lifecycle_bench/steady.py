"""Steadiness runs: the evidence behind each bound in BENCHMARK.json.

Run from the repository root::

    python3 lifecycle_bench/steady.py
    python3 lifecycle_bench/steady.py \\
        --out lifecycle_bench/steadiness-2.json \\
        --baseline lifecycle_bench/steadiness.json

Runs ``run.py`` with ``--seconds`` set to BENCHMARK.json's
``run_seconds`` on seeds 1 to :data:`SEEDS` of every workload, one run
at a time, interleaving the workloads (seed 1 of every workload, then seed
2, ...) so a slow stretch of the machine hits all of them alike.  For
every workload and end-to-end metric it records the median, the
quartiles (Python's ``statistics.quantiles(values, n=4)``), min, max and
the spread (quartile distance over the median), and gives the pair a
verdict:

* ``steady``: the spread is at most a third of the bound (the target);
* ``within bound``: the spread is at most the bound;
* ``ABOVE BOUND``: the spread is larger than the bound.

With ``--baseline`` (an earlier output of this script) it also records
how much worse each median got against the baseline's, as a share of
the baseline median, and flags a shift larger than the bound.

Everything is written to ``--out`` (default
``lifecycle_bench/steadiness.json``).  Exits 1 if a run fails, if any
spread is more than a third of its bound, or if any median shift is
larger than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Runs per workload in one set.
SEEDS = 10


def _summary(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def _verdict(spread, bound) -> str:
    if spread <= bound / 3:
        return "steady"
    if spread <= bound:
        return "within bound"
    return "ABOVE BOUND"


def _worse_by(median, baseline, better) -> float:
    """How much worse ``median`` is than ``baseline``, as a share of
    ``baseline`` (negative when it is better)."""
    change = (median - baseline) / baseline
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=os.path.join(HERE,
                                                      "steadiness.json"))
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    baseline = None
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)["workloads"]
    seconds = bench["run_seconds"]
    workloads = [item["name"] for item in bench["workloads"]]
    metrics = {item["name"]: item for item in bench["end_to_end"]}
    values = {name: {metric: [] for metric in metrics} for name in workloads}
    walls = {name: [] for name in workloads}
    ok = True
    for seed in range(1, SEEDS + 1):
        for name in workloads:
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=180,
            )
            walls[name].append(time.monotonic() - start)
            last = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not last["correct"] or last["failed"]:
                ok = False
                print(f"{name} seed {seed}: FAILED\n{done.stdout[-2000:]}"
                      f"{done.stderr[-2000:]}")
            for metric in metrics:
                values[name][metric].append(
                    last["metrics"][metric]["value"])
            print(f"{name} seed {seed}: {walls[name][-1]:.1f} s  " + "  ".join(
                f"{metric}={last['metrics'][metric]['value']:.4g}"
                for metric in metrics), flush=True)
    report = {"seconds": seconds, "seeds": SEEDS,
              "baseline": args.baseline, "workloads": {}}
    counts = {}
    for name in workloads:
        summaries = {}
        for metric, spec in metrics.items():
            summary = _summary(values[name][metric], spec["bound"])
            summary["verdict"] = _verdict(summary["spread"], spec["bound"])
            counts[summary["verdict"]] = counts.get(summary["verdict"], 0) + 1
            line = (f"{name:<8} {metric:<20} median {summary['median']:.4g}  "
                    f"spread {summary['spread']:.3f} (bound {spec['bound']}) "
                    f"{summary['verdict']}")
            if summary["verdict"] != "steady":
                ok = False
            if baseline is not None:
                old = baseline[name]["metrics"][metric]["median"]
                summary["worse_by"] = _worse_by(summary["median"], old,
                                                spec["better"])
                line += f"  median worse by {summary['worse_by']:+.3f}"
                if summary["worse_by"] > spec["bound"]:
                    line += " ABOVE BOUND"
                    ok = False
            summaries[metric] = summary
            print(line)
        report["workloads"][name] = {
            "run_wall_s": _summary(walls[name], None),
            "metrics": summaries,
        }
    report["verdicts"] = counts
    print("verdicts: " + ", ".join(f"{count} {verdict}"
                                   for verdict, count in sorted(counts.items())))
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
