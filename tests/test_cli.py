"""Tests for the command-line interface."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from repro import WorldConfig, generate_world
from repro.cli import build_parser, main
from repro.obs import read_ledger


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_classify_defaults(self):
        args = build_parser().parse_args(["classify"])
        assert args.command == "classify"
        assert args.n_orgs == 400
        assert not args.no_ml

    def test_lookup_asn(self):
        args = build_parser().parse_args(["lookup", "--asn", "64512"])
        assert args.asn == 64512


class TestFlagSurface:
    """Every subcommand's flags, pinned: option strings, dest, default,
    type, nargs, const, choices and required-ness.  The config stanza
    of a run ledger is the parsed arguments, so a flag that moves or
    changes here changes a ledger's ``config_digest`` too."""

    SURFACE = {
        "classify": [
            (("--n-orgs",), "n_orgs", 400, "_positive_int", None, None, None,
             False),
            (("--seed",), "seed", 42, "int", None, None, None, False),
            (("--no-ml",), "no_ml", False, None, 0, True, None, False),
            (("--workers",), "workers", 1, "_positive_int", None, None, None,
             False),
            (("--profile",), "profile", None, "_positive_int", "?", 5, None,
             False),
            (("--profile-out",), "profile_out", None, None, None, None, None,
             False),
            (("--out",), "out", None, None, None, None, None, False),
            (("--store",), "store", None, None, None, None, None, False),
            (("--inject-faults",), "inject_faults", None, "float", "?", 0.15,
             None, False),
            (("--retry",), "retry", 2, "int", None, None, None, False),
            (("--trace",), "trace", False, None, 0, True, None, False),
            (("--metrics-out",), "metrics_out", None, None, None, None, None,
             False),
            (("--runlog",), "runlog", None, None, None, None, None, False),
        ],
        "lookup": [
            (("--asn",), "asn", None, "int", None, None, None, False),
            (("--n-orgs",), "n_orgs", 300, "_positive_int", None, None, None,
             False),
            (("--seed",), "seed", 9, "int", None, None, None, False),
            (("--trace",), "trace", False, None, 0, True, None, False),
            (("--metrics-out",), "metrics_out", None, None, None, None, None,
             False),
            (("--runlog",), "runlog", None, None, None, None, None, False),
        ],
        "stats": [
            (("--n-orgs",), "n_orgs", 200, "_positive_int", None, None, None,
             False),
            (("--seed",), "seed", 42, "int", None, None, None, False),
            (("--no-ml",), "no_ml", False, None, 0, True, None, False),
            (("--format",), "format", "summary", None, None, None,
             ("summary", "prometheus", "json"), False),
            (("--workers",), "workers", 1, "_positive_int", None, None, None,
             False),
            (("--store",), "store", None, None, None, None, None, False),
        ],
        "evaluate": [
            (("--n-orgs",), "n_orgs", 800, "_positive_int", None, None, None,
             False),
            (("--seed",), "seed", 33, "int", None, None, None, False),
            (("--gold-size",), "gold_size", 150, "_positive_int", None, None,
             None, False),
        ],
        "taxonomy": [
            (("--layer1",), "layer1", None, None, None, None, None, False),
        ],
        "snapshot": [
            (("--store",), "store", None, None, None, None, None, True),
            (("--n-orgs",), "n_orgs", 200, "_positive_int", None, None, None,
             False),
            (("--seed",), "seed", 42, "int", None, None, None, False),
            (("--no-ml",), "no_ml", False, None, 0, True, None, False),
            (("--workers",), "workers", 1, "_positive_int", None, None, None,
             False),
            (("--trace",), "trace", False, None, 0, True, None, False),
            (("--metrics-out",), "metrics_out", None, None, None, None, None,
             False),
            (("--runlog",), "runlog", None, None, None, None, None, False),
            (("--dataset-store",), "dataset_store", None, None, None, None,
             None, False),
            (("--sweep-batch",), "sweep_batch", None, "_positive_int", None,
             None, None, False),
            (("--checkpoint-every",), "checkpoint_every", None,
             "_positive_int", None, None, None, False),
        ],
        "refresh": [
            (("--store",), "store", None, None, None, None, None, True),
            (("--days",), "days", None, "int", None, None, None, True),
            (("--churn-seed",), "churn_seed", None, "int", None, None, None,
             False),
            (("--workers",), "workers", 1, "_positive_int", None, None, None,
             False),
            (("--trace",), "trace", False, None, 0, True, None, False),
            (("--metrics-out",), "metrics_out", None, None, None, None, None,
             False),
            (("--runlog",), "runlog", None, None, None, None, None, False),
            (("--dataset-store",), "dataset_store", None, None, None, None,
             None, False),
            (("--sweep-batch",), "sweep_batch", None, "_positive_int", None,
             None, None, False),
        ],
        "diff": [
            (("--store",), "store", None, None, None, None, None, True),
            (("--from",), "from_version", None, "int", None, None, None,
             False),
            (("--to",), "to_version", None, "int", None, None, None, False),
            (("--json",), "json", False, None, 0, True, None, False),
        ],
        "asof": [
            (("--store",), "store", None, None, None, None, None, True),
            (("--version",), "version", None, "int", None, None, None, False),
            (("--day",), "day", None, "int", None, None, None, False),
            (("--out",), "out", None, None, None, None, None, False),
            (("--dataset-store",), "dataset_store", None, None, None, None,
             None, False),
        ],
        "timeline": [
            (("--store",), "store", None, None, None, None, None, True),
            (("--asn",), "asn", None, "int", None, None, None, True),
            (("--json",), "json", False, None, 0, True, None, False),
        ],
        "churn": [
            (("--store",), "store", None, None, None, None, None, True),
            (("--from",), "from_version", None, "int", None, None, None,
             False),
            (("--to",), "to_version", None, "int", None, None, None, False),
            (("--json",), "json", False, None, 0, True, None, False),
        ],
        "report": [
            ((), "ledger", None, None, "?", None, None, False),
            (("--compare",), "compare", None, None, 2, None, None, False),
        ],
        "health": [
            ((), "ledger", None, None, None, None, None, True),
            (("--slo",), "slo", None, None, None, None, None, True),
        ],
        "serve": [
            (("--host",), "host", "127.0.0.1", None, None, None, None, False),
            (("--port",), "port", 8080, "int", None, None, None, False),
            (("--snapshots",), "snapshots", None, None, None, None, None,
             False),
            (("--version",), "version", None, "int", None, None, None, False),
            (("--store",), "store", None, None, None, None, None, False),
            (("--n-orgs",), "n_orgs", 200, "_positive_int", None, None, None,
             False),
            (("--seed",), "seed", 42, "int", None, None, None, False),
            (("--no-ml",), "no_ml", False, None, 0, True, None, False),
            (("--workers",), "workers", 1, "_positive_int", None, None, None,
             False),
            (("--lazy",), "lazy", False, None, 0, True, None, False),
            (("--queue-size",), "queue_size", 256, "_positive_int", None,
             None, None, False),
            (("--queue-batch",), "queue_batch", 16, "int", None, None, None,
             False),
            (("--retry-after",), "retry_after", 1, "int", None, None, None,
             False),
            (("--ready-file",), "ready_file", None, None, None, None, None,
             False),
            (("--max-seconds",), "max_seconds", None, "float", None, None,
             None, False),
            (("--metrics-out",), "metrics_out", None, None, None, None, None,
             False),
            (("--runlog",), "runlog", None, None, None, None, None, False),
        ],
        "dump": [
            (("--n-orgs",), "n_orgs", 200, "_positive_int", None, None, None,
             False),
            (("--seed",), "seed", 42, "int", None, None, None, False),
            (("--out",), "out", None, None, None, None, None, False),
            (("--parse",), "parse", None, None, None, None, None, False),
        ],
    }

    @staticmethod
    def _row(action):
        return (tuple(action.option_strings), action.dest, action.default,
                getattr(action.type, "__name__", None), action.nargs,
                action.const, action.choices, action.required)

    def test_every_subcommand_and_flag(self):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        actual = {
            name: {
                action.dest: self._row(action)
                for action in subparser._actions
                if not isinstance(action, argparse._HelpAction)
            }
            for name, subparser in subparsers.choices.items()
        }
        assert actual == {
            name: {row[1]: row for row in rows}
            for name, rows in self.SURFACE.items()
        }

    @pytest.mark.parametrize("argv", [
        ["diff", "--store", "releases", "--dataset-store", "sqlite:x"],
        ["serve", "--full-refresh"],
        ["classify", "--executor", "process"],
    ], ids=["diff--dataset-store", "serve--full-refresh",
            "classify--executor"])
    def test_deleted_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["refresh", "--store", "{}", "--days", "1", "--sweep-batch", "0"],
        ["snapshot", "--store", "{}", "--sweep-batch", "0"],
        ["snapshot", "--store", "{}", "--checkpoint-every", "0"],
        ["serve", "--n-orgs", "20", "--no-ml", "--queue-size", "0"],
        ["classify", "--workers", "0"],
        ["classify", "--n-orgs", "0"],
        ["evaluate", "--gold-size", "0"],
        ["evaluate", "--gold-size", "-3"],
        ["classify", "--profile", "0"],
        ["classify", "--profile", "-2"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}"
        + ("" if argv[-1] == "0" else argv[-1]))
    def test_zero_size_is_a_usage_error(self, tmp_path, capsys, argv):
        """Each is refused before any work, with one usage line; the
        refresh runs against a real release, so only the flag's type
        stands between it and the sweep."""
        store = str(tmp_path / "releases")
        assert main(["snapshot", "--store", store, "--n-orgs", "20",
                     "--seed", "3", "--no-ml"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main([store if arg == "{}" else arg for arg in argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be >= 1, got {argv[-1]}" in err
        assert "Traceback" not in err

    def test_bare_profile_means_five(self):
        args = build_parser().parse_args(["classify", "--profile"])
        assert args.profile == 5


class TestTaxonomyCommand:
    def test_prints_all_categories(self, capsys):
        assert main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "Computer and Information Technology" in out
        assert "Internet Service Provider (ISP)" in out
        assert out.count("[") >= 95 + 17  # every slug printed

    def test_layer1_filter(self, capsys):
        assert main(["taxonomy", "--layer1", "finance"]) == 0
        out = capsys.readouterr().out
        assert "Finance and Insurance" in out
        assert "Internet Service Provider" not in out

    def test_unknown_layer1(self, capsys):
        assert main(["taxonomy", "--layer1", "nope"]) == 2


class TestClassifyCommand:
    def test_classify_small_world(self, capsys):
        code = main(
            ["classify", "--n-orgs", "40", "--seed", "5", "--no-ml"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "classified" in out
        assert "coverage" in out

    def test_classify_writes_csv(self, tmp_path, capsys):
        out_file = tmp_path / "dataset.csv"
        code = main(
            ["classify", "--n-orgs", "40", "--seed", "5", "--no-ml",
             "--out", str(out_file)]
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("ASN,Layer1,Layer2,Sources,Stage")

    def test_classify_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "dataset.json"
        code = main(
            ["classify", "--n-orgs", "40", "--seed", "5", "--no-ml",
             "--out", str(out_file)]
        )
        assert code == 0
        document = json.loads(out_file.read_text())
        assert document["format"] == "asdb-repro/1"
        assert document["records"]

    def test_bad_extension_rejected(self, tmp_path, capsys):
        code = main(
            ["classify", "--n-orgs", "40", "--seed", "5", "--no-ml",
             "--out", str(tmp_path / "dataset.xlsx")]
        )
        assert code == 2


class TestLookupCommand:
    def test_lookup_default_asn(self, capsys):
        assert main(["lookup", "--n-orgs", "60", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "classified as:" in out
        assert "stage:" in out

    def test_lookup_unknown_asn(self, capsys):
        code = main(
            ["lookup", "--asn", "999999999", "--n-orgs", "60",
             "--seed", "9"]
        )
        assert code == 2

    def test_lookup_trace_narrates_spans(self, capsys):
        code = main(
            ["lookup", "--n-orgs", "60", "--seed", "9", "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "classified in" in out
        assert "cache" in out
        assert "asn_match" in out
        assert "consensus" in out


class TestObservabilityFlags:
    def test_config_digest_ignores_output_destinations(
        self, tmp_path, capsys
    ):
        def digest(seed, out):
            ledger = tmp_path / f"{out}.ndjson"
            assert main(
                ["classify", "--n-orgs", "30", "--seed", seed, "--no-ml",
                 "--runlog", str(ledger), "--out", str(tmp_path / out)]
            ) == 0
            return read_ledger(str(ledger))[0]["config_digest"]

        assert digest("3", "a.csv") == digest("3", "b.csv")
        assert digest("4", "c.csv") != digest("3", "d.csv")

    def test_classify_prints_cache_hit_rate(self, capsys):
        code = main(
            ["classify", "--n-orgs", "40", "--seed", "5", "--no-ml"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hit rate:" in out
        assert "keyless" in out

    def test_classify_metrics_out_prometheus(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.txt"
        code = main(
            ["classify", "--n-orgs", "40", "--seed", "5", "--no-ml",
             "--metrics-out", str(metrics_file)]
        )
        assert code == 0
        text = metrics_file.read_text()
        # Stage counters: one series per Stage value.
        from repro.core import Stage

        for stage in Stage:
            assert f'asdb_stage_total{{stage="{stage.value}"}}' in text
        # Per-source lookup counters with outcome labels.
        assert 'asdb_source_lookups_total{source="peeringdb"' in text
        assert 'outcome="match"' in text and 'outcome="miss"' in text
        # Latency histograms with cumulative buckets.
        assert "asdb_classify_seconds_bucket" in text
        assert "asdb_source_lookup_seconds_bucket" in text
        assert "asdb_domain_choice_seconds_bucket" in text
        assert 'le="+Inf"' in text
        # Cache hit-rate gauge.
        assert "asdb_cache_hit_rate" in text

    def test_classify_metrics_out_json(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        code = main(
            ["classify", "--n-orgs", "40", "--seed", "5", "--no-ml",
             "--metrics-out", str(metrics_file)]
        )
        assert code == 0
        document = json.loads(metrics_file.read_text())
        assert "asdb_stage_total" in document["counters"]
        assert "asdb_cache_hit_rate" in document["gauges"]
        assert "asdb_classify_seconds" in document["histograms"]

    def test_classify_trace_prints_timing_table(self, capsys):
        code = main(
            ["classify", "--n-orgs", "40", "--seed", "5", "--no-ml",
             "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-stage wall time" in out
        assert "cache" in out


class TestStatsCommand:
    def test_summary_table(self, capsys):
        code = main(
            ["stats", "--n-orgs", "40", "--seed", "5", "--no-ml"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Metrics summary" in out
        assert "asdb_stage_total" in out
        assert "asdb_classify_seconds" in out

    def test_prometheus_format(self, capsys):
        code = main(
            ["stats", "--n-orgs", "40", "--seed", "5", "--no-ml",
             "--format", "prometheus"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE asdb_stage_total counter" in out
        assert "# TYPE asdb_classify_seconds histogram" in out

    def test_json_format(self, capsys):
        code = main(
            ["stats", "--n-orgs", "40", "--seed", "5", "--no-ml",
             "--format", "json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["counters"]["asdb_stage_total"]["series"]


class TestEvaluateCommand:
    def test_evaluate_runs(self, capsys):
        code = main(
            ["evaluate", "--n-orgs", "150", "--seed", "3",
             "--gold-size", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Overall Layer 1" in out
        assert "Gold-standard evaluation" in out


class TestDumpCommand:
    def test_dump_write_and_parse(self, tmp_path, capsys):
        out = tmp_path / "whois.dump"
        assert main(
            ["dump", "--n-orgs", "30", "--seed", "4", "--out", str(out)]
        ) == 0
        assert out.exists()
        assert main(["dump", "--parse", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "parsed" in stdout
        assert "name" in stdout

    def test_dump_requires_out_or_parse(self, capsys):
        assert main(["dump", "--n-orgs", "30"]) == 2


class TestReleaseCommands:
    """snapshot / refresh / diff drive the maintenance tentpole."""

    @pytest.fixture()
    def store(self, tmp_path):
        return str(tmp_path / "releases")

    def _snapshot(self, store):
        return main(
            ["snapshot", "--store", store, "--n-orgs", "60",
             "--seed", "11", "--no-ml", "--workers", "2"]
        )

    def test_snapshot_creates_v1(self, store, capsys):
        assert self._snapshot(store) == 0
        out = capsys.readouterr().out
        assert "stored snapshot v1" in out
        assert "baseline" in out

    def test_snapshot_refuses_existing_store(self, store, capsys):
        assert self._snapshot(store) == 0
        assert self._snapshot(store) == 2
        assert "already holds" in capsys.readouterr().err

    def test_refresh_then_diff(self, store, capsys):
        assert self._snapshot(store) == 0
        code = main(
            ["refresh", "--store", store, "--days", "120",
             "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reclassified exactly the churned set: True" in out
        assert main(["diff", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "v1 -> v2:" in out

    def test_refresh_requires_snapshot(self, store, capsys):
        assert main(["refresh", "--store", store, "--days", "30"]) == 2

    @pytest.mark.parametrize("argv", [
        ["timeline", "--store", "{}", "--asn", "5"],
        ["asof", "--store", "{}", "--version", "1"],
        ["churn", "--store", "{}"],
        ["diff", "--store", "{}"],
        ["refresh", "--store", "{}", "--days", "30"],
        ["serve", "--snapshots", "{}"],
    ], ids=lambda argv: argv[0])
    def test_missing_store_is_refused_and_left_missing(
        self, store, capsys, argv
    ):
        assert main([store if arg == "{}" else arg for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert store in err
        assert not os.path.exists(store)

    def test_diff_json_document(self, store, capsys):
        assert self._snapshot(store) == 0
        assert main(
            ["refresh", "--store", store, "--days", "200"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["diff", "--store", store, "--from", "1", "--to", "2",
             "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["from"] == 1 and document["to"] == 2
        assert isinstance(document["added"], list)

    def test_zero_day_refresh_reclassifies_nothing(self, store, capsys):
        assert self._snapshot(store) == 0
        assert main(
            ["refresh", "--store", store, "--days", "0"]
        ) == 0
        assert "reclassified 0 ASes" in capsys.readouterr().out


class TestProfileRouting:
    """Satellite: --profile narration must never interleave with the
    dataset on stdout."""

    BASE = ["classify", "--n-orgs", "40", "--seed", "5", "--no-ml"]

    def test_profile_goes_to_stderr(self, capsys):
        assert main(self.BASE + ["--profile", "3"]) == 0
        captured = capsys.readouterr()
        assert "slowest pipeline stages" in captured.err
        assert "slowest pipeline stages" not in captured.out
        assert "classified" in captured.out

    def test_profile_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "profile.txt"
        assert main(
            self.BASE + ["--profile", "--profile-out", str(target)]
        ) == 0
        captured = capsys.readouterr()
        assert "slowest pipeline stages" in target.read_text()
        assert "slowest pipeline stages" not in captured.err
        assert f"wrote profile narration to {target}" in captured.out


class TestStatsCacheLayers:
    """Satellite: stats reports kernel and feature-cache counters, not
    just the org cache."""

    def test_all_layers_with_ml(self, capsys):
        assert main(["stats", "--n-orgs", "30", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Cache & pruning layers" in out
        assert "org cache" in out
        assert "string kernels" in out
        assert "candidates pruned before scoring" in out
        assert "feature cache" in out

    def test_feature_cache_row_absent_without_ml(self, capsys):
        assert main(
            ["stats", "--n-orgs", "30", "--seed", "5", "--no-ml"]
        ) == 0
        out = capsys.readouterr().out
        assert "Cache & pruning layers" in out
        assert "org cache" in out
        assert "feature cache" not in out


class TestRunWrapper:
    """Satellite: piping to `head` must not traceback.

    `run()` is the console entry point; it owns process-boundary
    concerns (broken pipes, Ctrl-C) so `main()` stays a clean
    in-process API for tests and embedding.
    """

    def test_broken_pipe_exits_zero_and_quiet(self, monkeypatch, capsys):
        import repro.cli as cli

        class _BrokenOut:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", _BrokenOut())
        assert cli.run(["taxonomy"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_run_delegates_to_main(self, capsys):
        from repro.cli import run

        assert run(["taxonomy"]) == 0
        assert "computer_and_it" in capsys.readouterr().out

    def test_keyboard_interrupt_exits_130(self, monkeypatch):
        import repro.cli as cli

        def _interrupt(argv=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "main", _interrupt)
        assert cli.run(["taxonomy"]) == 130

    def test_pipe_to_head_subprocess(self, tmp_path):
        """End-to-end: `repro taxonomy | head -n 1` exits 0, no noise."""
        script = (
            "python -m repro taxonomy | head -n 1; exit ${PIPESTATUS[0]}"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        result = subprocess.run(
            ["bash", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "BrokenPipeError" not in result.stderr


class TestServeCommand:
    """`repro serve` from each source, driven through `main`."""

    def _snapshot(self, tmp_path):
        assert main([
            "snapshot", "--n-orgs", "30", "--seed", "5", "--no-ml",
            "--store", str(tmp_path / "releases"),
        ]) == 0
        return str(tmp_path / "releases")

    def _serve(self, tmp_path, *argv, seconds=15):
        """Start `serve ARGV` on an ephemeral port in a thread; return
        the thread, its exit-code list, and a connection to it."""
        import http.client
        import threading
        import time

        ready = tmp_path / "ready"
        exit_codes = []
        thread = threading.Thread(
            target=lambda: exit_codes.append(main([
                "serve", *argv, "--port", "0", "--ready-file",
                str(ready), "--max-seconds", str(seconds),
            ])),
            daemon=True,
        )
        thread.start()
        deadline = time.time() + 30
        while not ready.exists() and time.time() < deadline:
            time.sleep(0.05)
        assert ready.exists(), "server never wrote the ready file"
        host, port = ready.read_text().split()
        return thread, exit_codes, http.client.HTTPConnection(
            host, int(port), timeout=10
        )

    @staticmethod
    def _get(conn, path):
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    def test_serve_snapshots_end_to_end(self, tmp_path, capsys):
        root = self._snapshot(tmp_path)
        capsys.readouterr()
        _, _, conn = self._serve(tmp_path, "--snapshots", root)
        try:
            status, body = self._get(conn, "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            _, version = self._get(conn, "/version")
            assert version["snapshot_version"] == 1
            assert version["records"] > 0
        finally:
            conn.close()
        # thread keeps serving until --max-seconds; don't join it here.

    def test_serve_dataset_store(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 'asdb.sqlite'}"
        assert main(["classify", "--n-orgs", "30", "--seed", "5",
                     "--no-ml", "--store", url]) == 0
        asn = generate_world(WorldConfig(n_orgs=30, seed=5)).asns()[0]
        thread, exit_codes, conn = self._serve(
            tmp_path, "--store", url, seconds=3
        )
        try:
            status, body = self._get(conn, "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, body = self._get(conn, f"/asn/{asn}")
            assert status == 200
            assert body["record"]["asn"] == asn
        finally:
            conn.close()
        thread.join(timeout=60)
        assert not thread.is_alive() and exit_codes == [0]

    def test_serve_lazy_classifies_on_demand(self, tmp_path, capsys):
        """An unknown ASN answers 202 and then 200 once the queue has
        drained; a ledger records the drain but no per-AS traces:
        `serve` has no --trace, so --runlog does not turn tracing on."""
        import time

        asn = generate_world(WorldConfig(n_orgs=30, seed=5)).asns()[0]
        ledger = tmp_path / "serve.ndjson"
        thread, exit_codes, conn = self._serve(
            tmp_path, "--lazy", "--n-orgs", "30", "--seed", "5",
            "--no-ml", "--runlog", str(ledger), seconds=5,
        )
        try:
            status, body = self._get(conn, "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, body = self._get(conn, f"/asn/{asn}")
            assert status == 202 and body["asn"] == asn
            deadline = time.time() + 4
            while status == 202 and time.time() < deadline:
                time.sleep(0.05)
                status, body = self._get(conn, f"/asn/{asn}")
            assert status == 200
            assert body["record"]["asn"] == asn
        finally:
            conn.close()
        thread.join(timeout=60)
        assert not thread.is_alive() and exit_codes == [0]
        events = [event["event"] for event in read_ledger(str(ledger))]
        assert "serve.queue" in events
        assert "as.trace" not in events

    def test_serve_requires_exactly_one_source(self, tmp_path, capsys):
        assert main([
            "serve", "--snapshots", str(tmp_path), "--store",
            "memory:",
        ]) == 2
        assert "choose one of" in capsys.readouterr().err

    def test_serve_lazy_requires_fresh_world(self, tmp_path, capsys):
        root = self._snapshot(tmp_path)
        capsys.readouterr()
        assert main(["serve", "--snapshots", root, "--lazy"]) == 2
        assert "--lazy" in capsys.readouterr().err


class TestTemporalCommands:
    """asof / timeline / churn drive the temporal query layer."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("temporal") / "releases")
        assert main(
            ["snapshot", "--store", root, "--n-orgs", "60",
             "--seed", "11", "--no-ml", "--workers", "2",
             "--checkpoint-every", "2"]
        ) == 0
        for _ in range(2):
            assert main(
                ["refresh", "--store", root, "--days", "120",
                 "--workers", "2"]
            ) == 0
        return root

    def _an_asn(self, store):
        with open(os.path.join(store, "v0001.full.json")) as handle:
            return json.load(handle)["records"][0]["asn"]

    def test_parser_accepts_checkpoint_cadence(self):
        args = build_parser().parse_args(
            ["snapshot", "--store", "x", "--checkpoint-every", "4"]
        )
        assert args.checkpoint_every == 4

    def test_snapshot_reports_cadence(self, store, capsys):
        capsys.readouterr()
        # v3 is the second consecutive delta: promoted at cadence 2.
        with open(os.path.join(store, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["checkpoint_every"] == 2
        assert manifest["versions"][2].get("checkpoint")

    def test_asof_by_day(self, store, capsys):
        assert main(["asof", "--store", store, "--day", "130"]) == 0
        out = capsys.readouterr().out
        assert "as of day 130: v" in out
        assert "(verified)" in out

    def test_asof_writes_dataset(self, store, tmp_path, capsys):
        out_file = str(tmp_path / "asof.json")
        assert main(
            ["asof", "--store", store, "--version", "2",
             "--out", out_file]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        with open(out_file) as handle:
            document = json.load(handle)
        assert document["records"]

    def test_asof_selector_errors(self, store, capsys):
        assert main(["asof", "--store", store]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(
            ["asof", "--store", store, "--version", "1", "--day", "9"]
        ) == 2
        assert main(
            ["asof", "--store", store, "--day", "1",
             "--out", "x.txt"]
        ) == 2
        assert main(["asof", "--store", store, "--version", "99"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_timeline_table_and_json(self, store, capsys):
        asn = self._an_asn(store)
        assert main(["timeline", "--store", store, "--asn",
                     str(asn)]) == 0
        out = capsys.readouterr().out
        assert f"AS{asn} classification timeline" in out
        assert "added" in out
        assert main(["timeline", "--store", store, "--asn", str(asn),
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["asn"] == asn
        assert document["versions"] == 3
        assert document["events"][0]["change"] == "added"

    def test_timeline_unknown_asn(self, store, capsys):
        assert main(
            ["timeline", "--store", store, "--asn", "99999999"]
        ) == 0
        assert "never appears" in capsys.readouterr().out

    def test_churn_defaults_to_latest_pair(self, store, capsys):
        assert main(["churn", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "v2 -> v3:" in out
        assert "unchanged" in out

    def test_churn_json_document(self, store, capsys):
        assert main(
            ["churn", "--store", store, "--from", "1", "--to", "3",
             "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["old_version"] == 1
        assert document["new_version"] == 3
        assert isinstance(document["flows"], list)

    def test_churn_bad_versions(self, store, capsys):
        assert main(
            ["churn", "--store", store, "--from", "1", "--to", "9"]
        ) == 2
