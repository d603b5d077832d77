"""Tests for the run ledger: repro.obs.runlog and its wiring through
the pipeline, the batch engine's thread pool, and the CLI."""

import json
import threading

import pytest

from repro import SystemConfig, WorldConfig, build_asdb, generate_world
from repro.cli import main
from repro.obs import (
    LEDGER_SCHEMA,
    NULL_RUNLOG,
    MetricsRegistry,
    RunLog,
    config_digest,
    read_ledger,
    read_rss_kb,
)
from repro.obs.trace import NULL_SPAN, NullTraceBuilder, TraceBuilder


def _events(path, kind=None):
    events = read_ledger(str(path))
    if kind is None:
        return events
    return [event for event in events if event["event"] == kind]


class TestRunLogCore:
    def test_run_start_is_first_event(self, tmp_path):
        path = tmp_path / "run.ndjson"
        log = RunLog(str(path), kind="test", config={"a": 1},
                     world={"n_orgs": 5})
        log.finish()
        events = _events(path)
        start = events[0]
        assert start["event"] == "run.start"
        assert start["schema"] == LEDGER_SCHEMA
        assert start["kind"] == "test"
        assert start["config"] == {"a": 1}
        assert start["config_digest"] == config_digest({"a": 1})
        assert start["world_digest"] == config_digest({"n_orgs": 5})
        assert events[-1]["event"] == "run.end"

    def test_envelope_is_monotone_and_run_scoped(self, tmp_path):
        path = tmp_path / "run.ndjson"
        log = RunLog(str(path))
        log.emit("custom", value=1)
        log.emit("custom", value=2)
        log.finish()
        events = _events(path)
        assert [event["seq"] for event in events] == list(
            range(len(events))
        )
        assert len({event["run"] for event in events}) == 1
        assert all(event["t"] >= 0 for event in events)

    def test_spans_nest_and_record_status(self, tmp_path):
        path = tmp_path / "run.ndjson"
        log = RunLog(str(path))
        with log.span("outer") as outer:
            outer.note(items=3)
            with log.span("inner", parent=outer.span_id) as inner:
                inner.set_status("done")
        log.finish()
        spans = {
            event["name"]: event for event in _events(path, "span")
        }
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["inner"]["status"] == "done"
        assert spans["outer"]["attributes"] == {"items": 3}
        assert spans["outer"]["worker"]["kind"] == "main"

    def test_span_records_exception_status(self, tmp_path):
        path = tmp_path / "run.ndjson"
        log = RunLog(str(path))
        with pytest.raises(RuntimeError):
            with log.span("boom"):
                raise RuntimeError("nope")
        log.finish(status="error")
        (span,) = _events(path, "span")
        assert span["status"] == "error: RuntimeError"

    def test_finish_embeds_metrics_snapshot(self, tmp_path):
        path = tmp_path / "run.ndjson"
        registry = MetricsRegistry()
        registry.counter("demo_total", labelnames=("k",)).inc(2, k="x")
        log = RunLog(str(path))
        log.finish(status="ok", metrics=registry, extra="stanza")
        (end,) = _events(path, "run.end")
        assert end["status"] == "ok"
        assert end["duration"] >= 0
        assert end["extra"] == "stanza"
        assert "metrics" in end

    def test_failing_resource_provider_does_not_raise(self, tmp_path):
        path = tmp_path / "run.ndjson"
        log = RunLog(str(path))

        def bad():
            raise ValueError("broken provider")

        log.sample_resources(
            {"good": lambda: {"n": 1}, "bad": bad}, phase="test"
        )
        log.finish()
        (sample,) = _events(path, "resource.sample")
        assert sample["phase"] == "test"
        assert sample["good"] == {"n": 1}
        assert "ValueError" in sample["bad"]["error"]
        assert "cpu_seconds" in sample and "wall_seconds" in sample

    def test_torn_tail_is_skipped_on_read(self, tmp_path):
        path = tmp_path / "run.ndjson"
        log = RunLog(str(path))
        log.emit("custom", value=1)
        log.finish()
        with open(path, "a") as handle:
            handle.write('{"event": "torn", "ru')  # crash mid-write
        events = _events(path)
        assert events[-1]["event"] == "run.end"

    def test_config_digest_is_order_independent(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_read_rss_never_raises(self):
        sample = read_rss_kb()
        assert set(sample) == {"rss_kb", "hwm_kb"}
        # On Linux /proc/self/status provides both.
        assert sample["rss_kb"] is None or sample["rss_kb"] > 0


class TestOneSpanPrimitive:
    def test_trace_and_ledger_share_the_in_flight_span(self, tmp_path):
        log = RunLog(str(tmp_path / "run.ndjson"))
        assert type(TraceBuilder(1).span("ml")) is type(log.span("ml"))
        assert NullTraceBuilder().span("ml") is NULL_SPAN
        assert RunLog().span("ml") is NULL_SPAN
        log.close()

    def test_trace_span_that_raises_keeps_its_status(self):
        builder = TraceBuilder(7)
        with pytest.raises(RuntimeError):
            with builder.span("ml") as span:
                span.set_status("scraped")
                raise RuntimeError("nope")
        with pytest.raises(RuntimeError):
            with builder.span("consensus"):
                raise RuntimeError("nope")
        trace = builder.finish()
        assert [(s.name, s.status) for s in trace.spans] == [
            ("ml", "scraped"), ("consensus", ""),
        ]
        assert trace.error is None


class TestDisabledRunLog:
    def test_full_api_is_inert(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        threads = threading.active_count()
        log = RunLog()
        assert not log.enabled
        assert log.run_id == ""
        log.emit("anything", field=1)
        log.emit_span("noop", 0.1, attributes={"k": 1})
        with log as entered, log.span("noop") as span:
            assert entered is log
            assert span is NULL_SPAN
            assert span.span_id is None
            span.set_status("ok").note(k=1)
        log.sample_resources({"c": lambda: {}}, phase="p")
        log.start_sampling(0.01)
        assert threading.active_count() == threads
        log.stop_sampling()
        log.finish(status="ok", metrics=MetricsRegistry())
        log.close()
        assert list(tmp_path.iterdir()) == []
        # Nothing was counted: every call returned before the lock.
        assert (log._seq, log._span_counter) == (0, 0)

    def test_shared_instance_exists(self):
        assert isinstance(NULL_RUNLOG, RunLog)
        assert NULL_RUNLOG.path is None
        assert not NULL_RUNLOG.enabled


class TestPipelineLedger:
    @pytest.fixture(scope="class")
    def ledger(self, tmp_path_factory, small_world):
        path = tmp_path_factory.mktemp("ledger") / "run.ndjson"
        runlog = RunLog(str(path), kind="classify",
                        config={"workers": 3}, world={"seed": 101})
        registry = MetricsRegistry()
        built = build_asdb(
            small_world,
            SystemConfig(
                seed=5, train_ml=False, metrics=registry, trace=True,
                workers=3, runlog=runlog,
            ),
        )
        dataset = built.asdb.classify_all()
        runlog.finish(status="ok", metrics=registry)
        return read_ledger(str(path)), dataset, runlog.run_id

    def test_worker_spans_stitch_under_run(self, ledger):
        events, dataset, run_id = ledger
        assert all(event["run"] == run_id for event in events)
        spans = [e for e in events if e["event"] == "span"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        batch = by_name["classify_batch"]
        assert len(batch) == 1
        batch_id = batch[0]["span_id"]
        # Leader spans come from pool worker threads and parent to the
        # batch span.
        leaders = by_name["batch.leader"]
        assert leaders
        assert {span["parent_id"] for span in leaders} == {batch_id}
        assert "thread" in {
            span["worker"]["kind"] for span in leaders
        }
        # Phase spans are main-side children of the batch span.
        for phase in ("batch.front", "batch.siblings"):
            (span,) = by_name[phase]
            assert span["parent_id"] == batch_id
            assert span["worker"]["kind"] == "main"

    def test_every_trace_lands_in_ledger(self, ledger):
        events, dataset, _ = ledger
        traced = [e for e in events if e["event"] == "as.trace"]
        assert {event["asn"] for event in traced} == {
            record.asn for record in dataset
        }
        assert all(event["spans"] for event in traced)


class TestCliLedger:
    def test_classify_runlog_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "run.ndjson"
        code = main([
            "classify", "--n-orgs", "40", "--seed", "5", "--no-ml",
            "--workers", "2", "--runlog", str(path),
        ])
        assert code == 0
        events = read_ledger(str(path))
        assert events[0]["event"] == "run.start"
        assert events[0]["kind"] == "classify"
        assert events[-1]["event"] == "run.end"
        assert events[-1]["status"] == "ok"
        assert events[-1]["metrics"]
        assert events[-1]["degraded"]["records"] == 0
        kinds = {event["event"] for event in events}
        assert {"span", "as.trace", "resource.sample"} <= kinds

    def test_output_is_byte_identical_without_runlog(
        self, tmp_path, capsys
    ):
        base = ["classify", "--n-orgs", "40", "--seed", "5", "--no-ml",
                "--workers", "2"]
        plain_csv = tmp_path / "plain.csv"
        assert main(base + ["--out", str(plain_csv)]) == 0
        plain_out = capsys.readouterr().out

        logged_csv = tmp_path / "logged.csv"
        assert main(base + [
            "--out", str(logged_csv),
            "--runlog", str(tmp_path / "run.ndjson"),
        ]) == 0
        logged_out = capsys.readouterr().out

        assert plain_csv.read_bytes() == logged_csv.read_bytes()
        assert plain_out.replace("plain.csv", "logged.csv") == logged_out

    def test_refresh_ledger_records_sweep_and_snapshot(self, tmp_path,
                                                       capsys):
        store = tmp_path / "store"
        assert main([
            "snapshot", "--store", str(store), "--n-orgs", "40",
            "--seed", "5", "--no-ml",
        ]) == 0
        path = tmp_path / "refresh.ndjson"
        code = main([
            "refresh", "--store", str(store), "--days", "30",
            "--runlog", str(path),
        ])
        assert code in (0, 1)  # exact-set check is orthogonal here
        events = read_ledger(str(path))
        assert events[0]["kind"] == "refresh"
        (sweep,) = [e for e in events if e["event"] == "sweep.report"]
        assert sweep["through_day"] == 30
        (saved,) = [e for e in events if e["event"] == "snapshot.saved"]
        assert saved["version"] == 2
        assert saved["kind"] == "delta"
        (end,) = [e for e in events if e["event"] == "run.end"]
        assert end["degraded"]["total"] > 0
        assert end["reclassified"] == sweep["reclassified"]
