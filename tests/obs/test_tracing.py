"""Tracing spans, the JSON-lines event log, and the report window."""

from __future__ import annotations

import json
import logging
import threading

import pytest

from repro.obs import (
    EventLog,
    ReportWindow,
    RequestTrace,
    next_trace_id,
    read_events,
    summary_from_report_body,
    summary_from_report_dict,
)
from repro.obs.logs import (
    SERVE_LOGGER_NAME,
    configure_serve_logging,
    disable_serve_logging,
    serve_logger,
)

pytestmark = pytest.mark.obs


class TestTraceIds:
    def test_unique_and_orderable_within_run(self):
        first, second = next_trace_id(), next_trace_id()
        assert first != second
        prefix_a, seq_a = first.rsplit("-", 1)
        prefix_b, seq_b = second.rsplit("-", 1)
        assert prefix_a == prefix_b
        assert int(seq_b) == int(seq_a) + 1


class TestRequestTrace:
    def test_spans_and_annotations(self):
        trace = RequestTrace("/v1/analyze")
        with trace.span("store_lookup", outcome="miss"):
            pass
        trace.add_span("batch_compute", 0.25, batch_size=3)
        trace.annotate(source="computed")
        trace.finish(200)
        data = trace.to_dict()
        assert data["endpoint"] == "/v1/analyze"
        assert data["status"] == 200
        assert data["duration_seconds"] >= 0
        stages = [span["stage"] for span in data["spans"]]
        assert stages == ["store_lookup", "batch_compute"]
        assert data["spans"][0]["outcome"] == "miss"
        assert data["spans"][1]["seconds"] == 0.25
        assert data["annotations"] == {"source": "computed"}

    def test_spans_from_multiple_threads(self):
        trace = RequestTrace("/v1/analyze")

        def work(k):
            with trace.span(f"stage{k}"):
                pass

        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(trace.to_dict()["spans"]) == 8

    def test_explicit_trace_id_respected(self):
        trace = RequestTrace("/v1/analyze", trace_id="fixed-1")
        assert trace.trace_id == "fixed-1"


class TestEventLog:
    def test_write_and_read_back(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        trace = RequestTrace("/v1/analyze")
        trace.finish(200)
        log.emit_trace(trace)
        log.emit("findings", {"report": {"n_findings": 0}})
        log.close()
        events = read_events(path)
        assert [e["kind"] for e in events] == ["trace", "findings"]
        assert events[0]["trace_id"] == trace.trace_id
        assert log.events_written == 2

    def test_torn_last_line_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"kind": "trace", "trace_id": "a-1"})
            + "\n"
            + '{"kind": "trace", "trunc'
        )
        events = read_events(str(path))
        assert len(events) == 1

    def test_emit_after_close_is_noop(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        log.close()
        log.emit("trace", {"trace_id": "x"})
        assert read_events(log.path) == []

    def test_creates_parent_directory(self, tmp_path):
        log = EventLog(str(tmp_path / "deep" / "dir" / "events.jsonl"))
        log.emit("trace", {"trace_id": "x"})
        log.close()
        assert len(read_events(log.path)) == 1


class TestReportWindow:
    def test_monotone_seq_and_bounded(self):
        window = ReportWindow(max_entries=4)
        for k in range(10):
            window.record(f"sha{k}", {"name": f"m{k}"}, source="computed")
        snapshot = window.snapshot()
        assert len(window) == 4
        assert [r["seq"] for r in snapshot] == [7, 8, 9, 10]
        assert window.stats()["total_recorded"] == 10

    def test_snapshot_last_n(self):
        window = ReportWindow(max_entries=16)
        for k in range(8):
            window.record(f"sha{k}", None, source="computed")
        assert [r["seq"] for r in window.snapshot(last=3)] == [6, 7, 8]
        assert window.snapshot(last=0) == []

    def test_model_and_summary_maps_lru_bounded(self):
        window = ReportWindow(max_entries=16, model_entries=2)
        for k in range(4):
            window.remember_model(f"sha{k}", {"name": f"m{k}"})
            window.remember_summary(f"sha{k}", {"stable": True})
        assert window.model_for("sha0") is None
        assert window.model_for("sha3") == {"name": "m3"}
        assert window.summary_for("sha3") == {"stable": True}

    def test_snapshot_copies_are_independent(self):
        window = ReportWindow(max_entries=4)
        window.record("sha", {"stable": True}, source="computed")
        snapshot = window.snapshot()
        snapshot[0]["stable"] = False
        assert window.snapshot()[0]["stable"] is True


class TestReportSummaries:
    def test_summary_from_report_dict(self):
        report = {
            "name": "sys", "n_tasks": 2, "utilization": 0.4,
            "schedulable": True, "stable": True,
            "tasks": [{"rel_slack": 0.2}, {"rel_slack": 0.05}],
        }
        summary = summary_from_report_dict(report)
        assert summary["min_rel_slack"] == 0.05
        assert summary["stable"] is True

    def test_summary_handles_nonfinite_sentinels(self):
        report = {
            "tasks": [{"rel_slack": "-Infinity"}, {"rel_slack": 0.3}]
        }
        assert summary_from_report_dict(report)["min_rel_slack"] == float(
            "-inf"
        )

    def test_summary_from_report_body_rejects_non_reports(self):
        assert summary_from_report_body("not json") is None
        assert summary_from_report_body('{"no_tasks": 1}') is None


class TestServeLogging:
    def teardown_method(self):
        disable_serve_logging()

    def test_json_mode_emits_parseable_lines(self, capsys):
        import io

        stream = io.StringIO()
        logger = configure_serve_logging("info", json_mode=True, stream=stream)
        logger.info("request", extra={"trace_id": "a-1", "status": 200})
        line = stream.getvalue().strip()
        record = json.loads(line)
        assert record["message"] == "request"
        assert record["trace_id"] == "a-1"
        assert record["status"] == 200
        assert record["logger"] == SERVE_LOGGER_NAME

    def test_text_mode_includes_extras(self):
        import io

        stream = io.StringIO()
        logger = configure_serve_logging("info", stream=stream)
        logger.info("request", extra={"trace_id": "a-1"})
        assert "request" in stream.getvalue()
        assert "trace_id=a-1" in stream.getvalue()

    def test_reconfigure_replaces_handler(self):
        import io

        first, second = io.StringIO(), io.StringIO()
        configure_serve_logging("info", stream=first)
        logger = configure_serve_logging("info", stream=second)
        logger.info("hello")
        assert first.getvalue() == ""
        assert "hello" in second.getvalue()
        assert len(logger.handlers) == 1

    def test_level_filtering(self):
        import io

        stream = io.StringIO()
        logger = configure_serve_logging("warning", stream=stream)
        logger.info("quiet")
        logger.warning("loud")
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()

    def test_default_stream_follows_swapped_stderr(self, monkeypatch):
        # pytest's capture swaps sys.stderr per test and closes the old
        # one; a handler that bound the stream at configure time then
        # hits "I/O operation on closed file" on every later record.
        import io
        import sys

        errors = []
        monkeypatch.setattr(logging, "raiseExceptions", True)
        monkeypatch.setattr(
            logging.Handler,
            "handleError",
            lambda handler, record: errors.append(sys.exc_info()[1]),
        )
        configured_under = io.StringIO()
        monkeypatch.setattr(sys, "stderr", configured_under)
        logger = configure_serve_logging("info")
        configured_under.close()
        emitted_under = io.StringIO()
        monkeypatch.setattr(sys, "stderr", emitted_under)
        logger.info("after the swap")
        assert errors == []
        assert "after the swap" in emitted_under.getvalue()

    def test_unconfigured_logger_is_quiet_at_info(self):
        disable_serve_logging()
        logger = serve_logger()
        assert not logger.isEnabledFor(logging.INFO) or not logger.handlers
