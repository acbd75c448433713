"""Live observability plane: server endpoints, SSE resume, dashboard."""

from __future__ import annotations

import io
import json
import urllib.error
import urllib.request

import pytest

from repro.errors import TelemetryError
from repro.resilience.journal import JournalEntry
from repro.telemetry.core import RunContext, Telemetry
from repro.telemetry.exporters import JsonlTailer
from repro.telemetry.live import (
    EventCursor,
    TelemetryServer,
    journal_counts,
    pool_readiness,
    render_dashboard,
    run_progress,
    watch,
)
from repro.telemetry.observatory import _parse_prom_line, run_events
from repro.telemetry.registry import (
    MetricsRegistry,
    escape_label_value,
    unescape_label_value,
)
from repro.telemetry.windows import WINDOW_FIELDS, WindowRecord, encode_window

pytestmark = pytest.mark.telemetry


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def append_events(path, events):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


def l1_window(index, hits):
    """A window payload whose one level, L1, hits ``hits`` of 100
    loads."""
    counters = dict.fromkeys(WINDOW_FIELDS, 0)
    counters.update(loads=100, load_hits=hits, load_misses=100 - hits)
    return encode_window([WindowRecord(
        index=index, start_refs=100 * index, end_refs=100 * (index + 1),
        level="L1", **counters,
    )])


def make_run(tmp_path, run="r1"):
    """A synthetic finished pool run directory: the coordinator's
    events, then those worker-0 shipped, in one log."""
    append_events(tmp_path / "events.jsonl", [
        {"kind": "sweep_started", "cells": 4, "designs": 2,
         "workloads": 2, "run": run, "worker": "root", "seq": 0,
         "ts": 10.0},
        {"kind": "worker_spawned", "pool_worker": "worker-0",
         "run": run, "worker": "root", "seq": 1, "ts": 10.1},
        {"kind": "cell_finished", "cell": "a", "design": "REF",
         "workload": "CG", "status": "ok", "duration_s": 2.0,
         "run": run, "worker": "root", "seq": 2, "ts": 12.0},
    ])
    append_events(tmp_path / "events.jsonl", [
        {"kind": "window", "context": "CG", **l1_window(0, hits=90),
         "run": run, "worker": "worker-0", "seq": 0, "ts": 11.0},
        {"kind": "cell_finished", "cell": "b", "design": "NMM",
         "workload": "SP", "status": "failed", "duration_s": 1.0,
         "run": run, "worker": "worker-0", "seq": 1, "ts": 13.0},
    ])
    (tmp_path / "metrics.prom").write_text(
        "# TYPE repro_cells counter\nrepro_cells 2\n"
    )
    return tmp_path


def progress_of(directory, run="r1"):
    """One run's progress document, folded from the directory's log."""
    return run_progress(run_events(directory))[run]


def journal_line(run_id, status, key="k"):
    return JournalEntry(
        key=key, design="REF", workload="CG", scale=1.0, seed=0,
        status=status, attempts=1, duration_s=1.0, run_id=run_id,
    ).to_json() + "\n"


def http_get(url, timeout=5.0, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def sse_read(url, count, timeout=10.0, last_event_id=None):
    """Read ``count`` SSE events; returns (events, last id seen)."""
    headers = {}
    if last_event_id is not None:
        headers["Last-Event-ID"] = last_event_id
    request = urllib.request.Request(url, headers=headers)
    events, last_id = [], None
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        while len(events) < count:
            line = resp.readline().decode().strip()
            if line.startswith("id: "):
                last_id = line[4:]
            elif line.startswith("data: "):
                events.append(json.loads(line[6:]))
    return events, last_id


# ----------------------------------------------------------------------
# EventCursor
# ----------------------------------------------------------------------


class TestEventCursor:
    def test_admits_only_above_watermark(self):
        cursor = EventCursor({"root": 3})
        assert not cursor.admits("root", 2)
        assert not cursor.admits("root", 3)
        assert cursor.admits("root", 4)
        assert cursor.admits("worker-0", 0)

    def test_advance_is_monotone(self):
        cursor = EventCursor()
        cursor.advance("root", 5)
        cursor.advance("root", 2)
        assert cursor.positions == {"root": 5}

    def test_encode_decode_round_trip(self):
        cursor = EventCursor({"worker-0": 7, "root": 41})
        assert cursor.encode() == "root=41,worker-0=7"
        again = EventCursor.decode(cursor.encode())
        assert again.positions == cursor.positions

    def test_decode_tolerates_garbage(self):
        cursor = EventCursor.decode("root=1,,junk,bad=x,=3,ok=2")
        assert cursor.positions == {"root": 1, "ok": 2}

    def test_decode_none_and_empty(self):
        assert EventCursor.decode(None).positions == {}
        assert EventCursor.decode("").positions == {}


# ----------------------------------------------------------------------
# JsonlTailer (satellite: truncation/replacement hardening)
# ----------------------------------------------------------------------


class TestJsonlTailer:
    def test_incremental_polls(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tailer = JsonlTailer(path)
        assert tailer.poll() == []
        append_events(path, [{"a": 1}])
        assert tailer.poll() == [{"a": 1}]
        assert tailer.poll() == []
        append_events(path, [{"a": 2}, {"a": 3}])
        assert tailer.poll() == [{"a": 2}, {"a": 3}]

    def test_torn_tail_held_until_complete(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w") as handle:
            handle.write('{"a": 1}\n{"a": ')
        tailer = JsonlTailer(path)
        assert tailer.poll() == [{"a": 1}]
        with open(path, "a") as handle:
            handle.write('2}\n')
        assert tailer.poll() == [{"a": 2}]

    def test_truncation_reopens_from_start(self, tmp_path):
        path = tmp_path / "events.jsonl"
        append_events(path, [{"a": 1}, {"a": 2}])
        tailer = JsonlTailer(path)
        assert len(tailer.poll()) == 2
        path.write_text('{"b": 1}\n')  # shrunk: same inode, size < pos
        assert tailer.poll() == [{"b": 1}]

    def test_replacement_reopens_from_start(self, tmp_path):
        path = tmp_path / "events.jsonl"
        append_events(path, [{"a": 1}])
        tailer = JsonlTailer(path)
        assert tailer.poll() == [{"a": 1}]
        replacement = tmp_path / "replacement.jsonl"
        # replacement is longer than the original, so only the inode
        # (not a size regression) can reveal the swap
        append_events(replacement, [{"b": 1}, {"b": 2}])
        replacement.replace(path)
        assert tailer.poll() == [{"b": 1}, {"b": 2}]

    def test_skips_non_dict_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"a": 1}\nnot json\n[1, 2]\n{"a": 2}\n')
        tailer = JsonlTailer(path)
        assert tailer.poll() == [{"a": 1}, {"a": 2}]


class TestEventLogFlush:
    def test_flush_makes_events_visible_to_tailer(self, tmp_path):
        telemetry = Telemetry(tmp_path, spool_events=512)
        tailer = JsonlTailer(tmp_path / "events.jsonl")
        telemetry.event(kind="probe")
        with telemetry.cell_scope("REF/CG"):
            pass
        # the cell boundary drained and flushed the spool
        kinds = [e["kind"] for e in tailer.poll()]
        assert "probe" in kinds
        telemetry.close()


# ----------------------------------------------------------------------
# progress fold / journal counts
# ----------------------------------------------------------------------


class TestProgressTracker:
    """Per-run progress folded from the run log."""

    def test_counts_and_eta(self, tmp_path):
        make_run(tmp_path)
        progress = progress_of(tmp_path)
        assert progress["total"] == 4
        assert progress["done"] == 2
        assert progress["by_status"] == {"ok": 1, "failed": 1}
        assert progress["failed"] == 1
        # 2 evaluated cells in 3.0s -> 2 remaining at 1.5s each
        assert progress["eta_s"] == pytest.approx(3.0)
        assert progress["workloads"]["CG"]["done"] == 1
        assert progress["workloads"]["CG"]["total"] == 2
        assert progress["workers"] == {"worker-0": "alive"}
        assert progress["hit_rates"]["L1"] == [0.9]

    def test_reused_cells_priced_free(self):
        progress = run_progress([
            {"kind": "sweep_started", "cells": 4, "designs": 2},
            {"kind": "sweep_resume", "reused": 2},
            {"kind": "cell_finished", "workload": "CG",
             "status": "ok", "duration_s": 2.0},
            {"kind": "cell_finished", "workload": "CG",
             "status": "ok", "duration_s": 0.0, "from_journal": True},
        ])["unidentified"]
        # 2 remaining, 1 pending reuse -> one evaluation at 2.0s
        assert progress["eta_s"] == pytest.approx(2.0)
        assert progress["reused"] == 1

    def test_supervision_events_update_liveness(self):
        progress = run_progress([
            {"kind": "worker_spawned", "pool_worker": "worker-0"},
            {"kind": "worker_died", "pool_worker": "worker-0",
             "cell": "a"},
            {"kind": "cell_requeued", "cell": "a"},
            {"kind": "worker_respawned", "pool_worker": "worker-0"},
        ])["unidentified"]
        assert progress["workers"] == {"worker-0": "alive"}
        kinds = [e["kind"] for e in progress["supervision"]]
        assert kinds == ["worker_spawned", "worker_died", "cell_requeued",
                        "worker_respawned"]

    def test_unknown_run_bucket(self, tmp_path):
        append_events(tmp_path / "events.jsonl",
                      [{"kind": "span", "seq": 0}])
        assert TelemetryServer(tmp_path).runs()[0]["run"] == "unidentified"

    def test_hit_rates_follow_the_run_log_time_order(self, tmp_path):
        root = make_run(tmp_path / "run")
        # A root window timed after worker-0's but appended last: the
        # rolling hit rates follow the run log's time order, wherever
        # the events landed.
        append_events(root / "events.jsonl", [
            {"kind": "window", "context": "CG", **l1_window(1, hits=50),
             "run": "r1", "worker": "root", "seq": 3, "ts": 11.5},
        ])
        progress = progress_of(root)
        assert progress["hit_rates"]["L1"] == [0.9, 0.5]
        assert TelemetryServer(root).progress("r1") == progress


class TestJournalProgress:
    def test_counts_by_run(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        journal.write_text(
            journal_line("r1", "ok", "a")
            + journal_line("r1", "failed", "b")
            + journal_line("r2", "ok", "c")
            + '{"torn'  # an interrupted append
        )
        runs = journal_counts(journal)
        assert runs["r1"] == {"entries": 2,
                              "by_status": {"ok": 1, "failed": 1}}
        assert runs["r2"]["entries"] == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert journal_counts(tmp_path / "nope.jsonl") == {}

    def test_merged_into_progress(self, tmp_path):
        make_run(tmp_path)
        journal = tmp_path / "campaign.jsonl"
        journal.write_text(journal_line("r1", "ok"))
        server = TelemetryServer(tmp_path, journal=journal)
        assert server.progress("r1")["journal"]["entries"] == 1

    def test_corrupt_journal_drops_the_section(self, tmp_path):
        make_run(tmp_path)
        journal = tmp_path / "campaign.jsonl"
        journal.write_text(
            journal_line("r1", "ok", "a") + "torn{\n"
            + journal_line("r1", "ok", "b")
        )
        assert journal_counts(journal) is None
        with TelemetryServer(tmp_path, journal=journal) as server:
            status, body = http_get(server.url + "/runs/r1/progress")
        progress = json.loads(body)
        assert status == 200 and progress["done"] == 2
        assert "journal" not in progress


# ----------------------------------------------------------------------
# Readiness policy
# ----------------------------------------------------------------------


class TestPoolReadiness:
    def test_no_pool_is_idle_ready(self):
        ready, detail = pool_readiness(None)
        assert ready and detail["state"] == "idle"

    def test_exhausted_flips(self):
        ready, detail = pool_readiness({"exhausted": True, "workers": []})
        assert not ready and detail["state"] == "exhausted"

    def test_all_dead_flips(self):
        snapshot = {"exhausted": False, "workers": [
            {"worker": "worker-0", "alive": False, "beat_age_s": 0.1},
        ]}
        ready, detail = pool_readiness(snapshot)
        assert not ready and detail["state"] == "no_live_workers"

    def test_escalating_worker_flips(self):
        snapshot = {"exhausted": False, "heartbeat_timeout_s": 10.0,
                    "workers": [
                        {"worker": "worker-0", "alive": True,
                         "beat_age_s": 0.1, "killed": True,
                         "inflight": "cell"},
                    ]}
        ready, detail = pool_readiness(snapshot)
        assert not ready
        assert detail == {"state": "hung", "workers": ["worker-0"]}

    def test_silent_worker_with_cell_flips(self):
        snapshot = {"exhausted": False, "heartbeat_timeout_s": 1.0,
                    "workers": [
                        {"worker": "worker-0", "alive": True,
                         "beat_age_s": 5.0, "killed": False,
                         "inflight": "cell"},
                    ]}
        assert not pool_readiness(snapshot)[0]

    def test_healthy_pool_is_ready(self):
        snapshot = {"exhausted": False, "heartbeat_timeout_s": 10.0,
                    "workers": [
                        {"worker": "worker-0", "alive": True,
                         "beat_age_s": 0.1, "killed": False,
                         "inflight": "cell"},
                        {"worker": "worker-1", "alive": True,
                         "beat_age_s": 0.2, "killed": False,
                         "inflight": None},
                    ]}
        ready, detail = pool_readiness(snapshot)
        assert ready and detail["workers_alive"] == 2

    def test_idle_silent_worker_stays_ready(self):
        # no inflight cell: a long-silent idle worker is not hung
        snapshot = {"exhausted": False, "heartbeat_timeout_s": 1.0,
                    "workers": [
                        {"worker": "worker-0", "alive": True,
                         "beat_age_s": 60.0, "killed": False,
                         "inflight": None},
                    ]}
        assert pool_readiness(snapshot)[0]


# ----------------------------------------------------------------------
# TelemetryServer (detached + live registry)
# ----------------------------------------------------------------------


class TestTelemetryServer:
    def test_endpoints_on_finished_run(self, tmp_path):
        make_run(tmp_path)
        with TelemetryServer(tmp_path) as server:
            status, body = http_get(server.url + "/healthz")
            assert status == 200 and json.loads(body)["status"] == "alive"
            status, body = http_get(server.url + "/readyz")
            assert status == 200 and json.loads(body)["ready"] is True
            status, body = http_get(server.url + "/metrics")
            assert status == 200 and "repro_cells 2" in body
            status, body = http_get(server.url + "/runs")
            runs = json.loads(body)
            assert [r["run"] for r in runs] == ["r1"]
            status, body = http_get(server.url + "/runs/r1/progress")
            assert status == 200 and json.loads(body)["done"] == 2
            status, _ = http_get(server.url + "/runs/zzz/progress")
            assert status == 404
            status, _ = http_get(server.url + "/no/such/route")
            assert status == 404

    def test_metrics_404_without_prom_file(self, tmp_path):
        with TelemetryServer(tmp_path) as server:
            status, _ = http_get(server.url + "/metrics")
            assert status == 404

    def test_live_registry_overrides_disk(self, tmp_path):
        make_run(tmp_path)
        telemetry = Telemetry(run_context=RunContext("r1"))
        telemetry.counter("repro_live_probe").inc(7)
        with TelemetryServer(tmp_path, telemetry=telemetry) as server:
            status, body = http_get(server.url + "/metrics")
            assert status == 200
            assert 'repro_live_probe{run="r1",worker="root"} 7' in body
            assert "repro_cells" not in body  # disk file not consulted

    def test_live_metrics_include_received_worker_snapshots(self, tmp_path):
        parent = Telemetry(tmp_path, run_context=RunContext("r1"))
        worker = Telemetry.for_worker(
            parent.run_context.child("worker-0"), parent.next_seq
        )
        worker.counter("repro_live_probe").inc(3)
        parent.receive("worker-0", worker.ship())
        with TelemetryServer(tmp_path, telemetry=parent) as server:
            status, body = http_get(server.url + "/metrics")
        assert status == 200
        assert 'repro_live_probe{run="r1",worker="worker-0"} 3' in body
        # Live /metrics is the exposition the flush writes.
        parent.flush()
        assert (tmp_path / "metrics.prom").read_text() == body
        parent.close()

    def test_readyz_flips_with_pool_state(self, tmp_path):
        make_run(tmp_path)
        state = {"snapshot": None}
        server = TelemetryServer(
            tmp_path, readiness=lambda: state["snapshot"]
        )
        with server:
            status, _ = http_get(server.url + "/readyz")
            assert status == 200
            state["snapshot"] = {"exhausted": True, "workers": []}
            status, body = http_get(server.url + "/readyz")
            assert status == 503
            assert json.loads(body)["state"] == "exhausted"
            state["snapshot"] = None
            assert http_get(server.url + "/readyz")[0] == 200

    def test_sse_stream_and_resume_exactly_once(self, tmp_path):
        make_run(tmp_path)
        with TelemetryServer(tmp_path) as server:
            events, last_id = sse_read(server.url + "/events", 5)
            seen = {(e["worker"], e["seq"]) for e in events}
            assert len(seen) == 5
            assert last_id is not None
            # disconnect happened; append new events of both workers
            append_events(tmp_path / "events.jsonl", [
                {"kind": "cell_finished", "cell": "c", "workload": "CG",
                 "status": "ok", "duration_s": 1.0, "run": "r1",
                 "worker": "root", "seq": 3, "ts": 14.0},
                {"kind": "span", "run": "r1", "worker": "worker-0",
                 "seq": 2, "ts": 14.5},
            ])
            resumed, _ = sse_read(
                server.url + "/events", 2, last_event_id=last_id
            )
            fresh = {(e["worker"], e["seq"]) for e in resumed}
            assert fresh == {("root", 3), ("worker-0", 2)}
            assert not (seen & fresh)  # exactly once across reconnect

    def test_sse_resume_via_query_parameter(self, tmp_path):
        make_run(tmp_path)
        with TelemetryServer(tmp_path) as server:
            _, last_id = sse_read(server.url + "/events", 5)
            append_events(tmp_path / "events.jsonl", [
                {"kind": "probe", "run": "r1", "worker": "root",
                 "seq": 3, "ts": 15.0},
            ])
            resumed, _ = sse_read(
                server.url + f"/events?last_event_id={last_id}", 1
            )
            assert resumed[0]["kind"] == "probe"

    def test_root_index_lists_endpoints(self, tmp_path):
        with TelemetryServer(tmp_path) as server:
            status, body = http_get(server.url + "/")
            assert status == 200
            assert "/events" in json.loads(body)["endpoints"]

    def test_stop_is_idempotent(self, tmp_path):
        server = TelemetryServer(tmp_path).start()
        server.stop()
        server.stop()

    def test_bind_failure_raises_telemetry_error(self, tmp_path):
        with TelemetryServer(tmp_path) as server:
            with pytest.raises(TelemetryError):
                TelemetryServer(tmp_path, port=server.port).start()


# ----------------------------------------------------------------------
# Prometheus label escaping round trip (satellite)
# ----------------------------------------------------------------------


class TestLabelEscaping:
    @pytest.mark.parametrize("value", [
        'plain', 'with "quotes"', 'back\\slash', 'new\nline',
        'all "of\\it"\ntogether', 'trailing\\',
    ])
    def test_round_trip(self, value):
        assert unescape_label_value(escape_label_value(value)) == value

    def test_quoted_cell_key_survives_render_and_parse(self):
        registry = MetricsRegistry()
        registry.counter("repro_probe", cell='REF/"CG"\n\\x').inc(3)
        text = registry.render_prometheus()
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_probe{")
        )
        parsed = _parse_prom_line(line)
        assert parsed is not None
        name, labels, value = parsed
        assert name == "repro_probe"
        assert labels["cell"] == 'REF/"CG"\n\\x'
        assert value == 3.0


# ----------------------------------------------------------------------
# Dashboard + watch
# ----------------------------------------------------------------------


class TestDashboard:
    def test_waiting_frame(self):
        frame = render_dashboard(None, source="DIR")
        assert "waiting for events" in frame

    def test_full_frame(self, tmp_path):
        make_run(tmp_path)
        progress = progress_of(tmp_path)
        frame = render_dashboard(
            progress, {"ready": True, "state": "serving"}, source="x"
        )
        assert "2/4" in frame
        assert "CG" in frame and "SP" in frame
        assert "L1" in frame
        assert "worker-0:alive" in frame
        assert "worker_spawned" in frame
        assert "ready" in frame

    def test_not_ready_is_loud(self):
        progress = {"run": "r1", "total": 2, "done": 1,
                    "by_status": {"ok": 1}, "eta_s": 1.0}
        frame = render_dashboard(
            progress, {"ready": False, "state": "exhausted"}
        )
        assert "NOT READY (exhausted)" in frame

    def test_finished_run_reads_done(self, tmp_path):
        progress = {"run": "r1", "total": 2, "done": 2, "finished": True,
                    "by_status": {"ok": 2}, "eta_s": 0.0}
        assert "done" in render_dashboard(progress)

    def test_watch_once_directory(self, tmp_path, capsys):
        make_run(tmp_path)
        out = io.StringIO()
        assert watch(str(tmp_path), once=True, out=out) == 0
        frame = out.getvalue()
        assert "r1" in frame and "2/4" in frame
        assert "\x1b[" not in frame  # --once emits no ANSI codes

    def test_watch_once_url(self, tmp_path):
        make_run(tmp_path)
        with TelemetryServer(tmp_path) as server:
            out = io.StringIO()
            assert watch(server.url, once=True, out=out) == 0
            assert "2/4" in out.getvalue()

    def test_watch_rejects_missing_directory(self, tmp_path):
        with pytest.raises(TelemetryError):
            watch(str(tmp_path / "missing"), once=True, out=io.StringIO())


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestCli:
    def test_report_json(self, tmp_path, capsys):
        from repro.experiments.cli import main

        make_run(tmp_path)
        assert main(["telemetry", "report", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events_by_kind"]["cell_finished"] == 2
        assert "spans" in payload and "supervision" in payload

    def test_watch_once_cli(self, tmp_path, capsys):
        from repro.experiments.cli import main

        make_run(tmp_path)
        assert main(
            ["telemetry", "watch", str(tmp_path), "--once"]
        ) == 0
        assert "2/4" in capsys.readouterr().out

    def test_sweep_serve_requires_telemetry(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit, match="--serve needs --telemetry"):
            main(["--scale", "0.00024", "--workloads", "CG",
                  "sweep", "--designs", "REF", "--serve"])
