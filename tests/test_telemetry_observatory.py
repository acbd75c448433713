"""Run observatory: correlation IDs, aggregation, traces, diffing."""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.errors import TelemetryError
from repro.model.evaluate import Evaluation
from repro.resilience import FaultInjector, Journal, SweepExecutor
from repro.telemetry import observatory
from repro.telemetry.core import RunContext, Telemetry, new_run_id
from repro.telemetry.exporters import read_jsonl
from repro.telemetry.observatory import (
    DiffThresholds,
    aggregate_run,
    chrome_trace,
    diff_runs,
    render_diff,
    render_run_overview,
    run_events,
    summary_from_aggregate,
    write_chrome_trace,
)
from repro.telemetry.registry import MetricsRegistry, render_snapshots
from repro.telemetry.windows import WINDOW_FIELDS, WindowRecord, encode_window

pytestmark = pytest.mark.telemetry

RUN = "20260805T120000-deadbeef"

#: Keys the trace_event spec requires on every traceEvents entry.
TRACE_KEYS = ("ph", "ts", "pid", "tid", "name")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def make_evaluation(design, workload):
    return Evaluation(
        design_name=design, workload=workload, time_s=1.0, dynamic_j=2.0,
        static_j=3.0, energy_j=5.0, edp_js=5.0, amat_ns=1.5, time_norm=1.0,
        energy_norm=0.5, dynamic_norm=0.4, static_norm=0.6, edp_norm=0.5,
    )


class FakeDesign:
    def __init__(self, name):
        self.name = name

    def sim_key(self):
        return self.name

    def __str__(self):
        return self.name


class FakeWorkload:
    def __init__(self, name):
        self.name = name


class FakeRunner:
    def __init__(self):
        self.scale = 0.001
        self.seed = 0

    def evaluate(self, design, workload):
        return make_evaluation(design.name, workload.name)


DESIGNS = [FakeDesign("D1"), FakeDesign("D2")]
WORKLOADS = [FakeWorkload("W1"), FakeWorkload("W2")]


def write_events(path, events, torn_tail=False):
    """Write a JSONL event log, optionally with a kill-torn last line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(e, sort_keys=True) for e in events]
    text = "".join(line + "\n" for line in lines)
    if torn_tail:
        text += '{"kind": "span", "name": "torn.in.hal'
    path.write_text(text)


def ev(worker, seq, ts, **fields):
    """One synthetic correlated event."""
    payload = {"run": RUN, "worker": worker, "seq": seq, "ts": ts,
               "kind": "span", "name": "sweep.cell", "duration_s": 0.5}
    payload.update(fields)
    return payload


def window_ev(worker, seq, ts, context, records):
    """One synthetic ``window`` event carrying ``records``."""
    return {"run": RUN, "worker": worker, "seq": seq, "ts": ts,
            "kind": "window", "context": context, **encode_window(records)}


def make_synthetic_run(root):
    """A pool run's directory: the coordinator's events and those its
    two workers shipped, in one log, and one metrics snapshot.

    The log ends in a kill-torn line, holds a duplicated
    (run, worker, seq) line (a resume replaying its tail), and its
    timestamps interleave out of order across and within workers.
    """
    counters = {field: i for i, field in enumerate(WINDOW_FIELDS)}
    sim = [WindowRecord(index=0, start_refs=0, end_refs=100, level="L1",
                        **counters)]
    events = [
        ev("root", 0, 100.0, kind="run_started", name="run"),
        ev("worker-1", 0, 105.0, duration_s=4.0),
        ev("worker-0", 0, 110.0, duration_s=2.0),
        ev("worker-0", 1, 120.0, duration_s=3.0),
        ev("worker-0", 2, 115.0, duration_s=1.0),  # out-of-order append
        ev("worker-1", 1, 125.0, duration_s=2.5),
        window_ev("worker-0", 3, 126.0, "sim", sim),
        window_ev("worker-1", 2, 127.0, "sim", sim),
        ev("root", 1, 130.0, kind="cell_finished", name="cell",
           design="D1", workload="W1", status="ok", duration_s=9.0,
           cell="c-1"),
        ev("root", 1, 130.0, kind="cell_finished", name="cell",
           design="D1", workload="W1", status="ok", duration_s=9.0,
           cell="c-1"),  # duplicate appended by a resumed coordinator
        ev("root", 2, 131.0, kind="cell_finished", name="cell",
           design="D2", workload="W1", status="ok", duration_s=8.0,
           cell="c-2"),
    ]
    write_events(root / "events.jsonl", events, torn_tail=True)

    registry = MetricsRegistry()
    registry.counter("repro_sweep_cells_total", status="ok").inc(2)
    reg0 = MetricsRegistry()
    reg0.counter("repro_engine_runs", level="L1", path="vector").inc(30)
    reg0.counter("repro_engine_runs", level="L1", path="scalar").inc(10)
    reg0.histogram("repro_span_seconds", buckets=(1.0, 10.0),
                   name="sweep.cell").observe(2.0)
    reg1 = MetricsRegistry()
    reg1.counter("repro_engine_runs", level="L1", path="vector").inc(10)
    reg1.counter("repro_engine_runs", level="L1", path="scalar").inc(10)
    reg1.histogram("repro_span_seconds", buckets=(1.0, 10.0),
                   name="sweep.cell").observe(4.0)
    (root / "metrics.prom").write_text(render_snapshots([
        (reg.snapshot(), {"run": RUN, "worker": worker})
        for reg, worker in ((registry, "root"), (reg0, "worker-0"),
                            (reg1, "worker-1"))
    ]))
    return root


# ----------------------------------------------------------------------
# Correlation identity
# ----------------------------------------------------------------------


class TestRunContext:
    def test_new_run_id_format_and_uniqueness(self):
        run_id = new_run_id(lambda: 0.0)
        assert re.fullmatch(r"19700101T000000-[0-9a-f]{8}", run_id)
        assert new_run_id() != new_run_id()

    def test_child_rebinds_worker_and_drops_cell(self):
        context = RunContext(RUN, cell_key="c-9")
        child = context.child("worker-3")
        assert child == RunContext(RUN, "worker-3")
        assert context.labels() == {"run": RUN, "worker": "root"}

    def test_events_carry_run_worker_seq_and_cell(self, tmp_path):
        telemetry = Telemetry(
            tmp_path, run_context=RunContext(RUN, "worker-1")
        )
        telemetry.event(kind="first")
        with telemetry.cell_scope("c-42"):
            with telemetry.span("sweep.cell"):
                pass
        telemetry.close()
        events = run_events(tmp_path)
        assert [e["seq"] for e in events] == [0, 1]
        assert all(e["run"] == RUN for e in events)
        assert all(e["worker"] == "worker-1" for e in events)
        assert "cell" not in events[0]
        assert events[1]["cell"] == "c-42"

    def test_seq_continues_across_resume(self, tmp_path):
        first = Telemetry(tmp_path, run_context=RunContext(RUN))
        first.event(kind="a")
        first.event(kind="b")
        first.close()
        resumed = Telemetry(tmp_path, run_context=RunContext(RUN))
        resumed.event(kind="c")
        resumed.close()
        seqs = [e["seq"] for e in run_events(tmp_path)]
        assert seqs == [0, 1, 2]  # no (run, worker, seq) collision

    def test_reused_worker_label_never_repeats_a_seq(self, tmp_path):
        """Two pools of one run, then a resumed run, each spawn a
        ``worker-0``: every worker starts numbering at the parent's
        ``next_seq``, so no shipped line collides with an earlier one
        and none is dropped as a duplicate."""
        shipped = 0
        for run in range(2):  # the second pass resumes the directory
            parent = Telemetry(tmp_path, run_context=RunContext(RUN))
            for pool in range(2):
                worker = Telemetry.for_worker(
                    parent.run_context.child("worker-0"), parent.next_seq
                )
                for _ in range(3):
                    worker.event(kind="work")
                parent.receive("worker-0", worker.ship())
                parent.event(kind="pool_finished")
                shipped += 3
            parent.close()
        events = run_events(tmp_path)
        keys = [(e["run"], e["worker"], e["seq"]) for e in events]
        assert len(keys) == len(set(keys)) == 4 * 3 + 4
        assert sum(e["kind"] == "work" for e in events) == shipped

    def test_metrics_snapshot_carries_provenance_labels(self, tmp_path):
        telemetry = Telemetry(
            tmp_path, run_context=RunContext(RUN, "worker-0")
        )
        telemetry.counter("repro_cells", status="ok").inc(3)
        telemetry.flush()
        text = (tmp_path / "metrics.prom").read_text()
        assert (
            f'repro_cells{{run="{RUN}",status="ok",worker="worker-0"}} 3'
            in text
        )

    def test_flush_is_atomic_under_failed_replace(self, tmp_path,
                                                  monkeypatch):
        # Regression pin: the snapshot must go through the atomic
        # write-and-rename helper, so a failed rename (or a kill at
        # that point) leaves the previous complete file.
        telemetry = Telemetry(tmp_path, run_context=RunContext(RUN))
        telemetry.counter("repro_cells").inc()
        telemetry.flush()
        before = (tmp_path / "metrics.prom").read_text()

        telemetry.counter("repro_cells").inc()

        def boom(src, dst):
            raise OSError("injected rename failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            telemetry.flush()
        monkeypatch.undo()
        assert (tmp_path / "metrics.prom").read_text() == before
        leftovers = [
            p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")
        ]
        assert leftovers == []


# ----------------------------------------------------------------------
# Discovery and event merging
# ----------------------------------------------------------------------


class TestDiscovery:
    def test_sources_in_numeric_order(self, tmp_path):
        write_events(tmp_path / "events.jsonl", [
            ev(worker, 0, ts)
            for ts, worker in enumerate(
                ("worker-10", "worker-1", "root", "worker-2", "worker-0")
            )
        ])
        assert aggregate_run(tmp_path).sources == [
            "root", "worker-0", "worker-1", "worker-2", "worker-10",
        ]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(TelemetryError, match="no telemetry"):
            aggregate_run(tmp_path / "absent")

    def test_empty_directory_raises(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(TelemetryError, match="no telemetry artifacts"):
            aggregate_run(tmp_path)
        with pytest.raises(SystemExit, match="no telemetry artifacts"):
            main(["telemetry", "report", str(tmp_path)])


class TestEventMerge:
    def test_merge_is_ordered_deduplicated_and_loss_free(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        aggregate = aggregate_run(root)

        # Loss-free: all 10 distinct valid lines survive; the root's
        # duplicated (run, worker, seq) line collapses to one; the torn
        # trailing line is dropped rather than corrupting the read.
        assert len(aggregate.events) == 10
        keys = [(e["run"], e["worker"], e["seq"]) for e in aggregate.events]
        assert len(set(keys)) == len(keys)
        assert not any(
            e.get("name") == "torn.in.hal" for e in aggregate.events
        )

        # Ordered by wall clock even though worker-0 shipped its
        # ts=115 line after ts=120, and the workers interleave.
        timestamps = [e["ts"] for e in aggregate.events]
        assert timestamps == sorted(timestamps)
        assert [e["worker"] for e in aggregate.events[:3]] == [
            "root", "worker-1", "worker-0",
        ]
        assert aggregate.run_id == RUN
        assert aggregate.sources == ["root", "worker-0", "worker-1"]

    def test_legacy_events_without_context_still_merge(self, tmp_path):
        write_events(tmp_path / "events.jsonl", [
            {"ts": 1.0, "kind": "span", "name": "a", "duration_s": 0.1},
            {"ts": 2.0, "kind": "span", "name": "b", "duration_s": 0.2},
        ])
        aggregate = aggregate_run(tmp_path)
        assert [e["name"] for e in aggregate.events] == ["a", "b"]
        assert aggregate.run_id is None


# ----------------------------------------------------------------------
# Metric merging: exact conservation
# ----------------------------------------------------------------------


class TestConservation:
    def test_merged_totals_equal_sum_of_workers_exactly(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        aggregate = aggregate_run(root)

        assert aggregate.metric_value(
            "repro_sweep_cells_total", status="ok") == 2.0
        # 30 + 10 vector runs across the two workers, 10 + 10 scalar.
        assert aggregate.metric_value(
            "repro_engine_runs", level="L1", path="vector") == 40.0
        assert aggregate.metric_value(
            "repro_engine_runs", level="L1", path="scalar") == 20.0
        assert aggregate.vector_fractions() == {"L1": 40.0 / 60.0}

        # Histogram buckets, sums, and counts all conserve: one 2.0s
        # and one 4.0s observation against buckets (1, 10).
        assert aggregate.metric_value(
            "repro_span_seconds_bucket", le="1.0", name="sweep.cell") == 0.0
        assert aggregate.metric_value(
            "repro_span_seconds_bucket", le="10.0", name="sweep.cell") == 2.0
        assert aggregate.metric_value(
            "repro_span_seconds_bucket", le="+Inf", name="sweep.cell") == 2.0
        assert aggregate.metric_value(
            "repro_span_seconds_sum", name="sweep.cell") == 6.0
        assert aggregate.metric_value(
            "repro_span_seconds_count", name="sweep.cell") == 2.0

    def test_window_rows_keep_provenance(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        aggregate = aggregate_run(root)
        assert sorted((r.worker, r.context) for r in aggregate.windows) == [
            ("worker-0", "sim"), ("worker-1", "sim"),
        ]
        assert all(r.run == RUN for r in aggregate.windows)
        # Level digests sum the two identical windows.
        digest = {d.level: d for d in aggregate.level_digests()}["L1"]
        loads = dict(zip(WINDOW_FIELDS, range(len(WINDOW_FIELDS))))
        assert digest.accesses == 2 * (loads["loads"] + loads["stores"])

    def test_kind_conflict_refuses_to_merge(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        with open(root / "metrics.prom", "a") as handle:
            handle.write("# TYPE repro_engine_runs gauge\n")
        with pytest.raises(TelemetryError, match="refusing to merge"):
            aggregate_run(root)

    def test_summary_from_aggregate_counts_all_workers(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        aggregate = aggregate_run(root)
        summary = summary_from_aggregate(aggregate)
        assert summary.events_by_kind["span"] == 5
        assert summary.events_by_kind["cell_finished"] == 2
        span = {d.name: d for d in summary.spans}["sweep.cell"]
        assert span.count == 5
        assert span.total_s == pytest.approx(2.0 + 3.0 + 1.0 + 2.5 + 4.0)

    def test_render_run_overview_mentions_every_source(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        text = render_run_overview(aggregate_run(root))
        assert f"run id: {RUN}" in text
        for label in ("root:", "worker-0:", "worker-1:"):
            assert label in text
        assert "2 ok" in text


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------


class TestChromeTrace:
    def test_every_event_has_required_keys(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        trace = chrome_trace(aggregate_run(root))
        assert trace["traceEvents"]
        for event in trace["traceEvents"]:
            for key in TRACE_KEYS:
                assert key in event, f"{key} missing from {event}"
            assert isinstance(event["ts"], int) and event["ts"] >= 0

    def test_one_process_track_per_worker(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        trace = chrome_trace(aggregate_run(root))
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {
            "root", "worker-0", "worker-1",
        }
        assert len({e["pid"] for e in meta}) == 3

    def test_spans_become_complete_slices(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        trace = chrome_trace(aggregate_run(root))
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 5  # worker spans; cell events export async
        assert all(e["cat"] == "span" and e["dur"] >= 0 for e in slices)

    def test_cells_become_balanced_async_slices(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        trace = chrome_trace(aggregate_run(root))
        begins = [e for e in trace["traceEvents"] if e["ph"] == "b"]
        ends = [e for e in trace["traceEvents"] if e["ph"] == "e"]
        assert len(begins) == len(ends) == 2
        assert {e["name"] for e in begins} == {"D1/W1", "D2/W1"}
        assert {e["id"] for e in begins} == {e["id"] for e in ends}

    def test_trace_file_is_valid_json(self, tmp_path):
        root = make_synthetic_run(tmp_path / "run")
        path = write_chrome_trace(
            aggregate_run(root), tmp_path / "trace.json"
        )
        loaded = json.loads(path.read_text())
        assert loaded["otherData"]["run_id"] == RUN
        assert loaded["displayTimeUnit"] == "ms"


# ----------------------------------------------------------------------
# Run-to-run diffing
# ----------------------------------------------------------------------


def run_sweep_with_telemetry(tmp_path, name, evaluate=None):
    """One journalled fake-runner sweep with telemetry; returns its dir."""
    runner = FakeRunner()
    telemetry_dir = tmp_path / name
    telemetry = Telemetry(telemetry_dir)
    executor = SweepExecutor(
        runner, journal=Journal(tmp_path / f"{name}.jsonl"),
        telemetry=telemetry, evaluate=evaluate,
    )
    result = executor.run(DESIGNS, WORKLOADS)
    telemetry.close()
    assert result.counts() == {"ok": 4}
    return telemetry_dir


class TestDiff:
    def test_identical_runs_have_no_regressions(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        diff = diff_runs(aggregate_run(root), aggregate_run(root))
        assert diff.ok
        assert diff.entries  # it compared things, not nothing
        assert "no regressions" in render_diff(diff)

    def test_two_real_runs_diff_clean(self, tmp_path):
        baseline = run_sweep_with_telemetry(tmp_path, "baseline")
        candidate = run_sweep_with_telemetry(tmp_path, "candidate")
        diff = diff_runs(
            aggregate_run(baseline), aggregate_run(candidate),
            DiffThresholds(span_pct=200.0, span_min_s=5.0),
        )
        assert diff.ok, render_diff(diff)

    def test_injected_slow_cell_regresses_span(self, tmp_path):
        baseline = run_sweep_with_telemetry(tmp_path, "baseline")
        runner = FakeRunner()
        injector = FaultInjector().delay_cell("D1", "W1", 0.3)
        candidate = run_sweep_with_telemetry(
            tmp_path, "candidate", evaluate=injector.wrap(runner.evaluate)
        )
        diff = diff_runs(aggregate_run(baseline), aggregate_run(candidate))
        assert not diff.ok
        kinds = {(e.kind, e.name) for e in diff.regressions}
        assert ("span", "sweep.cell") in kinds
        assert "REGRESSIONS" in render_diff(diff)

    def test_span_needs_both_gates(self, tmp_path):
        # +900% but only +9ms: below the absolute floor, not a
        # regression; +60% and +0.6s: both gates crossed.
        root = make_synthetic_run(tmp_path)
        base = aggregate_run(root)
        small = aggregate_run(root)
        small.events = [dict(e) for e in base.events]
        for event in small.events:
            if event.get("seq") == 0 and event["worker"] == "worker-0":
                event["duration_s"] = 2.009

        assert diff_runs(
            base, small, DiffThresholds(span_pct=1.0, span_min_s=0.05)
        ).ok

        big = aggregate_run(root)
        big.events = [dict(e) for e in base.events]
        for event in big.events:
            if event["kind"] == "span" and event["worker"] != "root":
                event["duration_s"] = float(event["duration_s"]) + 2.0
        diff = diff_runs(base, big)
        assert [e.name for e in diff.regressions] == ["sweep.cell"]

    def test_hit_rate_regresses_in_either_direction(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        base = aggregate_run(root)
        moved = aggregate_run(root)
        for row in moved.windows:
            object.__setattr__(row.record, "load_hits",
                               row.record.load_hits + 1)
        assert not diff_runs(base, moved).ok
        assert not diff_runs(moved, base).ok  # a *rise* also flags

    def test_vector_fraction_only_drops_regress(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        base = aggregate_run(root)
        slower = aggregate_run(root)
        slower.metrics["repro_engine_runs"] = {
            key: (value * 4 if dict(key).get("path") == "scalar" else value)
            for key, value in base.metrics["repro_engine_runs"].items()
        }
        assert not diff_runs(base, slower).ok
        assert diff_runs(slower, base).ok  # fraction rising is fine

    def test_new_failed_cells_regress(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        base = aggregate_run(root)
        failing = aggregate_run(root)
        failing.metrics["repro_sweep_cells_total"] = {
            (("status", "failed"),): 1.0,
            **base.metrics["repro_sweep_cells_total"],
        }
        diff = diff_runs(base, failing)
        assert [e.name for e in diff.regressions] == ["failed"]

    def test_thresholds_validate(self):
        with pytest.raises(TelemetryError, match="non-negative"):
            DiffThresholds(span_pct=-1).validate()
        with pytest.raises(TelemetryError, match="hit_rate_abs"):
            DiffThresholds(hit_rate_abs=2.0).validate()
        with pytest.raises(TelemetryError, match="vector_fraction_abs"):
            DiffThresholds(vector_fraction_abs=-0.1).validate()


class TestSupervisionDiff:
    """Worker-pool health counters gate run-to-run diffs."""

    @staticmethod
    def _sup(aggregate, **counters):
        clone_metrics = dict(aggregate.metrics)
        for name, value in counters.items():
            clone_metrics[f"repro_pool_{name}"] = {(): float(value)}
        aggregate.metrics = clone_metrics
        return aggregate

    def test_poisoned_and_restart_increases_regress(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        base = aggregate_run(root)
        worse = self._sup(
            aggregate_run(root), poisoned_cells_total=1,
            restarts_total=2,
        )
        diff = diff_runs(base, worse)
        assert {e.name for e in diff.regressions} == {
            "poisoned", "restarts"
        }
        assert all(e.kind == "supervision" for e in diff.regressions)

    def test_requeues_and_recovery_do_not_regress(self, tmp_path):
        # Requeues that still converge are recovery working as
        # designed, not a regression; fewer restarts is an improvement.
        root = make_synthetic_run(tmp_path)
        base = self._sup(aggregate_run(root), restarts_total=3)
        better = self._sup(
            aggregate_run(root), restarts_total=1, requeues_total=2
        )
        assert diff_runs(base, better).ok

    def test_unsupervised_runs_add_no_entries(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        diff = diff_runs(aggregate_run(root), aggregate_run(root))
        assert not any(e.kind == "supervision" for e in diff.entries)


class TestSupervisionReport:
    def test_summary_counts_supervision_events(self, tmp_path):
        from repro.telemetry.report import render_summary

        telemetry = Telemetry(tmp_path / "t", run_context=RunContext(RUN))
        for kind in ("worker_spawned", "worker_spawned", "worker_died",
                     "worker_respawned", "cell_requeued"):
            telemetry.event(kind, pool_worker="worker-0")
        telemetry.close()
        summary = summary_from_aggregate(aggregate_run(tmp_path / "t"))
        assert summary.supervision.spawned == 2
        assert summary.supervision.died == 1
        assert summary.supervision.respawned == 1
        assert summary.supervision.requeued == 1
        assert summary.supervision.any
        rendered = render_summary(summary)
        assert "supervision" in rendered
        assert "workers respawned" in rendered

    def test_uneventful_run_renders_no_supervision_section(self,
                                                           tmp_path):
        from repro.telemetry.report import render_summary

        telemetry = Telemetry(tmp_path / "t", run_context=RunContext(RUN))
        # Spawns alone (no deaths, requeues, drains...) are not worth
        # a section: every parallel campaign spawns workers.
        telemetry.event("worker_spawned", pool_worker="worker-0")
        telemetry.close()
        summary = summary_from_aggregate(aggregate_run(tmp_path / "t"))
        assert not summary.supervision.any
        assert "supervision" not in render_summary(summary)

    def test_aggregate_summary_carries_supervision(self, tmp_path):
        root = make_synthetic_run(tmp_path)
        extra = [
            ev("root", 90, 140.0, kind="worker_died",
               pool_worker="worker-0", name="x"),
            ev("root", 91, 141.0, kind="cell_requeued",
               pool_worker="worker-0", name="x"),
        ]
        events = read_jsonl(root / "events.jsonl")  # drops the torn tail
        write_events(root / "events.jsonl", events + extra)
        summary = summary_from_aggregate(aggregate_run(root))
        assert summary.supervision.died == 1
        assert summary.supervision.requeued == 1


# ----------------------------------------------------------------------
# Golden `telemetry report` output
# ----------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def make_plain_run(directory):
    """A single-process telemetry directory written from fixed artifacts.

    Everything ``telemetry report`` reads: an event log without
    duplicates (spans, engine selections, window events of two stages,
    supervision events), a Prometheus snapshot and a sampled profile.
    """

    def window(index, level, loads, load_hits):
        return WindowRecord(
            index=index, start_refs=100 * index, end_refs=100 * (index + 1),
            level=level, loads=loads, stores=loads // 4,
            load_hits=load_hits, load_misses=loads - load_hits,
            store_hits=loads // 8, store_misses=loads // 4 - loads // 8,
            writebacks=index + 1, fills=loads - load_hits,
            load_bits=512 * loads, store_bits=512 * (loads // 4),
        )

    events = [
        ev("root", 0, 100.0, kind="run_started", name="run"),
        ev("root", 1, 100.5, kind="engine_selected", level="L1",
           engine="setpar", policy="lru"),
        ev("root", 2, 100.6, kind="engine_selected", level="L2",
           engine="scalar", policy="srrip"),
        ev("root", 3, 101.0, name="runner.prepare", duration_s=0.25),
        ev("root", 4, 102.0, name="runner.simulate", duration_s=1.5),
        ev("root", 5, 103.0, name="runner.simulate", duration_s=0.75),
        window_ev("root", 6, 103.1, "CG-REF",
                  [window(0, "L1", 80, 70), window(0, "L2", 10, 4)]),
        window_ev("root", 7, 103.2, "CG-REF",
                  [window(1, "L1", 80, 60), window(1, "L2", 20, 15)]),
        window_ev("root", 8, 103.3, "CG-NMM",
                  [window(0, "L1", 40, 39), window(0, "L2", 1, 0)]),
        ev("root", 9, 104.0, kind="worker_spawned", pool_worker="worker-0"),
        ev("root", 10, 105.0, kind="worker_died", pool_worker="worker-0"),
        ev("root", 11, 106.0, kind="cell_requeued", pool_worker="worker-0"),
        ev("root", 12, 107.0, kind="cell_finished", name="cell",
           design="D1", workload="W1", status="ok", duration_s=2.5,
           cell="c-1"),
    ]
    write_events(directory / "events.jsonl", events)

    registry = MetricsRegistry()
    registry.counter("repro_sweep_cells_total", status="ok").inc(1)
    registry.counter("repro_engine_rounds", level="L1").inc(12)
    registry.counter("repro_engine_runs", level="L1", path="vector").inc(90)
    registry.counter("repro_engine_runs", level="L1", path="scalar").inc(10)
    registry.counter("repro_engine_runs", level="L2", path="scalar").inc(50)
    registry.gauge("repro_engine_occupancy", level="L1").set(24.5)
    spans = registry.histogram("repro_span_seconds", buckets=(1.0, 10.0),
                               name="runner.simulate")
    spans.observe(1.5)
    spans.observe(0.75)
    (directory / "metrics.prom").write_text(render_snapshots(
        [(registry.snapshot(), {"run": RUN, "worker": "root"})]
    ))

    profile = [
        {"kind": "profile", "hz": 97.0, "count": 7, "run": RUN,
         "spans": ["sweep", "runner.simulate"],
         "stack": ["cli:main", "cache:replay"]},
        {"kind": "profile", "hz": 97.0, "count": 3, "run": RUN,
         "spans": ["sweep", "runner.simulate"],
         "stack": ["cli:main", "model:price"]},
        {"kind": "profile", "hz": 97.0, "count": 2, "run": RUN,
         "spans": ["sweep"], "stack": ["cli:main"]},
    ]
    (directory / "profile.jsonl").write_text("".join(
        json.dumps(record, sort_keys=True) + "\n" for record in profile
    ))
    return directory


class TestReportGolden:
    """``telemetry report`` text and ``--json``, pinned byte for byte.

    The directory path is the only part of the output that varies
    between runs; it is replaced by ``<DIR>`` before comparing.
    """

    def report(self, directory, capsys, *flags):
        from repro.experiments.cli import main

        assert main(["telemetry", "report", str(directory), *flags]) == 0
        return capsys.readouterr().out.replace(str(directory), "<DIR>")

    @pytest.mark.parametrize("flags, golden", [
        ((), "report_plain.txt"),
        (("--json",), "report_plain.json"),
    ])
    def test_plain_directory(self, tmp_path, capsys, flags, golden):
        directory = make_plain_run(tmp_path / "t")
        out = self.report(directory, capsys, *flags)
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("flags, golden", [
        ((), "report_run.txt"),
        (("--json",), "report_run.json"),
    ])
    def test_multi_worker_root(self, tmp_path, capsys, flags, golden):
        root = make_synthetic_run(tmp_path / "run")
        out = self.report(root, capsys, *flags)
        assert out == (GOLDEN / golden).read_text()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCli:
    def test_trace_report_diff_round_trip(self, tmp_path, capsys):
        from repro.experiments.cli import main

        root = make_synthetic_run(tmp_path / "run")
        assert main(["telemetry", "trace", str(root),
                     "--out", str(tmp_path / "trace.json")]) == 0
        trace = json.loads((tmp_path / "trace.json").read_text())
        for event in trace["traceEvents"]:
            for key in TRACE_KEYS:
                assert key in event

        assert main(["telemetry", "report", str(root)]) == 0
        out = capsys.readouterr().out
        assert "run overview" in out
        assert "worker-1" in out

        assert main(["telemetry", "report", str(root), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["stages"]

        assert main(["telemetry", "diff", str(root), str(root)]) == 0

    def test_diff_exit_codes_and_threshold_flags(self, tmp_path, capsys):
        from repro.experiments.cli import main

        baseline = run_sweep_with_telemetry(tmp_path, "baseline")
        runner = FakeRunner()
        injector = FaultInjector().delay_cell("D1", "W1", 0.3)
        candidate = run_sweep_with_telemetry(
            tmp_path, "candidate", evaluate=injector.wrap(runner.evaluate)
        )
        assert main(["telemetry", "diff", str(baseline),
                     str(candidate)]) == 1
        assert "REGRESSIONS" in capsys.readouterr().out
        # Loose thresholds wave the same pair through.
        assert main([
            "telemetry", "diff", str(baseline), str(candidate),
            "--span-pct", "10000", "--span-min-s", "30",
        ]) == 0

    def test_report_plain_directory_unchanged(self, tmp_path, capsys):
        from repro.experiments.cli import main

        telemetry = Telemetry(tmp_path / "t", run_context=RunContext(RUN))
        with telemetry.span("alpha"):
            pass
        telemetry.close()
        assert main(["telemetry", "report", str(tmp_path / "t")]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "run overview" not in out  # no worker events, plain path

    def test_missing_directory_is_a_clean_error(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit, match="no telemetry"):
            main(["telemetry", "report", str(tmp_path / "nope")])

    @pytest.mark.parametrize("action", ["trace", "diff", "report"])
    def test_garbled_metrics_is_a_clean_error(self, tmp_path, action):
        from repro.experiments.cli import main

        directory = make_plain_run(tmp_path / "t")
        with open(directory / "metrics.prom", "a") as handle:
            handle.write("repro_sweep_cells_total{status=\"ok\"} NaN?\n")
        args = [str(directory)] * (2 if action == "diff" else 1)
        with pytest.raises(SystemExit, match="unparseable metrics line"):
            main(["telemetry", action, *args])

    def test_report_counts_a_repeated_event_once(self, tmp_path, capsys):
        from repro.experiments.cli import main

        directory = make_plain_run(tmp_path / "t")
        events = directory / "events.jsonl"
        lines = events.read_text().splitlines(keepends=True)
        events.write_text("".join(lines + lines[-2:]))  # a replayed tail
        assert main(["telemetry", "report", str(directory), "--json"]) == 0
        counts = json.loads(capsys.readouterr().out)["events_by_kind"]
        assert counts["cell_requeued"] == 1
        assert counts["cell_finished"] == 1


# ----------------------------------------------------------------------
# End-to-end: executor -> run context -> aggregate
# ----------------------------------------------------------------------


@pytest.mark.resilience
class TestExecutorIntegration:
    def test_serial_sweep_correlates_and_aggregates(self, tmp_path):
        runner = FakeRunner()
        telemetry = Telemetry(tmp_path / "telemetry")
        journal = Journal(tmp_path / "journal.jsonl")
        executor = SweepExecutor(runner, journal=journal,
                                 telemetry=telemetry)
        executor.run(DESIGNS, WORKLOADS)
        telemetry.close()

        run_id = telemetry.run_context.run_id
        assert telemetry.run_context.worker_id == "root"
        for entry in journal.entries():
            assert entry.run_id == run_id

        aggregate = aggregate_run(tmp_path / "telemetry")
        assert aggregate.run_id == run_id
        finished = [
            e for e in aggregate.events if e["kind"] == "cell_finished"
        ]
        assert len(finished) == 4
        assert all(e["run"] == run_id for e in finished)
        assert all("cell" in e for e in finished)
        assert aggregate.metric_value(
            "repro_sweep_cells_total", status="ok") == 4.0

    @pytest.mark.slow
    @pytest.mark.skipif(
        usable_cpus() < 2,
        reason="parallel sweep smoke needs >= 2 usable CPUs",
    )
    def test_parallel_sweep_merges_across_workers(self, tmp_path):
        from repro.designs.nmm import NMMDesign
        from repro.designs.configs import N_CONFIGS
        from repro.designs.reference import ReferenceDesign
        from repro.experiments.runner import Runner
        from repro.tech.params import PCM
        from repro.workloads.registry import get_workload

        scale = 1.0 / 8192
        runner = Runner(scale=scale, seed=5,
                        trace_cache_dir=str(tmp_path / "traces"))
        designs = [
            ReferenceDesign(scale=scale, reference=runner.reference),
            NMMDesign(PCM, N_CONFIGS["N6"], scale=scale,
                      reference=runner.reference),
        ]
        workloads = [get_workload("CG")]
        telemetry = Telemetry(tmp_path / "telemetry")
        executor = SweepExecutor(
            runner, journal=Journal(tmp_path / "journal.jsonl"),
            telemetry=telemetry, workers=2,
        )
        result = executor.run(designs, workloads)
        telemetry.close()
        assert result.counts() == {"ok": 2}

        root = tmp_path / "telemetry"
        assert not list(root.glob("worker-*"))
        aggregate = aggregate_run(root)
        assert aggregate.run_id == telemetry.run_context.run_id
        assert set(aggregate.sources) == {"root", "worker-0", "worker-1"}

        # Conservation across processes: the summed span counter
        # equals the sum over the per-worker samples of the snapshot.
        per_worker = 0.0
        kinds, samples = observatory._read_metrics(root / "metrics.prom")
        for name, labels, value in samples:
            if (name == "repro_spans_total"
                    and labels.get("name") == "sweep.cell"):
                assert labels["worker"].startswith("worker-")
                per_worker += value
        assert aggregate.metric_value(
            "repro_spans_total", name="sweep.cell") == per_worker
        assert per_worker == 2.0
