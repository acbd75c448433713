"""Continuous profiling: sampler, records, merge, spool fast path."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.telemetry import observatory
from repro.telemetry.core import (
    DEFAULT_SPOOL_EVENTS,
    RunContext,
    Telemetry,
)
from repro.telemetry.exporters import read_jsonl
from repro.telemetry.observatory import (
    DiffThresholds,
    aggregate_run,
    chrome_trace,
    diff_runs,
    render_diff,
    render_run_overview,
    summary_from_aggregate,
)
from repro.telemetry.profiling import (
    FLAME_FILE,
    NO_STAGE,
    PROFILE_FILE,
    SamplingProfiler,
    fold_records,
    frame_label,
    function_shares,
    hotspot_digests,
    merge_records,
    read_profile,
    render_flame,
    total_samples,
    write_flame,
)
from repro.telemetry.registry import (
    DROPPED_SERIES_METRIC,
    MetricsRegistry,
    _NULL_INSTRUMENT,
)
from repro.telemetry.report import render_summary

pytestmark = pytest.mark.telemetry

RUN = "20260805T120000-deadbeef"

#: Keys the trace_event spec requires on every traceEvents entry.
TRACE_KEYS = ("ph", "ts", "pid", "tid")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def profile_record(count, spans=(), stack=("mod:fn",), worker=None,
                   cell=None, hz=97.0):
    record = {"kind": "profile", "hz": hz, "count": count,
              "spans": list(spans), "stack": list(stack), "run": RUN}
    if worker is not None:
        record["worker"] = worker
    if cell is not None:
        record["cell"] = cell
    return record


def write_profile(path, records, torn_tail=False):
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "".join(
        json.dumps(r, sort_keys=True) + "\n" for r in records
    )
    if torn_tail:
        text += '{"kind": "profile", "count": 999, "stack": ["to'
    path.write_text(text)


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------


class TestSamplingProfiler:
    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            SamplingProfiler(Telemetry(), hz=0)

    def test_sample_once_attributes_span_stack_and_cell(self, tmp_path):
        telemetry = Telemetry(tmp_path)
        profiler = SamplingProfiler(telemetry, hz=10.0)
        ident = threading.get_ident()
        with telemetry.cell_scope("c-1"):
            with telemetry.span("runner.prepare"):
                with telemetry.span("hierarchy.run"):
                    counted = profiler.sample_once(
                        {ident: ("mod:a", "mod:b")}
                    )
        assert counted == 1
        delta, drained = profiler.drain()
        assert drained == 1
        key = (("runner.prepare", "hierarchy.run"), "c-1",
               ("mod:a", "mod:b"))
        assert delta == {key: 1}
        telemetry.close()

    def test_exited_spans_leave_the_attribution(self, tmp_path):
        telemetry = Telemetry(tmp_path)
        profiler = SamplingProfiler(telemetry, hz=10.0)
        ident = threading.get_ident()
        with telemetry.span("runner.prepare"):
            pass
        profiler.sample_once({ident: ("mod:a",)})
        delta, _ = profiler.drain()
        assert list(delta) == [((), None, ("mod:a",))]
        telemetry.close()

    def test_ignored_and_empty_stacks_are_skipped(self):
        telemetry = Telemetry()
        profiler = SamplingProfiler(telemetry, hz=10.0)
        profiler._ignore.add(7)
        counted = profiler.sample_once({7: ("mod:a",), 8: ()})
        assert counted == 0
        assert profiler.samples == 0

    def test_drain_pops_counts_and_samples_accumulate(self):
        telemetry = Telemetry()
        profiler = SamplingProfiler(telemetry, hz=10.0)
        for _ in range(3):
            profiler.sample_once({1: ("mod:a",)})
        delta, drained = profiler.drain()
        assert drained == 3
        assert delta[((), None, ("mod:a",))] == 3
        assert profiler.drain() == ({}, 0)  # popped, not re-read
        assert profiler.samples == 3  # lifetime total survives drains

    def test_background_thread_samples_real_stacks(self, tmp_path):
        telemetry = Telemetry(tmp_path)
        done = threading.Event()

        def busy():
            while not done.is_set():
                sum(range(500))

        worker = threading.Thread(target=busy, daemon=True)
        worker.start()
        profiler = SamplingProfiler(telemetry, hz=200.0)
        profiler.start()
        try:
            deadline = 100
            while profiler.samples == 0 and deadline:
                threading.Event().wait(0.02)
                deadline -= 1
        finally:
            profiler.stop()
            done.set()
            worker.join()
            telemetry.close()
        assert profiler.samples > 0
        delta, _ = profiler.drain()
        frames = {f for (_, _, stack) in delta for f in stack}
        assert any("test_telemetry_profiling" in f for f in frames)

    def test_frame_label_anchors_on_package(self):
        class Code:
            co_filename = "/root/repo/src/repro/cache/hierarchy.py"
            co_name = "run"

        assert frame_label(Code()) == "repro.cache.hierarchy:run"


# ----------------------------------------------------------------------
# Profile records: merge, fold, shares, hotspots
# ----------------------------------------------------------------------


class TestProfileRecords:
    def test_read_profile_missing_file_and_torn_tail(self, tmp_path):
        assert read_profile(tmp_path / PROFILE_FILE) == []
        write_profile(
            tmp_path / PROFILE_FILE,
            [profile_record(3), profile_record(2)],
            torn_tail=True,
        )
        records = read_profile(tmp_path / PROFILE_FILE)
        assert total_samples(records) == 5  # torn line dropped

    def test_merge_conserves_per_worker_counts(self):
        records = [
            profile_record(3, worker="worker-0"),
            profile_record(2, worker="worker-0"),
            profile_record(4, worker="worker-1"),
        ]
        merged = merge_records(records)
        assert len(merged) == 2  # same attribution within a worker sums
        assert total_samples(merged) == 9
        assert merge_records(merged) == merged  # idempotent re-merge

    def test_merge_keeps_distinct_attributions_apart(self):
        records = [
            profile_record(1, spans=("a",)),
            profile_record(1, spans=("b",)),
            profile_record(1, cell="c-1"),
        ]
        assert len(merge_records(records)) == 3

    def test_folded_flame_format(self, tmp_path):
        records = [
            profile_record(7, spans=("runner.prepare",),
                           stack=("mod:a", "mod:b")),
            profile_record(3, stack=("mod:c",)),
        ]
        text = render_flame(records)
        lines = text.strip().splitlines()
        assert "mod:c 3" in lines
        assert "runner.prepare;mod:a;mod:b 7" in lines
        path = write_flame(records, tmp_path / FLAME_FILE)
        assert path.read_text() == text
        assert fold_records(records)[("mod:c",)] == 3

    def test_function_shares_are_inclusive_once_per_sample(self):
        records = [
            profile_record(8, stack=("mod:a", "mod:b", "mod:a")),
            profile_record(2, stack=("mod:b",)),
        ]
        shares = function_shares(records)
        assert shares["mod:a"] == pytest.approx(0.8)  # recursion once
        assert shares["mod:b"] == pytest.approx(1.0)
        assert function_shares([]) == {}

    def test_hotspot_digests_group_by_innermost_span(self):
        records = [
            profile_record(6, spans=("outer", "inner"),
                           stack=("mod:hot",)),
            profile_record(2, spans=("outer", "inner"),
                           stack=("mod:cold",)),
            profile_record(1, stack=("mod:free",)),
        ]
        digests = hotspot_digests(records, top=1)
        assert digests[0].stage == "inner"
        assert digests[0].function == "mod:hot"
        assert digests[0].samples == 6
        assert digests[0].share == pytest.approx(6 / 8)
        assert digests[-1].stage == NO_STAGE


# ----------------------------------------------------------------------
# Session lifecycle (deterministic: injected stacks)
# ----------------------------------------------------------------------


class TestProfilingSession:
    def make_session(self, tmp_path):
        telemetry = Telemetry(
            tmp_path, run_context=RunContext(RUN, "worker-0")
        )
        return telemetry, SamplingProfiler(telemetry, 50.0)

    def test_flush_writes_stamped_records_and_counter(self, tmp_path):
        telemetry, profiler = self.make_session(tmp_path)
        ident = threading.get_ident()
        with telemetry.span("runner.prepare"):
            profiler.sample_once({ident: ("mod:a",)})
            profiler.sample_once({ident: ("mod:a",)})
        profiler.flush()
        records = read_profile(tmp_path / PROFILE_FILE)
        assert len(records) == 1
        assert records[0]["count"] == 2
        assert records[0]["spans"] == ["runner.prepare"]
        assert records[0]["run"] == RUN
        assert records[0]["worker"] == "worker-0"
        assert records[0]["hz"] == 50.0
        assert telemetry.registry.counter(
            "repro_profile_samples_total"
        ).value == 2
        profiler.close()
        telemetry.close()

    def test_flushes_append_deltas_and_flame_sums_them(self, tmp_path):
        from repro.experiments.cli import main

        telemetry, profiler = self.make_session(tmp_path)
        ident = threading.get_ident()
        profiler.sample_once({ident: ("mod:a",)})
        profiler.flush()
        profiler.sample_once({ident: ("mod:a",)})
        profiler.close()  # final drain; the flamegraph is on demand
        telemetry.close()
        records = read_profile(tmp_path / PROFILE_FILE)
        assert [r["count"] for r in records] == [1, 1]  # deltas, not totals
        assert not (tmp_path / FLAME_FILE).exists()
        assert main(["telemetry", "flame", str(tmp_path)]) == 0
        flame = (tmp_path / FLAME_FILE).read_text()
        assert flame == "mod:a 2\n"  # readers sum the deltas

    def test_worker_records_ride_the_shipment(self, tmp_path):
        parent = Telemetry(tmp_path, run_context=RunContext(RUN))
        parent.enable_profiling(50.0).stop()
        worker = Telemetry.for_worker(
            parent.run_context.child("worker-0"), parent.next_seq
        )
        worker.enable_profiling(50.0).stop()
        worker.profile.sample_once({1: ("mod:sim",)})
        worker.close()
        parent.receive("worker-0", worker.ship())
        parent.close()

        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "events.jsonl", "metrics.prom", PROFILE_FILE,
        ]
        records = read_profile(tmp_path / PROFILE_FILE)
        assert [
            (r["worker"], r["count"]) for r in records
            if r["stack"] == ["mod:sim"]
        ] == [("worker-0", 1)]

    def test_enable_profiling_is_idempotent_and_emits_event(self, tmp_path):
        telemetry = Telemetry(tmp_path, run_context=RunContext(RUN))
        session = telemetry.enable_profiling(50.0)
        assert telemetry.enable_profiling(999.0) is session
        assert telemetry.profile is session
        telemetry.close()
        events = read_jsonl(tmp_path / "events.jsonl")
        started = [e for e in events if e["kind"] == "profiling_started"]
        assert len(started) == 1 and started[0]["hz"] == 50.0
        assert "memory" not in started[0]
        assert "profiling_finished" in [e["kind"] for e in events]

    @pytest.mark.parametrize("hz", [0.0, -5.0])
    def test_enable_profiling_rejects_a_non_positive_rate(self, tmp_path, hz):
        from repro.errors import ConfigError

        telemetry = Telemetry(tmp_path)
        with pytest.raises(ConfigError):
            telemetry.enable_profiling(hz)
        assert telemetry.profile is None
        telemetry.close()


# ----------------------------------------------------------------------
# Event spool fast path
# ----------------------------------------------------------------------


class TestEventSpool:
    def test_events_spool_until_span_boundary(self, tmp_path):
        telemetry = Telemetry(tmp_path, run_context=RunContext(RUN))
        log = tmp_path / "events.jsonl"
        with telemetry.span("outer"):
            telemetry.event("inner_event")
            assert not log.exists() or not read_jsonl(log)
        events = read_jsonl(log)  # top-level span exit drained
        assert [e["kind"] for e in events] == ["inner_event", "span"]
        telemetry.close()

    def test_cell_scope_exit_is_a_drain_point(self, tmp_path):
        telemetry = Telemetry(tmp_path, run_context=RunContext(RUN))
        with telemetry.cell_scope("c-1"):
            telemetry.event("working")
        events = read_jsonl(tmp_path / "events.jsonl")
        assert events and events[0]["cell"] == "c-1"
        telemetry.close()

    def test_full_spool_drains_by_capacity(self, tmp_path):
        telemetry = Telemetry(
            tmp_path, run_context=RunContext(RUN), spool_events=4
        )
        for index in range(5):
            telemetry.event("tick", index=index)
        events = read_jsonl(tmp_path / "events.jsonl")
        assert len(events) == 4  # one full batch out, one still spooled
        telemetry.close()
        assert len(read_jsonl(tmp_path / "events.jsonl")) == 5

    def test_seq_is_assigned_at_enqueue_and_exact(self, tmp_path):
        telemetry = Telemetry(
            tmp_path, run_context=RunContext(RUN, "worker-3")
        )
        for index in range(10):
            telemetry.event("tick", index=index)
        telemetry.flush()
        events = read_jsonl(tmp_path / "events.jsonl")
        assert [e["seq"] for e in events] == list(range(10))
        assert [e["index"] for e in events] == list(range(10))
        assert all(e["run"] == RUN for e in events)
        assert all(e["worker"] == "worker-3" for e in events)
        telemetry.close()

    def test_seq_continues_across_resume_with_spool(self, tmp_path):
        first = Telemetry(tmp_path, run_context=RunContext(RUN))
        first.event(kind="a")
        first.close()
        resumed = Telemetry(tmp_path, run_context=RunContext(RUN))
        resumed.event(kind="b")
        resumed.close()
        seqs = [e["seq"] for e in read_jsonl(tmp_path / "events.jsonl")]
        assert seqs == [0, 1]

    def test_default_spool_is_bounded(self):
        assert DEFAULT_SPOOL_EVENTS >= 1

    def test_spliced_context_lines_parse_identically(self, tmp_path):
        telemetry = Telemetry(
            tmp_path, run_context=RunContext(RUN, "worker-0")
        )
        with telemetry.cell_scope("c-9"):
            telemetry.event("probe", value=1.5, text="a\"b\\c")
        telemetry.close()
        event = read_jsonl(tmp_path / "events.jsonl")[0]
        assert event["run"] == RUN
        assert event["worker"] == "worker-0"
        assert event["cell"] == "c-9"
        assert event["text"] == 'a"b\\c'  # escaping survives the splice


# ----------------------------------------------------------------------
# Registry cardinality guard
# ----------------------------------------------------------------------


class TestCardinalityGuard:
    def test_cap_drops_new_series_and_counts_them(self, caplog):
        registry = MetricsRegistry(max_series=2)
        registry.counter("kept_a").inc()
        registry.counter("kept_b", label="x").inc()
        with caplog.at_level("WARNING", logger="repro.telemetry"):
            dropped_one = registry.counter("dropped_c")
            registry.gauge("dropped_d")
        assert dropped_one is _NULL_INSTRUMENT
        dropped = [
            e for e in registry.snapshot()
            if e["name"] == DROPPED_SERIES_METRIC
        ]
        assert dropped and dropped[0]["value"] == 2.0
        assert len(caplog.records) == 1  # warned once, not per series

    def test_existing_series_survive_the_cap(self):
        registry = MetricsRegistry(max_series=1)
        counter = registry.counter("first")
        counter.inc()
        registry.counter("first").inc()  # same series: not dropped
        assert counter.value == 2.0

    def test_invalid_cap_rejected(self):
        from repro.errors import TelemetryError

        with pytest.raises(TelemetryError):
            MetricsRegistry(max_series=0)


# ----------------------------------------------------------------------
# Observatory: merge conservation, trace schema, report, diff
# ----------------------------------------------------------------------


def make_profiled_run(root):
    """A synthetic run whose one profile holds the root's samples and
    those two workers shipped."""
    write_profile(root / PROFILE_FILE, [
        profile_record(5, spans=("sweep",), stack=("mod:loop",),
                       worker="root"),
        profile_record(10, spans=("sweep.cell",), stack=("mod:sim",),
                       worker="worker-0"),
        profile_record(6, spans=("sweep.cell",), stack=("mod:other",),
                       worker="worker-1"),
        profile_record(4, spans=("sweep.cell",), stack=("mod:sim",),
                       worker="worker-0"),
    ], torn_tail=True)
    (root / "events.jsonl").write_text("")
    return root


class TestObservatory:
    def test_merge_conserves_per_worker_sample_counts(self, tmp_path):
        aggregate = aggregate_run(make_profiled_run(tmp_path))
        assert aggregate.profile_samples() == 25
        assert aggregate.profile_samples_by_worker() == {
            "root": 5, "worker-0": 14, "worker-1": 6,
        }
        # The two identical worker-0 deltas merged into one record.
        w0 = [r for r in aggregate.profiles
              if r.get("worker") == "worker-0"]
        assert len(w0) == 1 and w0[0]["count"] == 14

    def test_overview_reports_profile_samples(self, tmp_path):
        aggregate = aggregate_run(make_profiled_run(tmp_path))
        overview = render_run_overview(aggregate)
        assert "profile samples: 25" in overview
        assert "worker-0: 14" in overview

    def test_trace_gains_hotspot_track_with_valid_schema(self, tmp_path):
        aggregate = aggregate_run(make_profiled_run(tmp_path))
        trace = chrome_trace(aggregate)
        events = trace["traceEvents"]
        assert all(
            all(key in event for key in TRACE_KEYS) for event in events
        )
        slices = [e for e in events
                  if e.get("tid") == 2 and e["ph"] == "X"]
        assert sum(s["args"]["samples"] for s in slices) == 25
        assert all(s["dur"] >= 1 for s in slices)
        metas = [e for e in events
                 if e["ph"] == "M"
                 and e["args"].get("name") == "sampled hotspots"]
        assert len(metas) == 3  # one per profiled worker
        by_pid_tid = {}
        for entry in slices:  # slices tile, never overlap, per track
            by_pid_tid.setdefault((entry["pid"], entry["tid"]), []).append(
                entry
            )
        for track in by_pid_tid.values():
            cursor = 0
            for entry in sorted(track, key=lambda e: e["ts"]):
                assert entry["ts"] == cursor
                cursor += entry["dur"]
        assert json.loads(json.dumps(trace))  # JSON-serializable

    def test_report_renders_hotspots_section(self, tmp_path):
        make_profiled_run(tmp_path)
        summary = summary_from_aggregate(aggregate_run(tmp_path))
        text = render_summary(summary)
        assert "hotspots" in text
        assert "mod:loop" in text

    def test_unprofiled_run_renders_without_hotspots(self, tmp_path):
        (tmp_path / "events.jsonl").write_text("")
        text = render_summary(summary_from_aggregate(aggregate_run(tmp_path)))
        assert "hotspots" not in text


#: The ``flame.folded`` that closing the profiled run of
#: :func:`make_shipped_run` wrote before ``telemetry flame`` became the
#: one writer of the file.
SHIPPED_RUN_FLAME = (
    "cli:main 1\n"
    "sweep;cli:main;mod:loop 2\n"
    "sweep.cell;pool:work;cache:replay 4\n"
    "sweep.cell;pool:work;model:price 1\n"
)


def make_shipped_run(root):
    """A profiled run whose root samples itself and receives two
    workers' shipments, each worker shipping on an ack and on close."""
    parent = Telemetry(root, run_context=RunContext(RUN))
    parent.enable_profiling(50.0).stop()
    ident = threading.get_ident()
    with parent.span("sweep"):
        parent.profile.sample_once({ident: ("cli:main", "mod:loop")})
        parent.profile.sample_once({ident: ("cli:main", "mod:loop")})
    parent.flush()
    parent.profile.sample_once({ident: ("cli:main",)})
    shipments = (
        ("worker-0", [("pool:work", "cache:replay")] * 3
         + [("pool:work", "model:price")]),
        ("worker-1", [("pool:work", "cache:replay")]),
    )
    for label, stacks in shipments:
        worker = Telemetry.for_worker(
            parent.run_context.child(label), parent.next_seq
        )
        worker.enable_profiling(50.0).stop()
        with worker.cell_scope("REF/CG"), worker.span("sweep.cell"):
            for stack in stacks:
                worker.profile.sample_once({ident: stack})
        parent.receive(label, worker.ship())
        worker.close()
        parent.receive(label, worker.ship())
    parent.close()
    return root


def test_flame_command_writes_the_flame_close_used_to(tmp_path):
    from repro.experiments.cli import main

    root = make_shipped_run(tmp_path)
    assert not (root / FLAME_FILE).exists()
    assert main(["telemetry", "flame", str(root)]) == 0
    assert (root / FLAME_FILE).read_text() == SHIPPED_RUN_FLAME
    assert render_flame(read_profile(root / PROFILE_FILE)) == (
        SHIPPED_RUN_FLAME
    )


class TestHotspotDiff:
    def run_with_shares(self, root, hot, cold):
        write_profile(root / PROFILE_FILE, [
            profile_record(hot, stack=("mod:hot",)),
            profile_record(cold, stack=("mod:cold",)),
        ])
        (root / "events.jsonl").write_text("")
        return aggregate_run(root)

    def test_share_shift_past_threshold_regresses(self, tmp_path):
        baseline = self.run_with_shares(tmp_path / "a", 80, 20)
        candidate = self.run_with_shares(tmp_path / "b", 50, 50)
        diff = diff_runs(baseline, candidate)
        hotspots = [e for e in diff.entries if e.kind == "hotspot"]
        assert any(e.regression for e in hotspots)
        assert not diff.ok
        assert "mod:hot" in render_diff(diff)

    def test_shift_inside_threshold_passes(self, tmp_path):
        baseline = self.run_with_shares(tmp_path / "a", 80, 20)
        candidate = self.run_with_shares(tmp_path / "b", 75, 25)
        diff = diff_runs(baseline, candidate)
        assert diff.ok

    def test_gate_only_arms_past_min_samples(self, tmp_path):
        baseline = self.run_with_shares(tmp_path / "a", 8, 2)  # 10 samples
        candidate = self.run_with_shares(tmp_path / "b", 2, 8)
        diff = diff_runs(baseline, candidate)
        assert not [e for e in diff.entries if e.kind == "hotspot"]
        assert diff.ok
        forced = diff_runs(
            baseline, candidate, DiffThresholds(hotspot_min_samples=10)
        )
        assert not forced.ok

    def test_threshold_validation(self):
        from repro.errors import TelemetryError

        with pytest.raises(TelemetryError):
            DiffThresholds(hotspot_share_abs=1.5).validate()
        with pytest.raises(TelemetryError):
            DiffThresholds(hotspot_min_samples=-1).validate()


# ----------------------------------------------------------------------
# Supervised-pool integration
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.skipif(
    usable_cpus() < 2,
    reason="profiled parallel sweep needs >= 2 usable CPUs",
)
def test_parallel_profiled_sweep_merges_samples(tmp_path):
    from repro.designs.configs import N_CONFIGS
    from repro.designs.nmm import NMMDesign
    from repro.designs.reference import ReferenceDesign
    from repro.experiments.runner import Runner
    from repro.resilience import Journal, SweepExecutor
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
    telemetry = Telemetry(tmp_path / "telemetry")
    telemetry.enable_profiling(400.0)
    executor = SweepExecutor(
        runner, journal=Journal(tmp_path / "journal.jsonl"),
        telemetry=telemetry, workers=2,
    )
    result = executor.run(designs, [get_workload("CG")])
    telemetry.close()
    assert result.counts() == {"ok": 2}

    root = tmp_path / "telemetry"
    assert not list(root.glob("worker-*"))
    aggregate = aggregate_run(root)
    assert aggregate.profile_samples() > 0
    # Conservation: each process's records in profile.jsonl sum to the
    # samples its registry counted, shipped records and snapshots
    # alike.
    counted = {}
    _, samples = observatory._read_metrics(root / "metrics.prom")
    for name, labels, value in samples:
        if name == "repro_profile_samples_total" and value:
            counted[labels["worker"]] = int(value)
    assert aggregate.profile_samples_by_worker() == counted
    assert any(worker.startswith("worker-") for worker in counted)
    # The run's flamegraph folds every process's samples.
    flame = render_flame(aggregate.profiles).splitlines()
    assert sum(int(line.rsplit(" ", 1)[1]) for line in flame) == (
        aggregate.profile_samples()
    )
