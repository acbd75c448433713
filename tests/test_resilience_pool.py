"""Supervised worker pool: crash recovery, poison cells, drain.

Chaos tests drive the supervisor with real worker processes and real
SIGKILLs (via :class:`FaultInjector`'s process faults), so everything
here exercises the actual failure modes: dead workers, poison cells,
hung cells past their deadline, pool exhaustion, and graceful drain.
The faults are latched through ``tmp_path`` files where a fault must
fire exactly once across the whole campaign.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.nmm import NMMDesign
from repro.errors import ConfigError
from repro.experiments.runner import Runner, _chain_digest
from repro.resilience import (
    FaultInjector,
    Journal,
    PoolTuning,
    SupervisedPool,
    SweepExecutor,
    acquire_latch,
)
from repro.telemetry.core import RunContext, Telemetry, new_run_id
from repro.telemetry.observatory import (
    _read_metrics,
    aggregate_run,
    summary_from_aggregate,
)
from repro.tech.params import EDRAM, PCM
from repro.workloads.registry import get_workload

pytestmark = pytest.mark.resilience

SCALE = 1.0 / 8192

#: Aggressive supervision timing so chaos tests stay fast.
FAST_TUNING = PoolTuning(
    heartbeat_interval_s=0.05,
    heartbeat_timeout_s=10.0,
    tick_s=0.02,
    shutdown_grace_s=5.0,
)


@pytest.fixture(scope="module")
def trace_cache(tmp_path_factory):
    """Shared on-disk trace cache so every runner reuses one tracing."""
    return str(tmp_path_factory.mktemp("traces"))


@pytest.fixture(scope="module")
def workloads():
    return [get_workload("CG"), get_workload("SP")]


def make_runner(trace_cache):
    return Runner(scale=SCALE, seed=5, trace_cache_dir=trace_cache)


def make_designs(reference, n=2):
    designs = [
        NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE, reference=reference),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE,
                     reference=reference),
        FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=SCALE,
                        reference=reference),
    ]
    return designs[:n]


def read_events(directory):
    """The parent run log's events, parsed."""
    path = directory / "events.jsonl"
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def event_kinds(directory):
    return [e.get("kind") for e in read_events(directory)]


class TestSupervisedHappyPath:
    def test_campaign_completes_with_supervision_telemetry(
        self, trace_cache, workloads, tmp_path
    ):
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        tel = Telemetry(tmp_path / "tel",
                        run_context=RunContext(new_run_id()))
        journal = Journal(tmp_path / "j.jsonl")
        result = SweepExecutor(
            runner, journal=journal, workers=2, telemetry=tel,
            pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        tel.close()

        assert all(o.ok for o in result.outcomes), result.report()
        assert result.restarts == 0 and result.requeues == 0
        assert not result.drained
        kinds = event_kinds(tmp_path / "tel")
        assert kinds.count("worker_spawned") == 2
        assert "sweep_supervised" in kinds
        # The workers' telemetry rides into the one run directory.
        assert not list((tmp_path / "tel").glob("worker-*"))
        aggregate = aggregate_run(tmp_path / "tel")
        assert aggregate.cell_status_counts().get("ok") == 4.0
        assert all(
            v == 0.0 for v in aggregate.supervision_counts().values()
        )

    def test_journal_matches_serial_run(self, trace_cache, workloads,
                                        tmp_path):
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        seq_journal = Journal(tmp_path / "seq.jsonl")
        SweepExecutor(runner, journal=seq_journal).run(designs, workloads)
        sup_journal = Journal(tmp_path / "sup.jsonl")
        SweepExecutor(
            make_runner(trace_cache), journal=sup_journal, workers=2,
            pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        seq = seq_journal.load()
        sup = sup_journal.load()
        assert set(seq) == set(sup)
        for key, entry in seq.items():
            assert (entry.status, entry.evaluation) == (
                sup[key].status, sup[key].evaluation
            )


    def test_two_pools_of_one_run_write_one_directory(
        self, trace_cache, tmp_path
    ):
        """``--screen-analytic`` runs an analytic pool, then an exact
        one, under one run id, and the exact pool numbers its workers
        past the analytic pool's: the profiled run's directory holds
        one log, one snapshot and one profile, no worker label or
        ``(run, worker, seq)`` repeats, every cell either pool ran
        kept its worker's ``sweep.cell`` span, and the metrics count
        every worker's spans and samples."""
        from repro.experiments.cli import main
        from repro.telemetry.profiling import read_profile, total_samples

        root = tmp_path / "tel"
        assert main([
            "--scale", str(SCALE), "--seed", "5", "--workloads", "CG",
            "--trace-cache", trace_cache, "--telemetry", str(root),
            "--profile", "250",
            "sweep", "--designs", "REF,NMM:PCM:N6,4LC:EDRAM:EH4",
            "--screen-analytic", "1", "--workers", "2",
            "--journal", str(tmp_path / "j.jsonl"),
        ]) == 0
        assert sorted(p.name for p in root.iterdir()) == [
            "events.jsonl", "metrics.prom", "profile.jsonl",
        ]
        events = read_events(root)
        keys = [(e["run"], e["worker"], e["seq"]) for e in events]
        assert len(keys) == len(set(keys))
        assert len({e["run"] for e in events}) == 1
        spawned = [e for e in events if e["kind"] == "worker_spawned"]
        labels = [e["pool_worker"] for e in spawned]
        assert len(labels) == len(set(labels)) > 2, labels
        cells = sum(e["kind"] == "cell_finished" for e in events)
        cell_spans = [
            e for e in aggregate_run(root).events
            if e["kind"] == "span" and e["name"] == "sweep.cell"
        ]
        worker_cells = [e for e in cell_spans if e["worker"] != "root"]
        assert len(worker_cells) == cells > 3
        spans_total = samples_total = 0
        for name, labels, value in _read_metrics(root / "metrics.prom")[1]:
            if name == "repro_spans_total" and labels["name"] == "sweep.cell":
                spans_total += value
            elif name == "repro_profile_samples_total":
                samples_total += value
        assert spans_total == len(cell_spans)
        assert samples_total == total_samples(
            read_profile(root / "profile.jsonl")
        )


class TestCrashRecovery:
    def test_sigkilled_worker_requeues_cell_and_campaign_completes(
        self, trace_cache, workloads, tmp_path
    ):
        """The acceptance chaos test: SIGKILL one worker mid-campaign.

        The dead worker's in-flight cell must be requeued and finish,
        the rest of the grid must complete, a resume must re-simulate
        nothing, and the merged telemetry must show the restart.
        """
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        faults = FaultInjector().worker_kill_cell(
            designs[0].name, "CG", latch=tmp_path / "kill.latch"
        )
        tel = Telemetry(tmp_path / "tel",
                        run_context=RunContext(new_run_id()))
        journal = Journal(tmp_path / "j.jsonl")
        result = SweepExecutor(
            runner, journal=journal, workers=2, telemetry=tel,
            worker_faults=faults, pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        tel.close()

        assert all(o.ok for o in result.outcomes), result.report()
        assert result.requeues == 1
        assert result.restarts >= 1
        kinds = event_kinds(tmp_path / "tel")
        for kind in ("worker_died", "cell_requeued", "worker_respawned"):
            assert kind in kinds, kinds
        assert "supervision:" in result.report()

        # The run's telemetry conserves the story across the restart.
        aggregate = aggregate_run(tmp_path / "tel")
        assert aggregate.cell_status_counts().get("ok") == 4.0
        counts = aggregate.supervision_counts()
        assert counts["restarts"] == 1.0
        assert counts["requeues"] == 1.0
        assert counts["worker_deaths"] == 1.0
        assert counts["poisoned"] == 0.0

        # Exact resume: nothing re-simulates.
        again = SweepExecutor(
            make_runner(trace_cache), journal=journal, workers=2,
            pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        assert all(o.from_journal for o in again.outcomes)

    def test_sigkilled_worker_keeps_the_metrics_of_its_acked_cells(
        self, trace_cache, workloads, tmp_path
    ):
        """A worker SIGKILLed after acking cells loses none of their
        metrics: its samples in the run's ``metrics.prom`` count
        exactly the ``sweep.cell`` spans its events in the run log
        hold, the summed report conserves spans and cells across every
        worker, and no worker wrote a directory of its own."""
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference, n=3)
        # Six cells over two workers: one worker reaches its third
        # evaluation, and the first to do so dies with two cells acked.
        faults = FaultInjector().worker_kill(3, latch=tmp_path / "kill.latch")
        root = tmp_path / "tel"
        tel = Telemetry(root, run_context=RunContext(new_run_id()))
        result = SweepExecutor(
            runner, workers=2, telemetry=tel, worker_faults=faults,
            pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        tel.close()
        assert all(o.ok for o in result.outcomes), result.report()
        assert result.requeues == 1

        assert not list(root.glob("worker-*"))
        events = read_events(root)
        died = [e for e in events if e.get("kind") == "worker_died"]
        assert len(died) == 1
        dead = died[0]["pool_worker"]
        dead_spans = sum(
            1 for e in events
            if e.get("worker") == dead and e.get("kind") == "span"
            and e.get("name") == "sweep.cell"
        )
        assert dead_spans >= 2
        _, samples = _read_metrics(root / "metrics.prom")
        assert sum(
            value for name, labels, value in samples
            if name == "repro_span_seconds_count"
            and labels.get("name") == "sweep.cell"
            and labels.get("worker") == dead
        ) == dead_spans

        cells = len(result.outcomes)
        merged = aggregate_run(root)
        summary = summary_from_aggregate(merged)
        assert {d.name: d.count for d in summary.spans}["sweep.cell"] == cells
        assert merged.metric_value(
            "repro_span_seconds_count", name="sweep.cell"
        ) == cells
        assert merged.metric_value(
            "repro_spans_total", name="sweep.cell"
        ) == cells
        assert merged.cell_status_counts() == {"ok": float(cells)}

    def test_supervision_events_do_not_clobber_provenance(
        self, trace_cache, workloads, tmp_path
    ):
        # Regression pin: supervision events carry ``pool_worker`` so
        # the RunContext ``worker`` stamp (the observatory's dedup key)
        # survives on every event.
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference, n=1)
        tel = Telemetry(tmp_path / "tel",
                        run_context=RunContext(new_run_id()))
        SweepExecutor(
            runner, workers=2, telemetry=tel, pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        tel.close()
        spawned = [
            e for e in read_events(tmp_path / "tel")
            if e.get("kind") == "worker_spawned"
        ]
        assert spawned
        assert all(e["worker"] == "root" for e in spawned)
        assert all(e["pool_worker"].startswith("worker-") for e in spawned)


class TestPoisonQuarantine:
    def test_cell_killing_successive_workers_is_quarantined(
        self, trace_cache, workloads, tmp_path
    ):
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        # No latch: the cell kills every worker it lands on.
        faults = FaultInjector().worker_kill_cell(designs[0].name, "CG")
        tel = Telemetry(tmp_path / "tel",
                        run_context=RunContext(new_run_id()))
        journal = Journal(tmp_path / "j.jsonl")
        result = SweepExecutor(
            runner, journal=journal, workers=2, telemetry=tel,
            worker_faults=faults, poison_threshold=2,
            max_worker_restarts=4, pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        tel.close()

        by_cell = {(o.design, o.workload): o for o in result.outcomes}
        poisoned = by_cell[(designs[0].name, "CG")]
        assert poisoned.status == "poisoned"
        assert "poison_threshold=2" in poisoned.error
        others = [o for o in result.outcomes if o is not poisoned]
        assert others and all(o.ok for o in others)
        assert "cell_poisoned" in event_kinds(tmp_path / "tel")
        entry = journal.load()[poisoned.key]
        assert entry.status == "poisoned"
        assert "1 poisoned" in result.report()

        # The quarantined cell re-runs on resume (it is not ok)
        # and completes once the fault is gone.
        again = SweepExecutor(
            make_runner(trace_cache), journal=journal, workers=2,
            pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        assert all(o.ok for o in again.outcomes)
        assert sum(1 for o in again.outcomes if not o.from_journal) == 1


class TestHungWorker:
    def test_watchdog_escalates_hung_cell_past_deadline(
        self, trace_cache, workloads, tmp_path
    ):
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        faults = FaultInjector().worker_hang(
            designs[0].name, "CG", 60.0, latch=tmp_path / "hang.latch"
        )
        tel = Telemetry(tmp_path / "tel",
                        run_context=RunContext(new_run_id()))
        journal = Journal(tmp_path / "j.jsonl")
        result = SweepExecutor(
            runner, journal=journal, workers=2, telemetry=tel,
            worker_faults=faults, cell_timeout_s=2.0,
            pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        tel.close()

        by_cell = {(o.design, o.workload): o for o in result.outcomes}
        hung = by_cell[(designs[0].name, "CG")]
        assert hung.status == "timed_out"
        assert "deadline" in hung.error
        others = [o for o in result.outcomes if o is not hung]
        assert others and all(o.ok for o in others)
        assert "worker_hung" in event_kinds(tmp_path / "tel")

        # The latch already fired, so a resume completes the cell.
        again = SweepExecutor(
            make_runner(trace_cache), journal=journal, workers=2,
            pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        assert all(o.ok for o in again.outcomes)
        reran = [o for o in again.outcomes if not o.from_journal]
        assert [(o.design, o.workload) for o in reran] == [
            (designs[0].name, "CG")
        ]

    def test_deadline_without_workers_runs_a_one_worker_pool(
        self, trace_cache, workloads, tmp_path
    ):
        """A deadline on a ``workers=1`` sweep runs the pool: the
        watchdog times out the hung cell, the rest finish ok, no cell
        runs on a thread of this process, and the parent runner
        memoizes nothing for the timed-out cell."""
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        faults = FaultInjector().worker_hang(
            designs[0].name, "CG", 60.0, latch=tmp_path / "hang.latch"
        )
        executor = SweepExecutor(
            runner, worker_faults=faults, cell_timeout_s=3.0,
            pool_tuning=FAST_TUNING,
        )
        result = executor.run(designs, workloads)

        by_cell = {(o.design, o.workload): o for o in result.outcomes}
        hung = by_cell[(designs[0].name, "CG")]
        assert hung.status == "timed_out"
        assert "the watchdog killed the worker" in hung.error
        others = [o for o in result.outcomes if o is not hung]
        assert len(others) == 3 and all(o.ok for o in others)
        assert result.restarts == 1
        assert not [
            t.name for t in threading.enumerate()
            if t.name.startswith("sweep-cell-")
        ]
        assert (designs[0].sim_key(), "CG") not in runner._design_stats
        assert (designs[0].chain_key(), "CG") not in runner._chain_stats
        record = runner._lower_records.get("CG")
        assert record is None or (
            _chain_digest(designs[0].chain_key()) not in record.gained
        )

    def test_watchdog_sigkills_the_hung_worker_once(
        self, trace_cache, tmp_path
    ):
        """Past its deadline a hung cell's worker is SIGKILLed at once:
        one ``worker_hung`` event (no escalation stage), a
        ``worker_died`` with the SIGKILL exit code, and a timed-out
        error naming the kill."""
        runner = make_runner(trace_cache)
        design = make_designs(runner.reference, n=1)[0]
        faults = FaultInjector().worker_hang(design.name, "CG", 60.0)
        tel = Telemetry(tmp_path / "tel",
                        run_context=RunContext(new_run_id()))
        result = SweepExecutor(
            runner, workers=2, telemetry=tel, worker_faults=faults,
            cell_timeout_s=1.0, pool_tuning=FAST_TUNING,
        ).run([design], [get_workload("CG")])
        tel.close()

        (outcome,) = result.outcomes
        assert outcome.status == "timed_out"
        assert "the watchdog killed the worker" in outcome.error
        events = read_events(tmp_path / "tel")
        hung = [e for e in events if e["kind"] == "worker_hung"]
        assert len(hung) == 1, hung
        assert hung[0]["reason"] == "deadline"
        assert "stage" not in hung[0]
        died = [e for e in events if e["kind"] == "worker_died"]
        assert [e["exitcode"] for e in died] == [-signal.SIGKILL]
        assert died[0]["cell"] == outcome.key

    def test_ack_that_beat_the_kill_is_delivered(self):
        """A killed worker whose ack was already in the pipe finished
        its cell: the result is delivered and no ``timed_out`` outcome
        is made for it."""
        from multiprocessing import Pipe
        from types import SimpleNamespace

        from repro.resilience.executor import CellOutcome
        from repro.resilience.pool import _WorkerHandle

        class KilledProc:
            exitcode = -signal.SIGKILL

            def join(self, timeout=None):
                pass

        results = []
        pool = SupervisedPool(workers=1, runner_args={})
        pool._on_result = lambda outcome, chains: results.append(
            (outcome, chains)
        )
        cell = (SimpleNamespace(name="D"), SimpleNamespace(name="W"), "k")
        ours, theirs = Pipe(duplex=True)
        handle = _WorkerHandle(0, KilledProc(), ours)
        handle.inflight, handle.killed = cell, True
        acked = CellOutcome(key="k", design="D", workload="W",
                            status="ok", attempts=1, duration_s=0.5)
        theirs.send(("cell_finished", acked, {"chain": []}, None))
        theirs.close()
        pool._handle_death(handle, time.monotonic())
        assert results == [(acked, {"chain": []})]
        assert handle.inflight is None and handle.closed

        # Without the ack the same death records the cell timed out.
        results.clear()
        ours, theirs = Pipe(duplex=True)
        handle = _WorkerHandle(1, KilledProc(), ours)
        handle.inflight, handle.killed = cell, True
        theirs.close()
        pool._handle_death(handle, time.monotonic())
        ((outcome, chains),) = results
        assert outcome.status == "timed_out" and chains is None
        assert "the watchdog killed the worker" in outcome.error


class TestGracefulDrain:
    def test_sigterm_drains_to_an_exact_resume_journal(
        self, trace_cache, workloads, tmp_path
    ):
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference, n=3)
        faults = FaultInjector()
        for design in designs:
            faults.delay_cell(design.name, "SP", 1.5)
        tel = Telemetry(tmp_path / "tel",
                        run_context=RunContext(new_run_id()))
        journal = Journal(tmp_path / "j.jsonl")

        def send_sigterm_after_first_entry() -> None:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if journal.path.exists() and journal.load():
                    os.kill(os.getpid(), signal.SIGTERM)
                    return
                time.sleep(0.02)

        killer = threading.Thread(
            target=send_sigterm_after_first_entry, daemon=True
        )
        killer.start()
        result = SweepExecutor(
            runner, journal=journal, workers=2, telemetry=tel,
            worker_faults=faults, pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        killer.join(timeout=30.0)
        tel.close()

        assert result.drained
        assert "drained by signal" in result.report()
        skipped = [o for o in result.outcomes if o.status == "skipped"]
        assert skipped
        assert all("drained by signal" in o.error for o in skipped)
        assert "pool_drain" in event_kinds(tmp_path / "tel")
        entries = journal.load()
        assert 0 < len(entries) < len(result.outcomes)
        # Everything journalled finished for real before the drain.
        assert all(e.status == "ok" for e in entries.values())

        # Resume finishes the campaign, re-simulating nothing done.
        again = SweepExecutor(
            make_runner(trace_cache), journal=journal, workers=2,
            pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        assert all(o.ok for o in again.outcomes), again.report()
        reused = [o for o in again.outcomes if o.from_journal]
        assert len(reused) == len(entries)


    def test_drain_leaves_the_journal_synced(
        self, trace_cache, workloads, tmp_path, journal_io
    ):
        """Under a clock that never reaches the next group fsync, the
        drained campaign's journal is still fully synced when ``run``
        returns."""
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference, n=3)
        faults = FaultInjector()
        for design in designs:
            faults.delay_cell(design.name, "SP", 1.0)
        path = tmp_path / "j.jsonl"

        def send_sigterm_after_two_entries() -> None:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if path.exists() and len(Journal(path).load()) >= 2:
                    os.kill(os.getpid(), signal.SIGTERM)
                    return
                time.sleep(0.02)

        killer = threading.Thread(
            target=send_sigterm_after_two_entries, daemon=True
        )
        killer.start()
        result = SweepExecutor(
            runner, journal=path, workers=2, worker_faults=faults,
            pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        killer.join(timeout=30.0)

        assert result.drained
        assert 2 <= len(Journal(path).load()) < len(result.outcomes)
        assert journal_io.fsyncs == 2 and journal_io.synced


class TestPoolExhaustion:
    def test_broken_pool_degrades_instead_of_aborting(
        self, trace_cache, workloads, tmp_path
    ):
        """The BrokenProcessPool regression: every worker dies, the
        restart budget runs out, and the campaign still returns a
        complete result instead of raising."""
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        # Every (re)spawned worker dies on its first evaluation.
        faults = FaultInjector().worker_kill(1)
        tel = Telemetry(tmp_path / "tel",
                        run_context=RunContext(new_run_id()))
        result = SweepExecutor(
            runner, workers=2, telemetry=tel, worker_faults=faults,
            max_worker_restarts=1, poison_threshold=2,
            pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        tel.close()

        statuses = {o.status for o in result.outcomes}
        assert statuses <= {"failed", "poisoned"}
        exhausted = [
            o for o in result.outcomes
            if o.error and "worker pool exhausted" in o.error
        ]
        assert exhausted
        assert "pool_exhausted" in event_kinds(tmp_path / "tel")


class TestLiveObservability:
    def test_sse_client_sees_chaos_exactly_once_across_reconnect(
        self, trace_cache, workloads, tmp_path
    ):
        """The live-plane acceptance chaos test: an SSE client watching
        a campaign across a worker SIGKILL + respawn — with a mid-stream
        disconnect and a ``Last-Event-ID`` reconnect — sees
        ``worker_died`` and ``cell_requeued`` exactly once, and no
        ``(worker, seq)`` identity twice."""
        import urllib.request

        from repro.telemetry.live import TelemetryServer

        tel_dir = tmp_path / "tel"
        tel_dir.mkdir()
        server = TelemetryServer(tel_dir, keepalive_s=0.2).start()
        received: list[dict] = []
        stop = threading.Event()

        def client() -> None:
            last_id = None
            torn = False
            while not stop.is_set():
                headers = (
                    {"Last-Event-ID": last_id} if last_id else {}
                )
                request = urllib.request.Request(
                    server.url + "/events", headers=headers
                )
                try:
                    with urllib.request.urlopen(
                        request, timeout=30
                    ) as resp:
                        while not stop.is_set():
                            line = resp.readline().decode().strip()
                            if line.startswith("id: "):
                                last_id = line[4:]
                            elif line.startswith("data: "):
                                received.append(json.loads(line[6:]))
                                if not torn and len(received) >= 5:
                                    torn = True
                                    break  # tear the stream mid-run
                except OSError:
                    time.sleep(0.05)

        watcher = threading.Thread(target=client, daemon=True)
        watcher.start()

        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        faults = FaultInjector().worker_kill_cell(
            designs[0].name, "CG", latch=tmp_path / "kill.latch"
        )
        tel = Telemetry(tel_dir, run_context=RunContext(new_run_id()))
        result = SweepExecutor(
            runner, workers=2, telemetry=tel, worker_faults=faults,
            pool_tuning=FAST_TUNING,
        ).run(designs, workloads)
        tel.close()
        assert all(o.ok for o in result.outcomes), result.report()

        wanted = {"worker_died", "cell_requeued", "worker_respawned"}
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if wanted <= {e.get("kind") for e in received}:
                break
            time.sleep(0.05)
        stop.set()
        server.stop()
        watcher.join(timeout=10.0)

        kinds = [e.get("kind") for e in received]
        assert wanted <= set(kinds), kinds
        assert kinds.count("worker_died") == 1, kinds
        assert kinds.count("cell_requeued") == 1, kinds
        identities = [
            (e.get("worker"), e.get("seq"))
            for e in received if e.get("seq") is not None
        ]
        assert len(identities) == len(set(identities)), (
            "duplicate (worker, seq) across SSE reconnect"
        )

    def test_pool_snapshot_feeds_readiness_through_the_lifecycle(
        self, trace_cache, workloads, tmp_path
    ):
        """``executor.pool_snapshot`` (the ``/readyz`` probe) reports
        ready with live heartbeats during a healthy campaign and idle
        (None) outside one."""
        from repro.telemetry.live import pool_readiness

        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        executor = SweepExecutor(
            runner, workers=2, pool_tuning=FAST_TUNING
        )
        assert executor.pool_snapshot() is None  # idle before
        snapshots: list[dict] = []
        stop = threading.Event()

        def probe() -> None:
            while not stop.is_set():
                snapshot = executor.pool_snapshot()
                if snapshot is not None:
                    snapshots.append(snapshot)
                time.sleep(0.002)

        prober = threading.Thread(target=probe, daemon=True)
        prober.start()
        result = executor.run(designs, workloads)
        stop.set()
        prober.join(timeout=10.0)

        assert all(o.ok for o in result.outcomes), result.report()
        assert executor.pool_snapshot() is None  # idle after
        assert pool_readiness(None)[0]
        assert snapshots, "probe never saw the pool"
        assert any(
            pool_readiness(s)[0]
            and sum(1 for w in s["workers"] if w["alive"]) == 2
            for s in snapshots
        ), "no snapshot showed a ready 2-worker pool"

    def test_exhausted_pool_flips_readiness(
        self, trace_cache, workloads, tmp_path, monkeypatch
    ):
        """Once every worker has died and the restart budget is spent,
        the readiness probe must report the pool not ready."""
        from repro.telemetry.live import pool_readiness

        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        faults = FaultInjector().worker_kill(1)
        executor = SweepExecutor(
            runner, workers=2, worker_faults=faults,
            max_worker_restarts=1, poison_threshold=2,
            pool_tuning=FAST_TUNING,
        )
        verdicts: list[tuple[bool, dict]] = []
        exhaust = SupervisedPool._exhaust

        def probed_exhaust(pool) -> None:
            exhaust(pool)
            # Probe from inside the campaign, right after exhaustion:
            # the pool is still the executor's active pool here.
            verdicts.append(pool_readiness(executor.pool_snapshot()))

        monkeypatch.setattr(SupervisedPool, "_exhaust", probed_exhaust)
        result = executor.run(designs, workloads)

        assert {o.status for o in result.outcomes} <= {
            "failed", "poisoned"
        }
        assert len(verdicts) == 1, "the pool never exhausted"
        assert verdicts[0] == (False, {"state": "exhausted"})
        assert executor.pool_snapshot() is None  # idle after


class TestFaultPicklability:
    def test_process_fault_rules_cross_the_process_boundary(self,
                                                            tmp_path):
        injector = (
            FaultInjector()
            .worker_kill(3, latch=tmp_path / "a")
            .worker_kill_cell("D", "W", latch=tmp_path / "b")
            .worker_hang("D", "W", 9.0, times=2)
            .fail_cell("D", "W", times=1)
            .delay_cell("D", "W", 0.1)
        )
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.calls == 0
        assert len(clone._rules) == len(injector._rules)

    def test_latch_fires_exactly_once(self, tmp_path):
        latch = tmp_path / "latch"
        assert acquire_latch(latch) is True
        assert acquire_latch(latch) is False
        assert acquire_latch(None) is True


class TestValidation:
    def test_worker_faults_require_workers(self, trace_cache):
        with pytest.raises(ConfigError):
            SweepExecutor(
                make_runner(trace_cache), worker_faults=FaultInjector()
            )
        # A deadline runs the pool, so it takes worker faults.
        SweepExecutor(make_runner(trace_cache), cell_timeout_s=1.0,
                      worker_faults=FaultInjector())

    def test_restart_budget_must_be_non_negative(self, trace_cache):
        with pytest.raises(ConfigError):
            SweepExecutor(make_runner(trace_cache), workers=2,
                          max_worker_restarts=-1)

    def test_poison_threshold_must_be_positive(self, trace_cache):
        with pytest.raises(ConfigError):
            SweepExecutor(make_runner(trace_cache), workers=2,
                          poison_threshold=0)

    def test_pool_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            SupervisedPool(workers=0, runner_args={})
        with pytest.raises(ConfigError):
            SupervisedPool(workers=1, runner_args={},
                           max_worker_restarts=-1)
        with pytest.raises(ConfigError):
            SupervisedPool(workers=1, runner_args={}, poison_threshold=0)

    def test_empty_cell_list_is_a_no_op(self):
        pool = SupervisedPool(workers=2, runner_args={})
        stats, leftover = pool.run([])
        assert stats.spawned == 0
        assert leftover == []


def processes_naming(text: str) -> list[int]:
    """Live processes whose command line contains ``text``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:  # exited meanwhile
            continue
        if text.encode() in cmdline:
            found.append(int(entry.name))
    return found


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)
class TestOrphanedWorkers:
    DESIGNS = (
        "REF,NMM:PCM:N1,NMM:PCM:N3,NMM:PCM:N6,NMM:PCM:N9,NMM:STTRAM:N6,"
        "NMM:FERAM:N6,4LC:EDRAM:EH1,4LC:EDRAM:EH4,4LC:EDRAM:EH8,"
        "4LC:HMC:EH1,4LC:HMC:EH4"
    )

    def test_sigkilled_sweep_leaves_no_worker_running(self, tmp_path):
        """Pool workers fork with their parent's command line; once a
        SIGKILL ends the parent mid-campaign, every worker exits."""
        journal = tmp_path / "orphans.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments",
                "--scale", "0.0001220703125", "--engine", "scalar",
                "sweep", "--designs", self.DESIGNS, "--workers", "2",
                "--journal", str(journal), "--keep-going",
            ],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            deadline = time.monotonic() + 120.0
            while proc.poll() is None and time.monotonic() < deadline:
                if journal.exists() and (
                    journal.read_bytes().count(b"\n") >= 10
                ):
                    break
                time.sleep(0.002)
            proc.kill()
            assert proc.wait() == -signal.SIGKILL  # killed mid-campaign
            gone_by = time.monotonic() + 3.0
            while processes_naming(str(journal)) and (
                time.monotonic() < gone_by
            ):
                time.sleep(0.05)
            assert processes_naming(str(journal)) == []
        finally:
            for pid in processes_naming(str(journal)):
                os.kill(pid, signal.SIGKILL)
