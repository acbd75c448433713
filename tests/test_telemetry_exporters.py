"""Exporters: JSONL events, Prometheus text, durability."""

from __future__ import annotations

import io
import os

import pytest

from repro.errors import TelemetryError
from repro.model.evaluate import Evaluation
from repro.resilience import (
    CampaignKill,
    FaultInjector,
    Journal,
    SweepExecutor,
)
from repro.telemetry.core import Telemetry
from repro.telemetry.exporters import (
    JsonlEventLog,
    atomic_write_text,
    read_jsonl,
)
from repro.telemetry.progress import ProgressReporter, format_duration

pytestmark = pytest.mark.telemetry


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "data")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(path, "x")
        assert path.read_text() == "x"

    def test_failed_replace_preserves_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "old")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(path, "new")
        monkeypatch.undo()
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestJsonl:
    def test_append_read_round_trip(self, tmp_path):
        log = JsonlEventLog(tmp_path / "events.jsonl")
        log.append({"kind": "a", "n": 1})
        log.append({"kind": "b", "nested": {"x": [1, 2]}})
        log.close()
        events = read_jsonl(tmp_path / "events.jsonl")
        assert events == [
            {"kind": "a", "n": 1},
            {"kind": "b", "nested": {"x": [1, 2]}},
        ]

    def test_reopen_after_close_appends(self, tmp_path):
        log = JsonlEventLog(tmp_path / "events.jsonl")
        log.append({"n": 1})
        log.close()
        log.append({"n": 2})
        log.close()
        assert [e["n"] for e in read_jsonl(tmp_path / "events.jsonl")] == [1, 2]

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"n": 1}\n{"n": 2}\n{"n": 3, "tru')
        assert [e["n"] for e in read_jsonl(path)] == [1, 2]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"n": 1}\ngarbage\n{"n": 3}\n')
        with pytest.raises(TelemetryError, match="line 2"):
            read_jsonl(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('[1, 2]\n{"n": 1}\n')
        with pytest.raises(TelemetryError, match="not an object"):
            read_jsonl(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"n": 1}\n\n{"n": 2}\n')
        assert [e["n"] for e in read_jsonl(path)] == [1, 2]


# ----------------------------------------------------------------------
# Durability under a mid-campaign kill (the resilience crossover)
# ----------------------------------------------------------------------


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


@pytest.mark.resilience
class TestKillDurability:
    def test_artifacts_survive_mid_campaign_kill_then_resume(self, tmp_path):
        runner = FakeRunner()
        journal_path = tmp_path / "journal.jsonl"
        telemetry_dir = tmp_path / "telemetry"

        # First attempt dies (SIGKILL-style) on the third cell: no
        # close(), no flush() — only the per-line event log survives.
        injector = FaultInjector().kill_at_call(3)
        telemetry = Telemetry(telemetry_dir)
        executor = SweepExecutor(
            runner, journal=Journal(journal_path), telemetry=telemetry,
            evaluate=injector.wrap(runner.evaluate),
        )
        with pytest.raises(CampaignKill):
            executor.run(DESIGNS, WORKLOADS)

        # The event log is readable despite the abrupt death, and it
        # recorded exactly the two cells that finished.
        events = read_jsonl(telemetry_dir / "events.jsonl")
        finished = [e for e in events if e["kind"] == "cell_finished"]
        assert len(finished) == 2
        assert all(e["status"] == "ok" for e in finished)

        # Resume under fresh telemetry: the two finished cells are
        # reused, the remaining two run, and the metrics snapshot is
        # written atomically at the end.
        out = io.StringIO()
        telemetry2 = Telemetry(telemetry_dir / "resumed")
        executor2 = SweepExecutor(
            runner, journal=Journal(journal_path), telemetry=telemetry2,
            progress=ProgressReporter(4, out=out),
        )
        result = executor2.run(DESIGNS, WORKLOADS)
        telemetry2.close()
        assert result.counts() == {"ok": 4}
        assert sum(1 for o in result.outcomes if o.from_journal) == 2

        lines = out.getvalue().splitlines()
        assert lines[0] == "resume: 2 cell(s) reused from journal, 2 to run"

        # The executor auto-minted a run context for the resumed
        # attempt, so every sample carries its provenance labels.
        run_id = telemetry2.run_context.run_id
        metrics = (telemetry_dir / "resumed" / "metrics.prom").read_text()
        assert (
            f'repro_sweep_cells_total'
            f'{{run="{run_id}",status="ok",worker="root"}} 4' in metrics
        )
        assert (
            f'repro_sweep_cells_reused_total'
            f'{{run="{run_id}",worker="root"}} 2' in metrics
        )
        assert (
            f'repro_sweep_cells_pending'
            f'{{run="{run_id}",worker="root"}} 0' in metrics
        )

        # The resumed attempt's journal lines join back to its run id.
        resumed_entries = Journal(journal_path).entries()[2:]
        assert [entry.run_id for entry in resumed_entries] == [run_id] * 2

    def test_abandoned_cells_reported_in_resume_summary(self, tmp_path):
        runner = FakeRunner()
        journal_path = tmp_path / "journal.jsonl"
        injector = FaultInjector().fail_cell("D1", "W2")
        executor = SweepExecutor(
            runner, journal=Journal(journal_path),
            evaluate=injector.wrap(runner.evaluate),
        )
        executor.run(DESIGNS, WORKLOADS)

        out = io.StringIO()
        executor2 = SweepExecutor(
            runner, journal=Journal(journal_path),
            progress=ProgressReporter(4, out=out),
        )
        result = executor2.run(DESIGNS, WORKLOADS)
        assert result.counts() == {"ok": 4}
        assert out.getvalue().splitlines()[0] == (
            "resume: 3 cell(s) reused from journal, 1 to run, "
            "1 previously abandoned (re-running)"
        )


class TestProgressReporter:
    def test_format_duration(self):
        assert format_duration(0.42) == "0.4s"
        assert format_duration(12.3) == "12s"
        assert format_duration(185) == "3m05s"
        assert format_duration(2 * 3600 + 7 * 60) == "2h07m"
        assert format_duration(-5) == "0.0s"

    def test_eta_excludes_journal_and_skipped_cells(self):
        out = io.StringIO()
        reporter = ProgressReporter(3, out=out)
        reporter.cell_finished("D", "W1", "ok", 0.0, from_journal=True)
        reporter.cell_finished("D", "W2", "skipped", 0.0)
        lines = out.getvalue().splitlines()
        assert "(ETA ?, 1 reused)" in lines[0]  # nothing to extrapolate
        reporter.cell_finished("D", "W3", "ok", 10.0)
        assert "(done, 1 reused)" in out.getvalue().splitlines()[-1]

    def test_eta_resume_prices_pending_reuses_at_zero(self):
        # 6 cells, 4 journalled: after the first fresh 10s cell the
        # naive estimate would charge the 4 pending reuses full price
        # (ETA 50s); the reporter must only price the one fresh cell
        # left (ETA 10s), then count replayed cells separately.
        out = io.StringIO()
        reporter = ProgressReporter(6, out=out)
        reporter.resume_summary(reused=4, to_run=2, abandoned=0)
        reporter.cell_finished("D", "W1", "ok", 10.0)
        assert "(ETA 10s)" in out.getvalue().splitlines()[-1]
        reporter.cell_finished("D", "W2", "ok", 0.0, from_journal=True)
        assert "(ETA 10s, 1 reused)" in out.getvalue().splitlines()[-1]

    def test_eta_resume_all_remaining_reused_is_zero(self):
        # Nothing fresh has run yet, but every remaining cell is a
        # journal replay — the ETA is known to be ~zero, not "?".
        out = io.StringIO()
        reporter = ProgressReporter(3, out=out)
        reporter.resume_summary(reused=3, to_run=0, abandoned=0)
        reporter.cell_finished("D", "W1", "ok", 0.0, from_journal=True)
        assert "(ETA 0.0s, 1 reused)" in out.getvalue().splitlines()[-1]

    def test_eta_extrapolates_mean_cell_time(self):
        out = io.StringIO()
        reporter = ProgressReporter(3, out=out)
        reporter.cell_started("D", "W1")
        reporter.cell_finished("D", "W1", "ok", 10.0)
        last = out.getvalue().splitlines()[-1]
        assert "[1/3] D/W1: ok in 10s (ETA 20s)" == last
