"""Sweep executor: fault isolation, one evaluation per cell, resume.

Most tests drive the executor with a fake runner so the resilience
machinery is exercised in milliseconds; one integration test runs a
real (tiny-scale) campaign through a mid-campaign kill and resume.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.model.evaluate import Evaluation
from repro.resilience import (
    CampaignKill,
    FaultInjector,
    InjectedFault,
    Journal,
    SweepExecutor,
    cell_key_for,
)

pytestmark = pytest.mark.resilience


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
    """Duck-typed stand-in: scale, seed, and an evaluate counter."""

    def __init__(self, seed=0):
        self.scale = 0.001
        self.seed = seed
        self.calls = 0

    def evaluate(self, design, workload):
        self.calls += 1
        return make_evaluation(design.name, workload.name)


DESIGNS = [FakeDesign("D1"), FakeDesign("D2")]
WORKLOADS = [FakeWorkload("W1"), FakeWorkload("W2")]


class TestValidation:
    def test_empty_workloads_rejected(self):
        with pytest.raises(ConfigError):
            SweepExecutor(FakeRunner()).run(DESIGNS, [])

    def test_empty_designs_rejected_before_work(self):
        runner = FakeRunner()
        with pytest.raises(ConfigError):
            SweepExecutor(runner).run(iter([]), WORKLOADS)
        assert runner.calls == 0

    def test_bad_timeout_rejected(self):
        with pytest.raises(ConfigError):
            SweepExecutor(FakeRunner(), cell_timeout_s=0.0)

    def test_custom_evaluate_rejected_with_a_deadline(self):
        """A deadline runs the grid on the pool, which a custom evaluate
        callable cannot cross into."""
        runner = FakeRunner()
        with pytest.raises(ConfigError, match="process boundary"):
            SweepExecutor(runner, evaluate=runner.evaluate,
                          cell_timeout_s=30.0)


class TestFaultIsolation:
    def test_clean_campaign(self):
        result = SweepExecutor(FakeRunner()).run(DESIGNS, WORKLOADS)
        assert [o.status for o in result.outcomes] == ["ok"] * 4
        assert len(result.evaluations) == 4

    def test_always_failing_cell_does_not_sink_campaign(self):
        runner = FakeRunner()
        injector = FaultInjector().fail_cell("D1", "W2")
        executor = SweepExecutor(
            runner, evaluate=injector.wrap(runner.evaluate)
        )
        result = executor.run(DESIGNS, WORKLOADS)
        by_cell = {(o.design, o.workload): o for o in result.outcomes}
        assert by_cell[("D1", "W2")].status == "failed"
        assert injector.calls == 4  # every cell evaluated exactly once
        assert all(o.attempts == 1 for o in result.outcomes)
        # Every other cell still completed.
        ok = [o for o in result.outcomes if o.ok]
        assert len(ok) == 3
        assert result.counts() == {"ok": 3, "failed": 1}

    def test_failure_records_exception_chain(self):
        runner = FakeRunner()

        def chained_exc():
            exc = InjectedFault("wrapper")
            exc.__cause__ = ValueError("root cause")
            return exc

        injector = FaultInjector().fail_cell(
            "D1", "W1", exc_factory=chained_exc
        )
        executor = SweepExecutor(
            runner, evaluate=injector.wrap(runner.evaluate)
        )
        result = executor.run(DESIGNS, WORKLOADS)
        failed = next(o for o in result.outcomes if not o.ok)
        assert "InjectedFault: wrapper" in failed.error
        assert "caused by ValueError: root cause" in failed.error
        assert isinstance(failed.exception, InjectedFault)

    def test_keep_going_off_skips_remaining(self):
        runner = FakeRunner()
        injector = FaultInjector().fail_at_call(2)
        executor = SweepExecutor(
            runner, evaluate=injector.wrap(runner.evaluate), keep_going=False
        )
        result = executor.run(DESIGNS, WORKLOADS)
        assert [o.status for o in result.outcomes] == [
            "ok", "failed", "skipped", "skipped"
        ]
        assert injector.calls == 2  # skipped cells never evaluated


class TestJournalResume:
    def test_kill_mid_campaign_then_resume(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        runner = FakeRunner()
        injector = FaultInjector().kill_at_call(3)
        executor = SweepExecutor(
            runner, evaluate=injector.wrap(runner.evaluate), journal=path
        )
        with pytest.raises(CampaignKill):
            executor.run(DESIGNS, WORKLOADS)
        # The first two cells were journalled durably before the kill.
        assert len(Journal(path).load()) == 2

        resumed_runner = FakeRunner()
        result = SweepExecutor(resumed_runner, journal=path).run(
            DESIGNS, WORKLOADS
        )
        assert all(o.ok for o in result.outcomes)
        # Only the incomplete cells were re-evaluated.
        assert resumed_runner.calls == 2
        reused = [o for o in result.outcomes if o.from_journal]
        assert [(o.design, o.workload) for o in reused] == [
            ("D1", "W1"), ("D1", "W2")
        ]

    def test_resumed_evaluation_identical(self, tmp_path):
        path = tmp_path / "j.jsonl"
        runner = FakeRunner()
        first = SweepExecutor(runner, journal=path).run(DESIGNS, WORKLOADS)
        second = SweepExecutor(FakeRunner(), journal=path).run(
            DESIGNS, WORKLOADS
        )
        assert all(o.from_journal for o in second.outcomes)
        assert [o.evaluation for o in first.outcomes] == [
            o.evaluation for o in second.outcomes
        ]

    def test_failed_cells_rerun_on_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        runner = FakeRunner()
        injector = FaultInjector().fail_cell("D2", "W1", times=1)
        SweepExecutor(
            runner, evaluate=injector.wrap(runner.evaluate), journal=path
        ).run(DESIGNS, WORKLOADS)
        resumed_runner = FakeRunner()
        result = SweepExecutor(resumed_runner, journal=path).run(
            DESIGNS, WORKLOADS
        )
        assert all(o.ok for o in result.outcomes)
        assert resumed_runner.calls == 1  # only the failed cell re-ran

    def test_resume_off_reevaluates_everything(self, tmp_path):
        path = tmp_path / "j.jsonl"
        SweepExecutor(FakeRunner(), journal=path).run(DESIGNS, WORKLOADS)
        runner = FakeRunner()
        SweepExecutor(runner, journal=path, resume=False).run(
            DESIGNS, WORKLOADS
        )
        assert runner.calls == 4

    def test_changed_scale_changes_keys(self, tmp_path):
        path = tmp_path / "j.jsonl"
        SweepExecutor(FakeRunner(), journal=path).run(DESIGNS, WORKLOADS)
        changed = FakeRunner()
        changed.scale = 0.5  # different design point: nothing reusable
        SweepExecutor(changed, journal=path).run(DESIGNS, WORKLOADS)
        assert changed.calls == 4


class TestDeadlines:
    """A deadline runs the grid on a one-worker supervised pool: the
    watchdog stops a cell past it, and cells inside it come back as
    they do inline."""

    SCALE = 1.0 / 8192

    def designs_for(self, runner):
        from repro.designs.configs import N_CONFIGS
        from repro.designs.nmm import NMMDesign
        from repro.designs.reference import ReferenceDesign
        from repro.tech.params import PCM

        return [
            NMMDesign(PCM, N_CONFIGS["N6"], scale=self.SCALE,
                      reference=runner.reference),
            ReferenceDesign(scale=self.SCALE, reference=runner.reference),
        ]

    def test_slow_cell_times_out(self, tmp_path):
        from repro.experiments.runner import Runner
        from repro.workloads.registry import get_workload

        runner = Runner(scale=self.SCALE, seed=2,
                        trace_cache_dir=str(tmp_path / "traces"))
        designs = self.designs_for(runner)
        faults = FaultInjector().worker_hang(designs[0].name, "CG", 60.0)
        result = SweepExecutor(
            runner, worker_faults=faults, cell_timeout_s=5.0
        ).run(designs, [get_workload("CG"), get_workload("SP")])
        assert result.outcomes[0].status == "timed_out"
        assert "deadline" in result.outcomes[0].error
        # The campaign still finished the rest of the grid.
        assert sum(1 for o in result.outcomes if o.ok) == 3

    def test_fast_cells_unaffected_by_deadline(self, tmp_path):
        from repro.experiments.runner import Runner
        from repro.workloads.registry import get_workload

        def sweep(journal, **kwargs):
            runner = Runner(scale=self.SCALE, seed=2,
                            trace_cache_dir=str(tmp_path / "traces"))
            SweepExecutor(runner, journal=journal, **kwargs).run(
                self.designs_for(runner), [get_workload("CG")]
            )
            return {
                key: (e.status, e.attempts, e.evaluation)
                for key, e in Journal(journal).load().items()
            }

        inline = sweep(tmp_path / "inline.jsonl")
        pooled = sweep(tmp_path / "pooled.jsonl", cell_timeout_s=600.0)
        assert pooled == inline
        assert all(v[:2] == ("ok", 1) for v in pooled.values())


class TestJournalDurability:
    """Appends fsync in groups, and ``run`` leaves nothing unsynced
    however it ends."""

    def test_normal_end(self, tmp_path, journal_io):
        path = tmp_path / "j.jsonl"
        result = SweepExecutor(FakeRunner(), journal=path).run(
            DESIGNS, WORKLOADS
        )
        assert all(o.ok for o in result.outcomes)
        assert len(Journal(path).load()) == 4
        # The first append and the final sync; not one per cell.
        assert journal_io.fsyncs == 2 and journal_io.synced

    def test_fail_fast(self, tmp_path, journal_io):
        path = tmp_path / "j.jsonl"
        runner = FakeRunner()
        injector = FaultInjector().fail_cell("D1", "W2")
        result = SweepExecutor(
            runner, evaluate=injector.wrap(runner.evaluate), journal=path,
            keep_going=False,
        ).run(DESIGNS, WORKLOADS)
        assert [o.status for o in result.outcomes] == [
            "ok", "failed", "skipped", "skipped"
        ]
        assert len(Journal(path).load()) == 2
        assert journal_io.fsyncs == 2 and journal_io.synced

    def test_campaign_kill(self, tmp_path, journal_io):
        path = tmp_path / "j.jsonl"
        runner = FakeRunner()
        injector = FaultInjector().kill_at_call(4)
        with pytest.raises(CampaignKill):
            SweepExecutor(
                runner, evaluate=injector.wrap(runner.evaluate),
                journal=path,
            ).run(DESIGNS, WORKLOADS)
        assert len(Journal(path).load()) == 3
        assert journal_io.fsyncs == 2 and journal_io.synced


class TestDegradationReport:
    def test_report_names_failures_and_reproduction_handle(self):
        """The reproduction handle is the seed the cell key was built
        from, next to that key."""
        runner = FakeRunner(seed=3)
        injector = FaultInjector().fail_cell("D2", "W2")
        executor = SweepExecutor(
            runner, evaluate=injector.wrap(runner.evaluate)
        )
        result = executor.run(DESIGNS, WORKLOADS)
        report = result.report()
        key = cell_key_for(DESIGNS[1], WORKLOADS[1], runner.scale, 3)
        assert result.seed == 3
        assert "3 ok" in report
        assert "1 failed" in report
        assert "D2/W2" in report
        assert f"seed=3 key={key}" in report
        assert "InjectedFault" in report

    def test_clean_report(self):
        result = SweepExecutor(FakeRunner()).run(DESIGNS, WORKLOADS)
        assert "no cells abandoned" in result.report()
        assert "4 ok" in result.report()


class TestRealRunnerIntegration:
    """End-to-end: a real tiny campaign killed and resumed."""

    SCALE = 1.0 / 8192

    def test_kill_and_resume_real_sweep(self, tmp_path):
        from repro.designs.configs import N_CONFIGS
        from repro.designs.nmm import NMMDesign
        from repro.designs.reference import ReferenceDesign
        from repro.experiments.runner import Runner
        from repro.tech.params import PCM, STTRAM
        from repro.workloads.registry import get_workload

        path = tmp_path / "campaign.jsonl"
        workloads = [get_workload("CG")]

        def designs_for(runner):
            return [
                ReferenceDesign(scale=self.SCALE, reference=runner.reference),
                NMMDesign(PCM, N_CONFIGS["N6"], scale=self.SCALE,
                          reference=runner.reference),
                NMMDesign(STTRAM, N_CONFIGS["N6"], scale=self.SCALE,
                          reference=runner.reference),
            ]

        runner = Runner(scale=self.SCALE, seed=2)
        injector = FaultInjector().kill_at_call(2)
        with pytest.raises(CampaignKill):
            SweepExecutor(
                runner, evaluate=injector.wrap(runner.evaluate), journal=path
            ).run(designs_for(runner), workloads)
        assert len(Journal(path).load()) == 1

        resumed = Runner(scale=self.SCALE, seed=2)
        resumed_injector = FaultInjector()  # counts evaluations only
        result = SweepExecutor(
            resumed,
            evaluate=resumed_injector.wrap(resumed.evaluate),
            journal=path,
        ).run(designs_for(resumed), workloads)
        assert all(o.ok for o in result.outcomes)
        assert resumed_injector.calls == 2  # first cell came from journal
        assert result.outcomes[0].from_journal
        # The journalled evaluation matches a fresh one bit-for-bit.
        fresh = Runner(scale=self.SCALE, seed=2)
        expected = fresh.evaluate(designs_for(fresh)[0], workloads[0])
        assert result.outcomes[0].evaluation == expected

    def test_serial_sweep_journals_before_it_prices_the_next_workload(
        self, tmp_path, monkeypatch
    ):
        """A serial sweep prices each cell inside that cell, so a kill
        after the first cell leaves its line: the first journal line is
        on disk before any lower chain of the second workload runs."""
        from repro.designs.configs import N_CONFIGS
        from repro.designs.nmm import NMMDesign
        from repro.designs.reference import ReferenceDesign
        from repro.experiments.runner import Runner
        from repro.tech.params import PCM, STTRAM
        from repro.workloads.registry import get_workload

        path = tmp_path / "campaign.jsonl"
        replays = []  # (id of the post-L3 stream, journal lines)
        real = Runner._replay_lower

        def counting(runner, post_l3, *args, **kwargs):
            lines = path.read_bytes().count(b"\n") if path.exists() else 0
            replays.append((id(post_l3), lines))
            return real(runner, post_l3, *args, **kwargs)

        monkeypatch.setattr(Runner, "_replay_lower", counting)
        runner = Runner(scale=self.SCALE, seed=2)
        designs = [
            NMMDesign(PCM, N_CONFIGS["N6"], scale=self.SCALE,
                      reference=runner.reference),
            NMMDesign(STTRAM, N_CONFIGS["N3"], scale=self.SCALE,
                      reference=runner.reference),
            ReferenceDesign(scale=self.SCALE, reference=runner.reference),
        ]
        workloads = [get_workload("CG"), get_workload("Hashing")]
        result = SweepExecutor(runner, journal=path).run(designs, workloads)
        assert result.counts() == {"ok": 6}

        second = id(runner.prepare(workloads[1]).post_l3)
        seen = [lines for stream, lines in replays if stream == second]
        assert seen and min(seen) >= 1
        assert len(seen) == 3  # REF DRAM in prepare, then the two NMMs


#: A serial ``sweep`` that SIGKILLs itself right after its
#: ``KILL_AFTER``-th journal append. Only the first line was fsynced
#: then: the rest were written and still waited for their fsync.
KILLED_SWEEP = """
import os, signal, sys
from repro.resilience import journal
from repro.experiments.cli import main

journal.SYNC_INTERVAL_S = 3600.0
append = journal.Journal.append
appended = 0

def append_then_die(self, entry):
    global appended
    append(self, entry)
    appended += 1
    if appended == int(os.environ["KILL_AFTER"]):
        os.kill(os.getpid(), signal.SIGKILL)

journal.Journal.append = append_then_die
sys.exit(main(sys.argv[1:]))
"""


class TestKilledBeforeFsync:
    """A process killed between a journal write and its fsync keeps
    every line it wrote: resume reuses exactly those and re-runs the
    rest."""

    DESIGNS = "REF,NMM:PCM:N6,NMM:STTRAM:N6,4LC:EDRAM:EH4"

    def sweep(self, journal, *extra, code=None, env=None):
        args = [
            "--scale", "0.0001220703125", "--workloads", "CG",
            "sweep", "--designs", self.DESIGNS, "--journal", str(journal),
            "--keep-going", *extra,
        ]
        command = (
            [sys.executable, "-c", code, *args] if code is not None
            else [sys.executable, "-m", "repro.experiments", *args]
        )
        return subprocess.run(
            command, capture_output=True, text=True, timeout=300,
            env={
                **os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                **(env or {}),
            },
        )

    def test_resume_reuses_exactly_the_lines_on_disk(self, tmp_path):
        killed = tmp_path / "killed.jsonl"
        done = self.sweep(killed, code=KILLED_SWEEP, env={"KILL_AFTER": "3"})
        assert done.returncode == -signal.SIGKILL, done.stderr
        on_disk = killed.read_bytes()
        assert len(on_disk.splitlines()) == 3

        resumed = self.sweep(killed, "--resume")
        assert resumed.returncode == 0, resumed.stderr
        after = killed.read_bytes()
        assert after.startswith(on_disk)  # reused, not rewritten
        assert len(after[len(on_disk):].splitlines()) == 1  # one re-run

        whole = tmp_path / "whole.jsonl"
        assert self.sweep(whole).returncode == 0

        def digest(path):
            return sorted(
                (e.key, e.status, json.dumps(e.evaluation, sort_keys=True))
                for e in Journal(path).load().values()
            )

        assert digest(killed) == digest(whole)
        assert len(digest(whole)) == 4
