"""Process-parallel sweep execution: equivalence, resume, isolation.

Workers are real processes, so the failing design used for fault
isolation is defined at module level (it must pickle by reference).
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.nmm import NMMDesign
from repro.errors import ConfigError
from repro.experiments.runner import Runner
from repro.experiments.sweep import run_sweep
from repro.resilience import Journal, SweepExecutor
from repro.resilience.journal import cell_key
from repro.tech.params import EDRAM, PCM
from repro.workloads.registry import get_workload

pytestmark = pytest.mark.resilience

SCALE = 1.0 / 8192


class ExplodingDesign(NMMDesign):
    """Raises during simulation; used to prove worker fault isolation."""

    def sim_key(self):
        # Distinct from the healthy NMM design: a shared sim key would
        # let the exploding cells ride its cached statistics.
        return "BOOM"

    def lower_caches(self, engine):
        raise RuntimeError("injected lower-cache failure")


@pytest.fixture(scope="module")
def trace_cache(tmp_path_factory):
    """Shared on-disk trace cache so every runner reuses one tracing."""
    return str(tmp_path_factory.mktemp("traces"))


@pytest.fixture(scope="module")
def workloads():
    return [get_workload("CG"), get_workload("SP")]


def make_runner(trace_cache):
    return Runner(scale=SCALE, seed=5, trace_cache_dir=trace_cache)


def make_designs(reference):
    return [
        NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE, reference=reference),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE,
                     reference=reference),
        FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=SCALE,
                        reference=reference),
    ]


def journalled_sweep(trace_cache, journal, workers):
    """Run the standard grid over CG and SP into ``journal``."""
    runner = make_runner(trace_cache)
    SweepExecutor(runner, journal=Journal(journal), workers=workers).run(
        make_designs(runner.reference), [get_workload("CG"), get_workload("SP")]
    )


class TestParallelEquivalence:
    def test_workers_two_equals_workers_one(self, trace_cache, workloads,
                                            tmp_path):
        seq_runner = make_runner(trace_cache)
        seq_journal = Journal(tmp_path / "seq.jsonl")
        seq = SweepExecutor(seq_runner, journal=seq_journal).run(
            make_designs(seq_runner.reference), workloads
        )

        par_runner = make_runner(trace_cache)
        par_journal = Journal(tmp_path / "par.jsonl")
        par = SweepExecutor(par_runner, journal=par_journal, workers=2).run(
            make_designs(par_runner.reference), workloads
        )

        assert [o.key for o in par.outcomes] == [o.key for o in seq.outcomes]
        assert all(o.ok for o in par.outcomes)
        for a, b in zip(seq.outcomes, par.outcomes):
            assert a.status == b.status
            assert dataclasses.asdict(a.evaluation) == dataclasses.asdict(
                b.evaluation
            )
        seq_entries = seq_journal.load()
        par_entries = par_journal.load()
        assert set(seq_entries) == set(par_entries)
        for key, entry in seq_entries.items():
            other = par_entries[key]
            assert (entry.status, entry.evaluation) == (
                other.status, other.evaluation
            )

    def test_spawn_start_method_equals_workers_one(self, trace_cache,
                                                  tmp_path):
        """The pool needs nothing that only ``fork`` provides: a 2-worker
        campaign in a process whose start method is ``spawn`` journals
        the same records as an in-process ``workers=1`` run."""
        serial = tmp_path / "serial.jsonl"
        journalled_sweep(trace_cache, serial, workers=1)
        spawned = tmp_path / "spawn.jsonl"
        code = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method('spawn', force=True)\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import test_sweep_parallel as t\n"
            "t.journalled_sweep(sys.argv[2], sys.argv[3], workers=2)\n"
            "print(multiprocessing.get_start_method())\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent),
             trace_cache, str(spawned)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["spawn"]

        def records(path):
            return sorted(
                (e.key, e.status, e.evaluation)
                for e in Journal(path).load().values()
            )

        assert records(spawned) == records(serial)
        assert len(records(serial)) == 6

    def test_run_sweep_workers_kwarg(self, trace_cache, workloads):
        seq_runner = make_runner(trace_cache)
        par_runner = make_runner(trace_cache)
        seq = run_sweep(seq_runner, make_designs(seq_runner.reference),
                        workloads)
        par = run_sweep(par_runner, make_designs(par_runner.reference),
                        workloads, workers=2)
        assert [(r.design, r.workload) for r in seq] == [
            (r.design, r.workload) for r in par
        ]
        for a, b in zip(seq, par):
            assert dataclasses.asdict(a.evaluation) == dataclasses.asdict(
                b.evaluation
            )


class TestParallelResume:
    def test_full_resume_skips_the_pool(self, trace_cache, workloads,
                                        tmp_path):
        journal = Journal(tmp_path / "resume.jsonl")
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        first = SweepExecutor(runner, journal=journal, workers=2).run(
            designs, workloads
        )
        assert all(o.ok for o in first.outcomes)

        again = SweepExecutor(
            make_runner(trace_cache), journal=journal, workers=2
        ).run(designs, workloads)
        assert all(o.from_journal for o in again.outcomes)
        assert [o.key for o in again.outcomes] == [
            o.key for o in first.outcomes
        ]

    def test_partial_resume_runs_only_missing_cells(self, trace_cache,
                                                    workloads, tmp_path):
        journal = Journal(tmp_path / "partial.jsonl")
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        # Seed the journal with one workload's worth of results.
        SweepExecutor(runner, journal=journal).run(designs, workloads[:1])

        resumed = SweepExecutor(
            make_runner(trace_cache), journal=journal, workers=2
        ).run(designs, workloads)
        by_workload = {}
        for outcome in resumed.outcomes:
            by_workload.setdefault(outcome.workload, []).append(outcome)
        assert all(o.from_journal for o in by_workload[workloads[0].name])
        assert not any(o.from_journal for o in by_workload[workloads[1].name])
        assert all(o.ok for o in resumed.outcomes)


class TestParallelFaultIsolation:
    def test_bad_cell_does_not_sink_the_shard(self, trace_cache, workloads):
        runner = make_runner(trace_cache)
        boom = ExplodingDesign(PCM, N_CONFIGS["N6"], scale=SCALE,
                               reference=runner.reference)
        boom.name = "BOOM"
        designs = make_designs(runner.reference) + [boom]
        result = SweepExecutor(runner, workers=2).run(designs, workloads)
        bad = [o for o in result.outcomes if o.design == "BOOM"]
        good = [o for o in result.outcomes if o.design != "BOOM"]
        assert bad and all(o.status == "failed" for o in bad)
        assert all("injected lower-cache failure" in o.error for o in bad)
        assert good and all(o.ok for o in good)


class TestValidation:
    def test_evaluate_override_rejected_with_workers(self, trace_cache):
        with pytest.raises(ConfigError):
            SweepExecutor(
                make_runner(trace_cache), workers=2,
                evaluate=lambda d, w: None,
            )

    def test_workers_must_be_positive(self, trace_cache):
        with pytest.raises(ConfigError):
            SweepExecutor(make_runner(trace_cache), workers=0)


class TestDrainKeying:
    def test_drain_enters_the_key_only_when_true(self):
        base = cell_key("D", "S", "W", 0.5, 7)
        assert cell_key("D", "S", "W", 0.5, 7, drain=False) == base
        assert cell_key("D", "S", "W", 0.5, 7, drain=True) != base
