"""Analytic fast-path engine: differential suite against exact replay.

The analytic engine's contract, pinned here per design family on real
traced workloads:

- REF and NDM (no lower caches) are *simulated* — stats bit-identical
  to the exact engines.
- Designs whose lower chain is entirely fully-associative (one set) at
  the test scale come out bit-identical too: the profile indicator
  sums are exact integers, so rounding changes nothing.
- Set-associative lower levels go through the binomial conflict model;
  their per-level hit-rate error must stay inside the documented
  envelope (see docs/performance.md).
- ``--screen-analytic`` keeps the exact engine's winning design.
- Analytic results are approximations, so they may never satisfy an
  exact campaign's journal on resume (or vice versa).
"""

from __future__ import annotations

import pytest

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.deephybrid import DeepHybridDesign
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.ndm import NDMDesign
from repro.designs.nmm import NMMDesign
from repro.designs.reference import ReferenceDesign
from repro.experiments.runner import Runner
from repro.partition.ranges import AddressRange
from repro.resilience import Journal, SweepExecutor
from repro.resilience.journal import JournalEntry, cell_key
from repro.tech.params import EDRAM, PCM
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192

#: Documented worst-case absolute hit-rate error of the binomial
#: conflict model at this extreme downscale (16-set sectored DRAM$,
#: measured 0.095 standalone and 0.122 chained behind a same-page L4,
#: where the nesting approximation compounds) — see
#: docs/performance.md.
SET_ASSOC_HIT_RATE_BOUND = 0.15


def all_designs(reference):
    return [
        ReferenceDesign(scale=SCALE, reference=reference),
        NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE, reference=reference),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE,
                     reference=reference),
        FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=SCALE,
                        reference=reference),
        DeepHybridDesign(EDRAM, PCM, EH_CONFIGS["EH1"], N_CONFIGS["N6"],
                         scale=SCALE, reference=reference),
        # EH4 and N6 share a 512 B page: both lower levels read the
        # *same* profile, covering the engine's class-decomposed
        # multi-level chain (the mixed-granularity EH1+N6 pair above
        # covers the per-access gather path).
        DeepHybridDesign(EDRAM, PCM, EH_CONFIGS["EH4"], N_CONFIGS["N6"],
                         scale=SCALE, reference=reference),
        NDMDesign(PCM, [AddressRange(0x1000_0000, 0x2000_0000, "hot")],
                  scale=SCALE, reference=reference),
    ]


@pytest.fixture(scope="module")
def trace_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("traces"))


@pytest.fixture(scope="module")
def workloads():
    return [get_workload("CG"), get_workload("SP")]


def make_runner(trace_cache, engine, drain=False):
    return Runner(scale=SCALE, seed=5, trace_cache_dir=trace_cache,
                  drain=drain, engine=engine)


class TestAnalyticDifferential:
    @pytest.mark.parametrize("drain", [False, True])
    def test_every_family_within_error_envelope(self, trace_cache,
                                                workloads, drain):
        exact = make_runner(trace_cache, "auto", drain=drain)
        analytic = make_runner(trace_cache, "analytic", drain=drain)
        for workload in workloads:
            for d_ex, d_an in zip(
                all_designs(exact.reference),
                all_designs(analytic.reference),
            ):
                se = exact.stats_for(d_ex, workload)
                sa = analytic.stats_for(d_an, workload)
                assert sa.references == se.references
                assert sa.level_names == se.level_names
                lower = d_ex.lower_caches(exact.sim_engine)
                if not lower or all(
                    c.config.num_sets == 1 for c in lower
                ):
                    # Simulated outright (REF/NDM) or indicator-exact
                    # (fully-associative chain): bit-identical.
                    assert sa.as_dict() == se.as_dict(), d_ex.name
                    continue
                # Upper levels replay the same exact trace.
                n_upper = len(se.levels) - len(lower) - 1
                for le, la in zip(se.levels[:n_upper], sa.levels[:n_upper]):
                    assert la.as_dict() == le.as_dict()
                # Arrival counts at the first lower level are exact.
                first = sa.levels[n_upper]
                assert first.loads == se.levels[n_upper].loads
                assert first.stores == se.levels[n_upper].stores
                # Conflict-modelled levels stay inside the envelope.
                for le, la in zip(se.levels[n_upper:], sa.levels[n_upper:]):
                    if le.accesses or la.accesses:
                        assert abs(
                            le.hit_rate - la.hit_rate
                        ) <= SET_ASSOC_HIT_RATE_BOUND, (d_ex.name, le.name)

    def test_evaluations_flow_through_model(self, trace_cache, workloads):
        """Analytic stats evaluate through the AMAT/energy/EDP model
        unchanged; fully-associative designs reproduce the exact
        engine's EDP to the last bit."""
        exact = make_runner(trace_cache, "auto")
        analytic = make_runner(trace_cache, "analytic")
        workload = workloads[0]
        for d_ex, d_an in zip(
            all_designs(exact.reference),
            all_designs(analytic.reference),
        ):
            ev_ex = exact.evaluate(d_ex, workload)
            ev_an = analytic.evaluate(d_an, workload)
            assert ev_an.edp_norm > 0
            lower = d_ex.lower_caches(exact.sim_engine)
            if not lower or all(c.config.num_sets == 1 for c in lower):
                assert ev_an.edp_norm == ev_ex.edp_norm, d_ex.name

    def test_winner_matches_exact_engine(self, trace_cache, workloads):
        """The analytic screen's purpose: per workload, the design the
        analytic engine ranks first is the exact engine's winner."""
        exact = make_runner(trace_cache, "auto")
        analytic = make_runner(trace_cache, "analytic")
        for workload in workloads:
            best = {}
            for engine, runner in (("exact", exact), ("analytic", analytic)):
                evs = {
                    d.name: runner.evaluate(d, workload).edp_norm
                    for d in all_designs(runner.reference)
                }
                best[engine] = min(evs, key=evs.get)
            assert best["analytic"] == best["exact"], workload.name

    def test_profile_cache_reused_across_runners(self, trace_cache,
                                                 workloads, capsys):
        """Profiles persist next to the trace cache and are reloaded,
        not recomputed, by a fresh runner."""
        import pathlib

        first = make_runner(trace_cache, "analytic")
        design = all_designs(first.reference)[2]
        first.stats_for(design, workloads[0])
        sidecars = list(pathlib.Path(trace_cache).glob("*.profile-*.npz"))
        assert sidecars, "profile cache files missing"
        stamps = {p: p.stat().st_mtime_ns for p in sidecars}

        second = make_runner(trace_cache, "analytic")
        design2 = all_designs(second.reference)[2]
        second.stats_for(design2, workloads[0])
        for p, stamp in stamps.items():
            assert p.stat().st_mtime_ns == stamp  # untouched, reloaded


class TestScreenAnalyticCLI:
    def test_two_phase_sweep_keeps_exact_winner(self, trace_cache,
                                                tmp_path, capsys):
        from repro.experiments.cli import main

        journal = tmp_path / "screen.jsonl"
        code = main([
            "--scale", str(SCALE), "--seed", "5", "--workloads", "CG",
            "--trace-cache", trace_cache,
            "sweep", "--screen-analytic", "2",
            "--journal", str(journal),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic screen" in out
        # Phase 1 journals separately from phase 2.
        assert journal.exists()
        assert journal.with_name(journal.name + ".analytic").exists()

        # The exact winner among the same default designs survives the
        # screen and wins phase 2.
        runner = make_runner(trace_cache, "auto")
        from repro.experiments.cli import (
            DEFAULT_SWEEP_DESIGNS,
            _parse_designs,
        )
        designs = _parse_designs(
            DEFAULT_SWEEP_DESIGNS, SCALE, runner.reference
        )
        workload = get_workload("CG")
        evs = {
            d.name: runner.evaluate(d, workload).edp_norm for d in designs
        }
        winner = min(evs, key=evs.get)
        kept_line = [
            line for line in out.splitlines()
            if line.startswith("analytic screen kept")
        ][0]
        assert winner in kept_line

    def test_screen_rejects_analytic_engine_combo(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit, match="screen-analytic"):
            main([
                "--scale", str(SCALE), "--workloads", "CG",
                "--engine", "analytic",
                "sweep", "--screen-analytic", "2",
            ])

    def test_screen_rejects_nonpositive_k(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main([
                "--scale", str(SCALE), "--workloads", "CG",
                "sweep", "--screen-analytic", "0",
            ])


@pytest.mark.resilience
class TestEngineClassJournalSeparation:
    def test_cell_key_separates_engine_classes(self):
        exact = cell_key("D", "K", "CG", SCALE, 5)
        analytic = cell_key("D", "K", "CG", SCALE, 5,
                            engine_class="analytic")
        assert exact != analytic
        # Explicit "exact" matches the default (old journals resume).
        assert exact == cell_key("D", "K", "CG", SCALE, 5,
                                 engine_class="exact")

    def test_journal_entry_round_trip_and_compat(self):
        entry = JournalEntry(
            key="k", design="D", workload="CG", scale=SCALE, seed=5,
            status="ok", attempts=1, duration_s=0.1,
            engine_class="analytic",
        )
        line = entry.to_json()
        assert '"engine_class": "analytic"' in line
        assert JournalEntry.from_json(line).engine_class == "analytic"
        # Exact entries serialize without the field — byte-stable with
        # journals written before the analytic engine existed.
        exact_line = JournalEntry(
            key="k", design="D", workload="CG", scale=SCALE, seed=5,
            status="ok", attempts=1, duration_s=0.1,
        ).to_json()
        assert "engine_class" not in exact_line
        assert JournalEntry.from_json(exact_line).engine_class == "exact"

    def test_resume_never_mixes_engine_classes(self, trace_cache,
                                               workloads, tmp_path):
        """A journal written by an analytic campaign must not satisfy
        an exact campaign on resume, nor the reverse."""
        designs_for = lambda runner: [
            NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE,
                      reference=runner.reference),
        ]
        journal = Journal(tmp_path / "mixed.jsonl")
        wl = [workloads[0]]

        analytic_runner = make_runner(trace_cache, "analytic")
        first = SweepExecutor(analytic_runner, journal=journal).run(
            designs_for(analytic_runner), wl
        )
        assert all(o.ok and not o.from_journal for o in first.outcomes)
        assert all(
            e.engine_class == "analytic" for e in journal.entries()
        )

        exact_runner = make_runner(trace_cache, "auto")
        second = SweepExecutor(exact_runner, journal=journal).run(
            designs_for(exact_runner), wl
        )
        assert all(not o.from_journal for o in second.outcomes)

        # Each class resumes from its own entries.
        third = SweepExecutor(exact_runner, journal=journal).run(
            designs_for(exact_runner), wl
        )
        assert all(o.from_journal for o in third.outcomes)
        again = SweepExecutor(
            make_runner(trace_cache, "analytic"), journal=journal
        ).run(designs_for(analytic_runner), wl)
        assert all(o.from_journal for o in again.outcomes)
