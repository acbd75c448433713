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

import gc
import io
import pathlib
import re
import weakref

import numpy as np
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
from repro.profile import load_profile
from repro.resilience import Journal, SweepExecutor
from repro.resilience.journal import JournalEntry, cell_key
from repro.tech.params import EDRAM, PCM
from repro.trace.io import _write_artifact
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
        # one grain of a one-granularity profile (the mixed-granularity
        # EH1+N6 pair above reads a two-grain profile).
        DeepHybridDesign(EDRAM, PCM, EH_CONFIGS["EH4"], N_CONFIGS["N6"],
                         scale=SCALE, reference=reference),
        NDMDesign(PCM, [AddressRange(0x1000_0000, 0x2000_0000, "hot")],
                  scale=SCALE, reference=reference),
    ]


#: Analytic lower-level stats (``LevelStats.as_dict()`` values, first
#: lower level to memory) of every family above on CG and SP at seed
#: 5, undrained and drained, as the per-access engine computed them
#: before profiles became class tables.
PINNED_LOWER_STATS = {
    ("CG", False, "REF"): (
        ("DRAM", 29764, 828, 15239168, 423936, 29764, 0, 828, 0, 0, 0),
    ),
    ("CG", False, "NMM-PCM-N6"): (
        ("DRAM$", 29764, 828, 15239168, 423936, 28939, 825, 828, 0, 426, 825),
        ("NVM", 825, 426, 3379200, 218112, 825, 0, 426, 0, 0, 0),
    ),
    ("CG", False, "4LC-eDRAM-EH4"): (
        ("L4", 29764, 828, 15239168, 423936, 18002, 11762, 828, 0, 790, 11762),
        ("DRAM", 11762, 790, 48177152, 404480, 11762, 0, 790, 0, 0, 0),
    ),
    ("CG", False, "4LCNVM-eDRAM-PCM-EH4"): (
        ("L4", 29764, 828, 15239168, 423936, 18002, 11762, 828, 0, 790, 11762),
        ("NVM", 11762, 790, 48177152, 404480, 11762, 0, 790, 0, 0, 0),
    ),
    ("CG", False, "DEEP-eDRAM-PCM-EH1-N6"): (
        ("L4", 29764, 828, 15239168, 423936, 3511, 26253, 377, 451, 814,
         26704),
        ("DRAM$", 26704, 814, 13672448, 416768, 25879, 825, 388, 426, 426,
         1251),
        ("NVM", 1251, 426, 5124096, 218112, 1251, 0, 426, 0, 0, 0),
    ),
    ("CG", False, "DEEP-eDRAM-PCM-EH4-N6"): (
        ("L4", 29764, 828, 15239168, 423936, 18002, 11762, 828, 0, 790, 11762),
        ("DRAM$", 11762, 790, 48177152, 404480, 10937, 825, 364, 426, 426,
         1251),
        ("NVM", 1251, 426, 5124096, 218112, 1251, 0, 426, 0, 0, 0),
    ),
    ("CG", False, "NDM-PCM"): (
        ("DRAMpart", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        ("NVMpart", 29764, 828, 15239168, 423936, 29764, 0, 828, 0, 0, 0),
    ),
    ("SP", False, "REF"): (
        ("DRAM", 47374, 11642, 24255488, 5960704, 47374, 0, 11642, 0, 0, 0),
    ),
    ("SP", False, "NMM-PCM-N6"): (
        ("DRAM$", 47374, 11642, 24255488, 5960704, 41936, 5438, 11637, 5, 2706,
         5443),
        ("NVM", 5443, 2706, 22294528, 1385472, 5443, 0, 2706, 0, 0, 0),
    ),
    ("SP", False, "4LC-eDRAM-EH4"): (
        ("L4", 47374, 11642, 24255488, 5960704, 18662, 28712, 5089, 6553,
         11639, 35265),
        ("DRAM", 35265, 11639, 144445440, 5959168, 35265, 0, 11639, 0, 0, 0),
    ),
    ("SP", False, "4LCNVM-eDRAM-PCM-EH4"): (
        ("L4", 47374, 11642, 24255488, 5960704, 18662, 28712, 5089, 6553,
         11639, 35265),
        ("NVM", 35265, 11639, 144445440, 5959168, 35265, 0, 11639, 0, 0, 0),
    ),
    ("SP", False, "DEEP-eDRAM-PCM-EH1-N6"): (
        ("L4", 47374, 11642, 24255488, 5960704, 5678, 41696, 5509, 6133, 11628,
         47829),
        ("DRAM$", 47829, 11628, 24488448, 5953536, 42386, 5443, 8922, 2706,
         2706, 8149),
        ("NVM", 8149, 2706, 33378304, 1385472, 8149, 0, 2706, 0, 0, 0),
    ),
    ("SP", False, "DEEP-eDRAM-PCM-EH4-N6"): (
        ("L4", 47374, 11642, 24255488, 5960704, 18662, 28712, 5089, 6553,
         11639, 35265),
        ("DRAM$", 35265, 11639, 144445440, 5959168, 29822, 5443, 8933, 2706,
         2706, 8149),
        ("NVM", 8149, 2706, 33378304, 1385472, 8149, 0, 2706, 0, 0, 0),
    ),
    ("SP", False, "NDM-PCM"): (
        ("DRAMpart", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        ("NVMpart", 47374, 11642, 24255488, 5960704, 47374, 0, 11642, 0, 0, 0),
    ),
    ("CG", True, "REF"): (
        ("DRAM", 29764, 848, 15239168, 434176, 29764, 0, 848, 0, 0, 0),
    ),
    ("CG", True, "NMM-PCM-N6"): (
        ("DRAM$", 29764, 848, 15239168, 434176, 28939, 825, 848, 0, 791, 825),
        ("NVM", 825, 791, 3379200, 404992, 825, 0, 791, 0, 0, 0),
    ),
    ("CG", True, "4LC-eDRAM-EH4"): (
        ("L4", 29764, 848, 15239168, 434176, 18002, 11762, 848, 0, 848, 11762),
        ("DRAM", 11762, 848, 48177152, 434176, 11762, 0, 848, 0, 0, 0),
    ),
    ("CG", True, "4LCNVM-eDRAM-PCM-EH4"): (
        ("L4", 29764, 848, 15239168, 434176, 18002, 11762, 848, 0, 848, 11762),
        ("NVM", 11762, 848, 48177152, 434176, 11762, 0, 848, 0, 0, 0),
    ),
    ("CG", True, "DEEP-eDRAM-PCM-EH1-N6"): (
        ("L4", 29764, 848, 15239168, 434176, 3511, 26253, 392, 456, 848,
         26709),
        ("DRAM$", 26709, 848, 13675008, 434176, 25883, 826, 422, 426, 791,
         1252),
        ("NVM", 1252, 791, 5128192, 404992, 1252, 0, 791, 0, 0, 0),
    ),
    ("CG", True, "DEEP-eDRAM-PCM-EH4-N6"): (
        ("L4", 29764, 848, 15239168, 434176, 18002, 11762, 848, 0, 848, 11762),
        ("DRAM$", 11762, 848, 48177152, 434176, 10937, 825, 422, 426, 791,
         1251),
        ("NVM", 1251, 791, 5124096, 404992, 1251, 0, 791, 0, 0, 0),
    ),
    ("CG", True, "NDM-PCM"): (
        ("DRAMpart", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        ("NVMpart", 29764, 848, 15239168, 434176, 29764, 0, 848, 0, 0, 0),
    ),
    ("SP", True, "REF"): (
        ("DRAM", 47374, 11662, 24255488, 5970944, 47374, 0, 11662, 0, 0, 0),
    ),
    ("SP", True, "NMM-PCM-N6"): (
        ("DRAM$", 47374, 11662, 24255488, 5970944, 41936, 5438, 11657, 5, 2889,
         5443),
        ("NVM", 5443, 2889, 22294528, 1479168, 5443, 0, 2889, 0, 0, 0),
    ),
    ("SP", True, "4LC-eDRAM-EH4"): (
        ("L4", 47374, 11662, 24255488, 5970944, 18662, 28712, 5089, 6573,
         11662, 35285),
        ("DRAM", 35285, 11662, 144527360, 5970944, 35285, 0, 11662, 0, 0, 0),
    ),
    ("SP", True, "4LCNVM-eDRAM-PCM-EH4"): (
        ("L4", 47374, 11662, 24255488, 5970944, 18662, 28712, 5089, 6573,
         11662, 35285),
        ("NVM", 35285, 11662, 144527360, 5970944, 35285, 0, 11662, 0, 0, 0),
    ),
    ("SP", True, "DEEP-eDRAM-PCM-EH1-N6"): (
        ("L4", 47374, 11662, 24255488, 5970944, 5678, 41696, 5525, 6137, 11656,
         47833),
        ("DRAM$", 47833, 11656, 24490496, 5967872, 42390, 5443, 8950, 2706,
         2889, 8149),
        ("NVM", 8149, 2889, 33378304, 1479168, 8149, 0, 2889, 0, 0, 0),
    ),
    ("SP", True, "DEEP-eDRAM-PCM-EH4-N6"): (
        ("L4", 47374, 11662, 24255488, 5970944, 18662, 28712, 5089, 6573,
         11662, 35285),
        ("DRAM$", 35285, 11662, 144527360, 5970944, 29842, 5443, 8956, 2706,
         2889, 8149),
        ("NVM", 8149, 2889, 33378304, 1479168, 8149, 0, 2889, 0, 0, 0),
    ),
    ("SP", True, "NDM-PCM"): (
        ("DRAMpart", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        ("NVMpart", 47374, 11662, 24255488, 5970944, 47374, 0, 11662, 0, 0, 0),
    ),
}


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

    @pytest.mark.parametrize("drain", [False, True])
    def test_lower_stats_match_the_pinned_values(self, trace_cache,
                                                 workloads, drain):
        """Class tables change how a profile is kept, not what the
        engine computes: every family's lower levels equal the pinned
        values, DeepHybrid's mixed-granularity chain included."""
        runner = make_runner(trace_cache, "analytic", drain=drain)
        for workload in workloads:
            for design in all_designs(runner.reference):
                pinned = PINNED_LOWER_STATS[(workload.name, drain, design.name)]
                levels = runner.stats_for(design, workload).levels
                got = tuple(
                    tuple(level.as_dict().values())
                    for level in levels[-len(pinned):]
                )
                assert got == pinned, (workload.name, design.name)

    def test_loaded_profile_is_far_smaller_than_its_stream(self, trace_cache,
                                                           workloads):
        """A persisted one-granularity profile holds class tables, well
        under a byte per access, not per-access arrays."""
        runner = make_runner(trace_cache, "analytic")
        runner.stats_for(all_designs(runner.reference)[1], workloads[0])
        paths = [
            path for path in pathlib.Path(trace_cache).glob("*.profile-*.npz")
            if len(re.findall(r"-g\d+-c\d+", path.name)) == 1
        ]
        assert paths
        for path in paths:
            profile = load_profile(path)
            held = sum(
                value.nbytes for value in vars(profile).values()
                if isinstance(value, np.ndarray)
            )
            assert 4 * held < profile.references, path.name

    def test_foreign_version_profile_is_recomputed(self, trace_cache,
                                                   workloads):
        """A profile file of another format version, with a valid
        sidecar, is discarded and rewritten, and its cell succeeds."""
        runner = make_runner(trace_cache, "analytic")
        workload = workloads[0]
        upper_key = runner.prepare(workload).upper_key
        path = pathlib.Path(trace_cache) / (
            f"{runner._cache_name(workload)}.profile-{upper_key}-g512-c64.npz"
        )
        buffer = io.BytesIO()
        np.savez(buffer, version=np.int64(99))
        _write_artifact(path, buffer.getvalue())
        design = all_designs(runner.reference)[1]  # NMM: a 512 B page
        result = SweepExecutor(runner).run([design], [workload])
        assert [o.status for o in result.outcomes] == ["ok"]
        rewritten = load_profile(path)
        assert rewritten.references == len(runner.prepare(workload).post_l3)

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

    def test_screen_runner_is_freed_before_the_exact_confirm(
        self, trace_cache, tmp_path, monkeypatch
    ):
        """The phase-1 runner holds no reference cycle, so refcounting
        frees it (and its prepared workloads) as soon as the screen
        returns, before phase 2 prepares them again."""
        from repro.experiments import cli

        built, alive = [], []
        real_runner, real_screen = cli.Runner, cli._screen_designs

        def spy_runner(*args, **kwargs):
            runner = real_runner(*args, **kwargs)
            built.append(weakref.ref(runner))
            return runner

        def spy_screen(*args):
            monkeypatch.setattr(cli, "Runner", spy_runner)
            try:
                kept = real_screen(*args)
            finally:
                monkeypatch.setattr(cli, "Runner", real_runner)
            alive.extend(ref() is not None for ref in built)
            return kept

        monkeypatch.setattr(cli, "_screen_designs", spy_screen)
        gc.disable()
        try:
            code = cli.main([
                "--scale", str(SCALE), "--seed", "5", "--workloads", "CG",
                "--trace-cache", trace_cache,
                "sweep", "--screen-analytic", "2",
                "--journal", str(tmp_path / "screen.jsonl"),
            ])
        finally:
            gc.enable()
        assert code == 0
        assert alive == [False]

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
