"""Scalar vs auto engine: full-hierarchy differential tests.

The ``auto`` engine (set-parallel rounds, the LRU step and pricing
from counts where they apply) promises bit-identical *hierarchy*
behaviour, not just per-level agreement: identical
:class:`HierarchyStats` for every built-in design family, identical
downstream request order (so every lower level sees the exact same
stream), and identical results through the SimPlan shared-prefix
capture and a process-parallel sweep resume.
These tests pin that promise on real traced workloads.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.deephybrid import DeepHybridDesign
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.ndm import NDMDesign
from repro.designs.nmm import NMMDesign
from repro.designs.reference import ReferenceDesign
from repro.errors import ConfigError
from repro.experiments import cli
from repro.experiments.runner import CapturingMemory, Runner
from repro.experiments.sweep import run_sweep
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import Hierarchy
from repro.cache.setassoc import SetAssociativeCache
from repro.partition.ranges import AddressRange
from repro.resilience import Journal, SweepExecutor
from repro.tech.params import EDRAM, PCM
from repro.trace.stream import AddressStream
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192

ENGINES = ("scalar", "auto")


def all_designs(reference):
    """One member of every built-in design family."""
    return [
        ReferenceDesign(scale=SCALE, reference=reference),
        NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE, reference=reference),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE,
                     reference=reference),
        FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=SCALE,
                        reference=reference),
        DeepHybridDesign(EDRAM, PCM, EH_CONFIGS["EH1"], N_CONFIGS["N6"],
                         scale=SCALE, reference=reference),
        NDMDesign(PCM, [AddressRange(0x1000_0000, 0x2000_0000, "hot")],
                  scale=SCALE, reference=reference),
    ]


@pytest.fixture(scope="module")
def trace_cache(tmp_path_factory):
    """Shared on-disk trace cache so every runner reuses one tracing."""
    return str(tmp_path_factory.mktemp("traces"))


@pytest.fixture(scope="module")
def workloads():
    return [get_workload("CG"), get_workload("SP")]


def make_runner(trace_cache, engine, drain=False):
    return Runner(scale=SCALE, seed=5, trace_cache_dir=trace_cache,
                  drain=drain, engine=engine)


class TestEngineValidation:
    def test_runner_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            Runner(engine="simd")

    def test_setpar_is_not_a_setting(self, capsys):
        """``setpar`` is the resolved label of vectorized LRU levels;
        no constructor or CLI flag accepts it as an engine."""
        with pytest.raises(ConfigError):
            SetAssociativeCache(CacheConfig("T", 64 * 8 * 64, 8, 64), "setpar")
        with pytest.raises(ConfigError):
            Runner(engine="setpar")
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--engine", "setpar", "tables"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'setpar'" in capsys.readouterr().err

    def test_auto_resolves_fifo_to_scalar(self):
        """FIFO and Random levels run the one policy loop under every
        engine; only LRU levels resolve to setpar."""
        for policy, resolved in (("fifo", "scalar"), ("random", "scalar"),
                                 ("lru", "setpar")):
            cache = SetAssociativeCache(CacheConfig(
                "T", 64 * 8 * 64, 8, 64, policy=policy,
            ), "auto")
            assert cache.engine == resolved


def spy_counts(monkeypatch):
    """Record the level name of every counts-only chain pricing."""
    calls = []
    real = SetAssociativeCache.count_lru

    def counted(self, *args, **kwargs):
        calls.append(self.name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SetAssociativeCache, "count_lru", counted)
    return calls


class TestHierarchyStatsIdentical:
    @pytest.mark.parametrize("drain", [False, True])
    def test_every_family_both_drain_modes(self, trace_cache, workloads,
                                           drain, monkeypatch):
        """Every design family, two workloads, both drain modes:
        HierarchyStats must match field-for-field.

        Each design is priced on its own runner: on a shared one,
        4LCNVM-EH4 would reuse 4LC-EH4's lower chain, and neither
        engine would simulate its L4. The auto side prices the NMM,
        4LC and 4LCNVM L4s by counts, so this compares that path with
        the scalar loop; DeepHybrid (two caches) and NDM (a partitioned
        memory) keep the loop under both engines."""
        counted = spy_counts(monkeypatch)

        def priced_alone(engine, workload):
            stats, by_counts = [], []
            for index in range(len(all_designs(None))):
                runner = make_runner(trace_cache, engine, drain=drain)
                design = all_designs(runner.reference)[index]
                before = len(counted)
                stats.append(runner.stats_for(design, workload).as_dict())
                by_counts.append(counted[before:])
            return stats, by_counts

        for workload in workloads:
            scalar, scalar_counts = priced_alone("scalar", workload)
            auto, auto_counts = priced_alone("auto", workload)
            assert scalar == auto
            assert scalar_counts == [[]] * 6
            # REF, NMM, 4LC, 4LCNVM, DeepHybrid, NDM
            assert auto_counts == [[], ["DRAM$"], ["L4"], ["L4"], [], []]

    @pytest.mark.parametrize("drain", [False, True])
    def test_upper_replay_on_real_traces(self, workloads, drain):
        """The runners above share one persisted L1–L3 replay, so the
        upper pyramid is compared here on runners without a trace
        cache: each simulates L1–L3 itself."""
        for workload in workloads:
            traces = {
                eng: Runner(scale=SCALE, seed=5, drain=drain,
                            engine=eng).prepare(workload)
                for eng in ENGINES
            }
            scalar, auto = traces["scalar"], traces["auto"]
            assert scalar.upper_stats == auto.upper_stats
            assert scalar.references == auto.references
            for a, b in zip(scalar.post_l3.chunks(), auto.post_l3.chunks(),
                            strict=True):
                assert np.array_equal(a.addresses, b.addresses)
                assert np.array_equal(a.is_store, b.is_store)


class TestEmissionOrderIdentical:
    def test_post_hierarchy_stream_identical(self, workloads):
        """The request stream reaching the terminal memory — contents
        and order — must not depend on the engine."""
        rng = np.random.default_rng(11)
        n = 20_000
        addrs = rng.integers(0, 1 << 14, size=n).astype(np.uint64) * 64
        kinds = (rng.random(n) < 0.3).astype(np.uint8)
        stream = AddressStream.from_arrays(addrs, 8, kinds)

        captured = {}
        for eng in ENGINES:
            design = NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE)
            memory = CapturingMemory()
            hierarchy = Hierarchy(
                design.reference.build_caches(SCALE, eng)
                + design.lower_caches(eng),
                memory,
            )
            hierarchy.run(stream, drain=True)
            captured[eng] = list(memory.captured.chunks())

        assert len(captured["scalar"]) == len(captured["auto"])
        for a, b in zip(captured["scalar"], captured["auto"]):
            assert np.array_equal(a.addresses, b.addresses)
            assert np.array_equal(a.sizes, b.sizes)
            assert np.array_equal(a.is_store, b.is_store)


class TestSimPlanIdentical:
    def test_plan_prefix_capture_matches_scalar(self, trace_cache,
                                                workloads):
        """simulate_designs (shared-prefix SimPlan execution) under
        auto equals per-design scalar simulation."""
        workload = workloads[0]
        scalar = make_runner(trace_cache, "scalar")
        auto = make_runner(trace_cache, "auto")
        designs_auto = all_designs(auto.reference)
        auto.simulate_designs(designs_auto, workload)
        for d_sc, d_auto in zip(all_designs(scalar.reference), designs_auto):
            assert (
                scalar.stats_for(d_sc, workload).as_dict()
                == auto.stats_for(d_auto, workload).as_dict()
            )


class TestScalarRunnerIsTheOracle:
    """A ``scalar`` runner simulates every cache with the reference
    loop, also those of designs built without naming an engine — the
    way the figures, the heat map and the NDM oracle build them — and
    its figures equal the ``auto`` runner's."""

    FAST_PATHS = ("count_lru", "_process_runs_lru_step",
                  "_process_runs_setpar")

    def test_figures_never_leave_the_loop(self, trace_cache, workloads,
                                          monkeypatch):
        from repro.experiments.figures import figure1, figure3, figure7
        from repro.experiments.heatmap import figure9

        def draw(runner):
            return [
                dataclasses.asdict(figure(runner, workloads))
                for figure in (figure1, figure3)
            ] + [
                dataclasses.asdict(figure9(runner, workloads, factors=(1.0,))),
                dataclasses.asdict(figure7(runner, workloads, [PCM])),
            ]

        auto = draw(make_runner(trace_cache, "auto"))
        called = []
        for name in self.FAST_PATHS:
            real = getattr(SetAssociativeCache, name)

            def spy(self, *args, _name=name, _real=real, **kwargs):
                called.append((_name, self.name))
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(SetAssociativeCache, name, spy)
        scalar = draw(make_runner(trace_cache, "scalar"))
        assert called == []
        assert scalar == auto


class PolicyL4(FourLCDesign):
    """4LC-EH4 with another replacement policy in its L4."""

    def __init__(self, policy, **kwargs):
        super().__init__(EDRAM, EH_CONFIGS["EH4"], **kwargs)
        self.policy = policy

    def sim_key(self):
        return f"{super().sim_key()}-{self.policy}"

    def l4_config(self):
        return dataclasses.replace(super().l4_config(), policy=self.policy)


class TestCountsPathScope:
    """Replays the counts-only path must leave to the loop: each is
    priced without it under auto and still equals the scalar engine.
    (DeepHybrid and NDM are covered by the family test above.)"""

    @staticmethod
    def priced(engine, runner_options, workload, make_design):
        runner = Runner(scale=SCALE, seed=5, engine=engine, **runner_options)
        design = make_design(scale=SCALE, reference=runner.reference)
        return runner.stats_for(design, workload).as_dict()

    def assert_loop_equals_scalar(self, monkeypatch, workload, make_design,
                                  **runner_options):
        counted = spy_counts(monkeypatch)
        auto = self.priced("auto", runner_options, workload, make_design)
        assert counted == []
        assert auto == self.priced(
            "scalar", runner_options, workload, make_design
        )

    @staticmethod
    def nmm(**kwargs):
        return NMMDesign(PCM, N_CONFIGS["N6"], **kwargs)

    def test_sampled_windows_keep_the_loop(self, trace_cache, workloads,
                                           monkeypatch):
        self.assert_loop_equals_scalar(
            monkeypatch, workloads[0], self.nmm,
            trace_cache_dir=trace_cache, sample="500:2000:5000",
        )

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_other_policies_keep_the_loop(self, trace_cache, workloads,
                                          monkeypatch, policy):
        self.assert_loop_equals_scalar(
            monkeypatch, workloads[0],
            lambda **kwargs: PolicyL4(policy, **kwargs),
            trace_cache_dir=trace_cache,
        )


@pytest.mark.resilience
class TestSweepResumeAcrossEngines:
    def test_parallel_sweep_and_cross_engine_resume(self, trace_cache,
                                                    workloads, tmp_path):
        """A --workers sweep run with auto matches scalar, and a
        journal written by a scalar run resumes cleanly under an auto
        runner (engine choice is deliberately not part of the cell
        key — the engines are bit-identical)."""
        designs = lambda runner: [
            NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE,
                      reference=runner.reference),
            FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE,
                         reference=runner.reference),
        ]
        journal = Journal(tmp_path / "engines.jsonl")
        sc_runner = make_runner(trace_cache, "scalar")
        sc = SweepExecutor(sc_runner, journal=journal, workers=2).run(
            designs(sc_runner), workloads
        )
        assert all(o.ok for o in sc.outcomes)

        auto_runner = make_runner(trace_cache, "auto")
        resumed = SweepExecutor(auto_runner, journal=journal, workers=2).run(
            designs(auto_runner), workloads
        )
        assert all(o.from_journal for o in resumed.outcomes)
        assert [o.key for o in resumed.outcomes] == [
            o.key for o in sc.outcomes
        ]

        fresh = run_sweep(
            make_runner(trace_cache, "auto"),
            designs(auto_runner), workloads, workers=2,
        )
        sc_fresh = run_sweep(
            make_runner(trace_cache, "scalar"),
            designs(sc_runner), workloads,
        )
        for a, b in zip(sc_fresh, fresh):
            assert dataclasses.asdict(a.evaluation) == dataclasses.asdict(
                b.evaluation
            )
