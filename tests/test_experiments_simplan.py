"""SimPlan tests: prefix-tree structure and bit-exact shared simulation."""

import dataclasses
import json

import pytest

from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssociativeCache
from repro.designs.base import config_key
from repro.designs.deephybrid import DeepHybridDesign
from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.ndm import NDMDesign
from repro.designs.nmm import NMMDesign
from repro.designs.reference import ReferenceDesign
from repro.experiments.runner import Runner
from repro.experiments.simplan import CapturingCache, SimPlan
from repro.partition.ranges import AddressRange
from repro.tech.params import EDRAM, FERAM, PCM, STTRAM
from repro.trace.events import AccessBatch
from repro.units import KiB
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192


def all_designs(reference):
    """Every built-in design family, including a shared-L4 cluster."""
    return [
        ReferenceDesign(scale=SCALE, reference=reference),
        NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE, reference=reference),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE,
                     reference=reference),
        FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=SCALE,
                        reference=reference),
        FourLCNVMDesign(EDRAM, STTRAM, EH_CONFIGS["EH4"], scale=SCALE,
                        reference=reference),
        FourLCNVMDesign(EDRAM, FERAM, EH_CONFIGS["EH4"], scale=SCALE,
                        reference=reference),
        DeepHybridDesign(EDRAM, PCM, EH_CONFIGS["EH1"], N_CONFIGS["N6"],
                         scale=SCALE, reference=reference),
        NDMDesign(PCM, [AddressRange(0x1000_0000, 0x2000_0000, "hot")],
                  scale=SCALE, reference=reference),
    ]


class TestConfigKey:
    def test_equal_configs_equal_keys(self):
        a = CacheConfig("L4", 4 * KiB, 4, 64)
        b = CacheConfig("L4", 4 * KiB, 4, 64)
        assert config_key(a) == config_key(b)

    def test_any_field_change_changes_key(self):
        base = CacheConfig("L4", 4 * KiB, 4, 64)
        assert config_key(base) != config_key(CacheConfig("L4", 8 * KiB, 4, 64))
        assert config_key(base) != config_key(
            CacheConfig("L4", 4 * KiB, 4, 64, hashed_sets=True)
        )


class TestCapturingCache:
    def test_captures_emissions_and_flush(self):
        config = CacheConfig("T", 4 * KiB, 4, 64)
        plain = SetAssociativeCache(config)
        capture = CapturingCache(config, "auto")
        # Enough conflicting blocks to force evictions and writebacks.
        addrs = [(i * 64) for i in range(512)] * 2
        batch = AccessBatch.from_lists(addrs, 64, [i % 2 for i in range(1024)])
        expect = [plain.process(batch), plain.flush_dirty()]
        got = [capture.process(batch), capture.flush_dirty()]
        for e, g in zip(expect, got):
            assert e.addresses.tolist() == g.addresses.tolist()
            assert e.is_store.tolist() == g.is_store.tolist()
        total = sum(len(e) for e in expect if e is not None)
        assert len(capture.captured) == total
        assert capture.stats.as_dict() == plain.stats.as_dict()


class TestPlanStructure:
    def test_l4_shared_across_4lc_and_4lcnvm(self):
        designs = [
            FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE),
            FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=SCALE),
        ]
        plan = SimPlan(designs, "auto")
        assert plan.sim_count == 2
        assert plan.shared_levels == 1
        assert "shared x2" in plan.describe()

    def test_sim_key_dedup_collapses_nvm_techs(self):
        designs = [
            FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=SCALE),
            FourLCNVMDesign(EDRAM, STTRAM, EH_CONFIGS["EH4"], scale=SCALE),
        ]
        plan = SimPlan(designs, "auto")
        assert plan.sim_count == 1
        assert plan.shared_levels == 0

    def test_lone_chain_stays_private(self):
        plan = SimPlan(
            [FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE)], "auto"
        )
        assert plan.shared_levels == 0
        assert "private x1" in plan.describe()

    def test_different_l4_configs_do_not_share(self):
        designs = [
            FourLCDesign(EDRAM, EH_CONFIGS["EH1"], scale=SCALE),
            FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE),
        ]
        assert SimPlan(designs, "auto").shared_levels == 0

    def test_nonstandard_cache_type_runs_direct(self):
        class OddCache(SetAssociativeCache):
            pass

        class OddDesign(FourLCDesign):
            def lower_caches(self, engine):
                return [OddCache(cache.config, engine)
                        for cache in super().lower_caches(engine)]

        designs = [
            OddDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE),
            FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=SCALE),
        ]
        plan = SimPlan(designs, "auto")
        assert plan.shared_levels == 0  # the odd chain cannot be regrouped
        assert "[direct]" in plan.describe()
        assert plan.sim_count == 2


class TestExactness:
    """Satellite: plan-shared stats must be bit-identical to independent
    full-hierarchy runs, for every built-in design, on >= 2 workloads."""

    @pytest.fixture(scope="class")
    def plain_runner(self):
        # local_factor=0 so even L1 matches a raw Hierarchy run.
        return Runner(scale=SCALE, seed=5, local_factor=0.0)

    @pytest.mark.parametrize("workload_name", ["CG", "SP"])
    def test_plan_matches_full_hierarchy_run(self, plain_runner,
                                             workload_name):
        workload = get_workload(workload_name)
        designs = all_designs(plain_runner.reference)
        plain_runner.simulate_designs(designs, workload)
        trace = plain_runner.prepare(workload)
        for design in designs:
            # The plan must have populated the cache: stats_for below is
            # a lookup, not an independent per-design simulation.
            assert (design.sim_key(), workload.name) in plain_runner._design_stats
            shared = plain_runner.stats_for(design, workload)
            full = design.build("auto").run(trace.result.stream)
            assert shared.references == full.references
            for shared_level, full_level in zip(shared.levels, full.levels):
                assert shared_level.as_dict() == full_level.as_dict(), (
                    f"{design.name}/{workload.name}/{shared_level.name}"
                )

    def test_plan_matches_full_hierarchy_run_with_drain(self):
        runner = Runner(scale=SCALE, seed=5, local_factor=0.0, drain=True)
        workload = get_workload("CG")
        designs = all_designs(runner.reference)
        runner.simulate_designs(designs, workload)
        trace = runner.prepare(workload)
        for design in designs:
            shared = runner.stats_for(design, workload)
            full = design.build("auto").run(trace.result.stream, drain=True)
            for shared_level, full_level in zip(shared.levels, full.levels):
                assert shared_level.as_dict() == full_level.as_dict(), (
                    f"{design.name}/{shared_level.name}"
                )

    def test_plan_matches_per_design_replay(self, tmp_path):
        """With the production local-factor path: batch-simulated stats
        equal an independent runner's per-design stats_for replay."""
        cache_dir = tmp_path / "traces"
        batch = Runner(scale=SCALE, seed=5, trace_cache_dir=cache_dir)
        solo = Runner(scale=SCALE, seed=5, trace_cache_dir=cache_dir)
        workload = get_workload("CG")
        designs = all_designs(batch.reference)
        batch.simulate_designs(designs, workload)
        for design in designs:
            a = batch.stats_for(design, workload)
            b = solo.stats_for(design, workload)
            assert dataclasses.asdict(a) == dataclasses.asdict(b), design.name


def test_sweep_telemetry_names_the_counts_engine(tmp_path, monkeypatch):
    """A telemetry sweep prices each cell's private one-cache lower
    chain by counts. Those levels never run ``process``, yet each still
    announces its engine once, as ``lru-counts``, and ``telemetry
    report``'s engine digest shows it."""
    from repro.experiments.cli import main
    from repro.telemetry.observatory import aggregate_run

    replayed = []
    real = Runner._replay_lower

    def recording(runner, post_l3, segments, factor, lower, memory):
        replayed.append([cache.name for cache in lower])
        return real(runner, post_l3, segments, factor, lower, memory)

    monkeypatch.setattr(Runner, "_replay_lower", recording)
    out = tmp_path / "telemetry"
    code = main([
        "--scale", str(SCALE), "--seed", "5", "--workloads", "CG",
        "--telemetry", str(out),
        "sweep", "--designs", "REF,NMM:PCM:N6,4LC:EDRAM:EH4",
        "--journal", str(tmp_path / "campaign.jsonl"),
    ])
    assert code == 0
    assert sorted(replayed) == [[], ["DRAM$"], ["L4"]]  # REF, NMM, 4LC
    events = [
        json.loads(line)
        for line in (out / "events.jsonl").read_text().splitlines()
    ]
    counts = [
        event for event in events
        if event.get("kind") == "engine_selected"
        and event.get("engine") == "lru-counts"
    ]
    assert sorted(event["level"] for event in counts) == ["DRAM$", "L4"]
    for event in counts:
        assert event["policy"] == "lru"
        assert event["sets"] >= 1 and event["ways"] == 8
    engines = {
        digest.level: digest.engine
        for digest in aggregate_run(out).engine_digests()
    }
    assert engines["DRAM$"] == engines["L4"] == "lru-counts"
