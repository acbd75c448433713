"""Deep-hybrid (6-level) design tests."""

import pytest

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.deephybrid import DeepHybridDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.nmm import NMMDesign
from repro.errors import ConfigError
from repro.experiments.runner import Runner
from repro.tech.params import DRAM, EDRAM, HMC, PCM
from repro.units import MiB
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192


def make(scale=SCALE, reference=None, l4="EH1", dram="N6"):
    return DeepHybridDesign(
        EDRAM, PCM, EH_CONFIGS[l4], N_CONFIGS[dram],
        scale=scale, reference=reference,
    )


class TestConstruction:
    def test_six_levels(self):
        assert make().build("auto").level_names == [
            "L1", "L2", "L3", "L4", "DRAM$", "NVM",
        ]

    def test_bindings_cover_all_levels(self):
        design = make()
        bindings = design.bindings(1 << 30)
        assert set(bindings) == {"L1", "L2", "L3", "L4", "DRAM$", "NVM"}
        assert bindings["L4"].read_ns == EDRAM.read_delay_ns
        assert bindings["DRAM$"].read_ns == DRAM.read_delay_ns
        assert bindings["NVM"].static_w == 0.0

    def test_static_power_includes_both_caches(self):
        design = make()
        bindings = design.bindings(1 << 30)
        assert bindings["L4"].static_w == pytest.approx(
            EDRAM.static_power_w(16 * MiB)
        )
        assert bindings["DRAM$"].static_w == pytest.approx(
            DRAM.static_power_w(512 * MiB)
        )

    def test_granularity_validation(self):
        # DRAM pages must be >= L4 pages: EH6 (2 KB) over N9 (64 B) fails.
        with pytest.raises(ConfigError):
            DeepHybridDesign(
                EDRAM, PCM, EH_CONFIGS["EH6"], N_CONFIGS["N9"], scale=SCALE
            )

    def test_nonvolatile_l4_rejected(self):
        with pytest.raises(ConfigError):
            DeepHybridDesign(
                PCM, PCM, EH_CONFIGS["EH1"], N_CONFIGS["N6"], scale=SCALE
            )

    def test_sim_key_shared_across_techs(self):
        a = DeepHybridDesign(EDRAM, PCM, EH_CONFIGS["EH1"], N_CONFIGS["N6"],
                             scale=SCALE)
        b = DeepHybridDesign(HMC, PCM, EH_CONFIGS["EH1"], N_CONFIGS["N6"],
                             scale=SCALE)
        assert a.sim_key() == b.sim_key()


class TestBehaviour:
    @pytest.fixture(scope="class")
    def runner(self):
        return Runner(scale=SCALE, seed=8)

    def test_evaluates_end_to_end(self, runner):
        design = make(reference=runner.reference)
        ev = runner.evaluate(design, get_workload("CG"))
        assert 0.5 < ev.time_norm < 3.0
        assert ev.energy_j > 0

    def test_l4_filters_dram_cache_traffic(self, runner):
        design = make(reference=runner.reference)
        stats = runner.stats_for(design, get_workload("CG"))
        l4 = stats.level("L4")
        dram_cache = stats.level("DRAM$")
        assert dram_cache.accesses == l4.fills + l4.writebacks
        assert dram_cache.accesses < l4.accesses

    def test_faster_than_fourlcnvm_on_latency(self, runner):
        """Keeping the DRAM cache must soften 4LCNVM's NVM exposure."""
        workload = get_workload("Hashing")
        deep = runner.evaluate(make(reference=runner.reference), workload)
        fourlcnvm = runner.evaluate(
            FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH1"], scale=SCALE,
                            reference=runner.reference),
            workload,
        )
        assert deep.time_norm <= fourlcnvm.time_norm + 0.02

    def test_more_static_power_than_fourlcnvm(self, runner):
        """The price: the retained DRAM cache keeps refreshing."""
        workload = get_workload("CG")
        deep_raw = runner.raw_for(make(reference=runner.reference), workload)
        fourlcnvm_raw = runner.raw_for(
            FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH1"], scale=SCALE,
                            reference=runner.reference),
            workload,
        )
        assert deep_raw.static_power_w > fourlcnvm_raw.static_power_w
