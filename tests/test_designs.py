"""Design construction and binding tests."""

import pytest

from repro.cache.partition import PartitionedMemory
from repro.designs.base import ReferenceSystem
from repro.designs.configs import (
    EH_CONFIGS,
    N_CONFIGS,
    NDM_DRAM_CAPACITY,
    EHConfig,
    NConfig,
)
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.ndm import NDMDesign
from repro.designs.nmm import NMMDesign
from repro.designs.reference import ReferenceDesign
from repro.errors import ConfigError
from repro.partition.ranges import AddressRange
from repro.tech.params import DRAM, EDRAM, HMC, PCM, STTRAM
from repro.units import GiB, KiB, MiB

SCALE = 1 / 1024
FOOTPRINT = 2 * GiB


class TestReferenceSystem:
    def test_sandy_bridge_shape(self):
        ref = ReferenceSystem.sandy_bridge()
        assert ref.l1.capacity == 32 * KiB
        assert ref.l2.capacity == 256 * KiB
        # Per-core slice of the shared 20 MB L3.
        assert ref.l3.capacity == 20 * MiB // 8
        assert ref.line_size == 64

    def test_scaled_configs_preserve_pyramid(self):
        ref = ReferenceSystem.sandy_bridge()
        for scale in (1.0, 1 / 64, 1 / 256, 1 / 1024, 1 / 4096):
            l1, l2, l3 = ref.scaled_configs(scale)
            assert l1.capacity <= l2.capacity <= l3.capacity

    def test_l3_scales_linearly(self):
        ref = ReferenceSystem.sandy_bridge()
        _, _, l3 = ref.scaled_configs(1 / 256)
        assert l3.capacity == ref.l3.capacity // 256

    def test_bindings_cover_sram_levels(self):
        bindings = ReferenceSystem.sandy_bridge().bindings()
        assert set(bindings) == {"L1", "L2", "L3"}
        assert bindings["L1"].read_ns < bindings["L3"].read_ns

    def test_l3_latency_is_of_physical_array(self):
        """L3 latency reflects the full shared 20 MB structure."""
        from repro.tech.minicacti import estimate_sram_cache

        bindings = ReferenceSystem.sandy_bridge().bindings()
        full = estimate_sram_cache(20 * MiB, 20, 64)
        assert bindings["L3"].read_ns == pytest.approx(full.access_ns)


class TestConfigTables:
    def test_eh_count_and_values(self):
        assert len(EH_CONFIGS) == 8
        assert EH_CONFIGS["EH1"].capacity == 16 * MiB
        assert EH_CONFIGS["EH1"].page_size == 64
        assert EH_CONFIGS["EH6"].page_size == 2048
        assert EH_CONFIGS["EH7"].capacity == 8 * MiB
        assert EH_CONFIGS["EH8"].capacity == 4 * MiB  # documented deviation

    def test_n_count_and_values(self):
        assert len(N_CONFIGS) == 9
        assert N_CONFIGS["N1"].dram_capacity == 128 * MiB
        assert N_CONFIGS["N3"].dram_capacity == 512 * MiB
        assert N_CONFIGS["N6"].page_size == 512
        assert N_CONFIGS["N9"].page_size == 64

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            EHConfig("X", 0, 64)
        with pytest.raises(ConfigError):
            NConfig("X", 128, 100)

    def test_describe(self):
        assert "EH1" in EH_CONFIGS["EH1"].describe()
        assert "512B" in N_CONFIGS["N6"].describe()


class TestReferenceDesign:
    def test_hierarchy_shape(self):
        h = ReferenceDesign(scale=SCALE).build("auto")
        assert h.level_names == ["L1", "L2", "L3", "DRAM"]

    def test_dram_sized_to_footprint(self):
        d = ReferenceDesign(scale=SCALE)
        bindings = d.bindings(FOOTPRINT)
        assert bindings["DRAM"].static_w == pytest.approx(
            DRAM.static_power_w(FOOTPRINT)
        )

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            ReferenceDesign(scale=0)
        with pytest.raises(ConfigError):
            ReferenceDesign(scale=2.0)


class TestFourLC:
    def test_shape(self):
        d = FourLCDesign(EDRAM, EH_CONFIGS["EH1"], scale=SCALE)
        assert d.build("auto").level_names == ["L1", "L2", "L3", "L4", "DRAM"]

    def test_bindings(self):
        d = FourLCDesign(HMC, EH_CONFIGS["EH2"], scale=SCALE)
        b = d.bindings(FOOTPRINT)
        assert b["L4"].read_ns == HMC.read_delay_ns
        assert b["L4"].static_w == pytest.approx(
            HMC.static_power_w(16 * MiB)
        )
        assert b["DRAM"].read_ns == DRAM.read_delay_ns

    def test_nonvolatile_l4_rejected(self):
        with pytest.raises(ConfigError):
            FourLCDesign(PCM, EH_CONFIGS["EH1"], scale=SCALE)

    def test_sim_key_excludes_technology(self):
        a = FourLCDesign(EDRAM, EH_CONFIGS["EH1"], scale=SCALE)
        b = FourLCDesign(HMC, EH_CONFIGS["EH1"], scale=SCALE)
        assert a.sim_key() == b.sim_key()
        assert a.name != b.name

    def test_l4_is_sectored_and_hashed(self):
        d = FourLCDesign(EDRAM, EH_CONFIGS["EH6"], scale=SCALE)
        cfg = d.l4_config()
        assert cfg.sector_size == 64
        assert cfg.hashed_sets


class TestNMM:
    def test_shape(self):
        d = NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE)
        assert d.build("auto").level_names == ["L1", "L2", "L3", "DRAM$", "NVM"]

    def test_bindings(self):
        d = NMMDesign(PCM, N_CONFIGS["N3"], scale=SCALE)
        b = d.bindings(FOOTPRINT)
        assert b["NVM"].write_ns == 100.0
        assert b["NVM"].static_w == 0.0
        assert b["DRAM$"].static_w == pytest.approx(
            DRAM.static_power_w(512 * MiB)
        )

    def test_sim_key_shared_across_nvm_techs(self):
        a = NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE)
        b = NMMDesign(STTRAM, N_CONFIGS["N6"], scale=SCALE)
        assert a.sim_key() == b.sim_key()

    def test_page_smaller_than_line_rejected(self):
        with pytest.raises(ConfigError):
            NMMDesign(PCM, NConfig("X", 128 * MiB, 32), scale=SCALE)


class TestFourLCNVM:
    def test_shape_has_no_dram(self):
        d = FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH1"], scale=SCALE)
        names = d.build("auto").level_names
        assert names == ["L1", "L2", "L3", "L4", "NVM"]
        assert "DRAM" not in names

    def test_static_power_excludes_dram(self):
        d = FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH1"], scale=SCALE)
        b = d.bindings(FOOTPRINT)
        total_static = sum(x.static_w for x in b.values())
        ref_static = sum(
            x.static_w
            for x in ReferenceDesign(scale=SCALE).bindings(FOOTPRINT).values()
        )
        assert total_static < ref_static  # the design's selling point

    def test_nonvolatile_cache_rejected(self):
        with pytest.raises(ConfigError):
            FourLCNVMDesign(PCM, PCM, EH_CONFIGS["EH1"], scale=SCALE)


class TestNDM:
    def ranges(self):
        return [AddressRange(0x1000_0000, 0x2000_0000, "hot")]

    def test_shape(self):
        d = NDMDesign(PCM, self.ranges(), scale=SCALE)
        assert d.build("auto").level_names == [
            "L1", "L2", "L3", "DRAMpart", "NVMpart"
        ]

    def test_memory_is_partitioned(self):
        d = NDMDesign(PCM, self.ranges(), scale=SCALE)
        assert isinstance(d.memory(), PartitionedMemory)

    def test_routing_matches_ranges(self):
        d = NDMDesign(PCM, self.ranges(), scale=SCALE)
        memory = d.memory()
        import numpy as np

        routes = memory.route(
            np.array([0x1000_0000, 0x0500_0000], dtype=np.uint64)
        )
        assert routes.tolist() == [1, 0]

    def test_bindings(self):
        d = NDMDesign(STTRAM, self.ranges(), scale=SCALE)
        b = d.bindings(FOOTPRINT)
        assert b["NVMpart"].read_ns == STTRAM.read_delay_ns
        assert b["DRAMpart"].static_w == pytest.approx(
            DRAM.static_power_w(NDM_DRAM_CAPACITY)
        )

    def test_nvm_bytes(self):
        d = NDMDesign(PCM, self.ranges(), scale=SCALE)
        assert d.nvm_bytes() == 0x1000_0000

    def test_sim_key_includes_ranges_not_tech(self):
        a = NDMDesign(PCM, self.ranges(), scale=SCALE)
        b = NDMDesign(STTRAM, self.ranges(), scale=SCALE)
        c = NDMDesign(PCM, [], scale=SCALE)
        assert a.sim_key() == b.sim_key()
        assert a.sim_key() != c.sim_key()
