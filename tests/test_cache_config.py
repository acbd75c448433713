"""CacheConfig validation and scaling tests."""

from dataclasses import fields

import pytest

from repro.cache.config import CacheConfig, supports_setpar
from repro.cache.setassoc import SetAssociativeCache
from repro.errors import ConfigError
from repro.units import KiB, MiB


class TestValidation:
    def test_valid_config(self):
        cfg = CacheConfig("L1", 32 * KiB, 8, 64)
        assert cfg.num_sets == 64
        assert cfg.num_blocks == 512

    def test_sandy_bridge_l3_20way(self):
        cfg = CacheConfig("L3", 20 * MiB, 20, 64)
        assert cfg.num_sets == 16384  # power of two by design

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", 0, 8, 64)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", 32 * KiB, 8, 48)

    def test_capacity_not_divisible_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", 1000, 8, 64)

    def test_non_power_of_two_sets_rejected(self):
        # 3 sets: capacity = 3 * 8 * 64.
        with pytest.raises(ConfigError):
            CacheConfig("X", 3 * 8 * 64, 8, 64)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", 32 * KiB, 8, 64, policy="plru")

    def test_sector_larger_than_block_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", 32 * KiB, 8, 64, sector_size=128)

    def test_sector_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig("X", 32 * KiB, 8, 1024, sector_size=96)

    def test_valid_sectored_config(self):
        cfg = CacheConfig("P", 1 * MiB, 8, 4096, sector_size=64)
        assert cfg.sector_size == 64


class TestScaling:
    def test_scale_by_quarter(self):
        cfg = CacheConfig("L1", 32 * KiB, 8, 64).scaled(0.25)
        assert cfg.capacity == 8 * KiB
        assert cfg.associativity == 8
        assert cfg.block_size == 64

    def test_scale_never_below_one_set(self):
        cfg = CacheConfig("L1", 32 * KiB, 8, 64).scaled(1e-9)
        assert cfg.capacity == 8 * 64  # one set

    def test_scaled_config_is_valid(self):
        for scale in (0.5, 0.1, 0.01, 1 / 256, 1 / 4096):
            cfg = CacheConfig("L3", 20 * MiB, 20, 64).scaled(scale)
            assert cfg.num_sets >= 1

    def test_scale_identity(self):
        cfg = CacheConfig("L2", 256 * KiB, 8, 64)
        assert cfg.scaled(1.0).capacity == cfg.capacity

    def test_invalid_factor(self):
        with pytest.raises(ConfigError):
            CacheConfig("L2", 256 * KiB, 8, 64).scaled(0)

    def test_describe(self):
        text = CacheConfig("L3", 20 * MiB, 20, 64).describe()
        assert "L3" in text and "20MB" in text and "20-way" in text


class TestEngineField:
    """The engine is an argument of the simulated cache, not a field
    of the config it simulates."""

    def test_default_engine_is_auto(self):
        cfg = CacheConfig("L1", 32 * KiB, 8, 64)
        assert "engine" not in {f.name for f in fields(cfg)}
        assert SetAssociativeCache(cfg).engine == "setpar"
        assert not SetAssociativeCache(cfg).scalar_only

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(CacheConfig("L1", 32 * KiB, 8, 64), "simd")

    def test_setpar_on_unsupported_level_rejected(self):
        """``setpar`` is a resolved engine label, not a setting, so it
        is unsupported everywhere: no level accepts it, not even the
        plain LRU level it serves."""
        for block, sector, policy in ((64, None, "lru"), (64, None, "fifo"),
                                      (64, None, "random"), (4096, 64, "lru")):
            config = CacheConfig("L", 256 * KiB, 8, block, sector_size=sector,
                                 policy=policy)
            with pytest.raises(ConfigError):
                SetAssociativeCache(config, "setpar")

    def test_supports_setpar(self):
        assert supports_setpar(CacheConfig("L1", 32 * KiB, 8, 64))
        assert not supports_setpar(
            CacheConfig("L4", 256 * KiB, 8, 4096, sector_size=64)
        )
        assert not supports_setpar(
            CacheConfig("L1", 32 * KiB, 8, 64, policy="random")
        )
        # FIFO runs the per-sector policy loop.
        assert not supports_setpar(
            CacheConfig("L1", 32 * KiB, 8, 64, policy="fifo")
        )
        # A sector size equal to the block size is not sectoring.
        assert supports_setpar(
            CacheConfig("L1", 32 * KiB, 8, 64, sector_size=64)
        )
