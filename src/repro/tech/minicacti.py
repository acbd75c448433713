"""mini-CACTI: analytical SRAM cache latency / energy / leakage model.

The paper obtains L1/L2/L3 (and DRAM/eDRAM) parameters from CACTI 6.0.
CACTI itself is a large C++ circuit model; what its users consume are
three scalars per cache — access latency, dynamic energy per access,
and leakage power. This module provides an analytical fit with CACTI's
qualitative structure:

- Latency grows with the square root of capacity (H-tree wire delay
  dominates large arrays) plus a small associativity term (wider tag
  comparison and way muxing).
- Dynamic energy per access grows sub-linearly with capacity (bigger
  arrays drive longer bit/word lines but are partitioned into banks)
  and linearly with associativity (all ways of a set are read in a
  conventional parallel-access cache).
- Leakage is proportional to capacity.

Coefficients are fit to published CACTI 6.0 numbers for a 32 nm node so
the classic pyramid emerges (32 KB L1 ≈ 1 ns, 256 KB L2 ≈ 2–3 ns,
20 MB L3 ≈ 8–10 ns), consistent with the Sandy Bridge reference system.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import MiB

# Fit coefficients (32 nm, single bank-optimized organization).
_LAT_BASE_NS = 0.65  # decoder + sense amp floor
_LAT_WIRE_NS_PER_SQRT_MB = 1.75  # H-tree wire term
_LAT_ASSOC_NS = 0.02  # per-way comparison/mux term

_ENERGY_BASE_PJ_PER_BIT = 0.05  # sense + IO floor
_ENERGY_CAP_PJ_PER_BIT = 0.30  # capacity term coefficient
_ENERGY_CAP_EXPONENT = 0.30  # sub-linear growth (banking)
_ENERGY_ASSOC_PJ_PER_BIT = 0.012  # parallel way-read term

_LEAKAGE_MW_PER_MB = 40.0  # 32 nm high-performance SRAM leakage density


@dataclass(frozen=True)
class CactiEstimate:
    """The three scalars a CACTI run yields for one cache.

    Attributes:
        access_ns: access latency (applies to both reads and writes;
            SRAM is symmetric).
        energy_pj_per_bit: dynamic energy per bit transferred.
        leakage_w: total leakage power of the array.
    """

    access_ns: float
    energy_pj_per_bit: float
    leakage_w: float


@functools.lru_cache(maxsize=None)
def estimate_sram_cache(
    capacity_bytes: int,
    associativity: int,
    line_size: int = 64,
) -> CactiEstimate:
    """Estimate latency/energy/leakage of an SRAM cache.

    Args:
        capacity_bytes: total capacity.
        associativity: ways per set (drives parallel way-read energy).
        line_size: line size in bytes (only sanity-checked; the per-bit
            energy formulation already normalizes transfer width).

    Returns:
        A :class:`CactiEstimate`. Memoized: the estimate is a pure
        function of the arguments, and design bindings ask for the
        same few SRAM arrays thousands of times per run.
    """
    if capacity_bytes <= 0:
        raise ConfigError("capacity must be positive")
    if associativity <= 0:
        raise ConfigError("associativity must be positive")
    if line_size <= 0:
        raise ConfigError("line size must be positive")
    capacity_mb = capacity_bytes / MiB
    access_ns = (
        _LAT_BASE_NS
        + _LAT_WIRE_NS_PER_SQRT_MB * math.sqrt(capacity_mb)
        + _LAT_ASSOC_NS * associativity
    )
    energy = (
        _ENERGY_BASE_PJ_PER_BIT
        + _ENERGY_CAP_PJ_PER_BIT * capacity_mb**_ENERGY_CAP_EXPONENT
        + _ENERGY_ASSOC_PJ_PER_BIT * associativity
    )
    leakage_w = _LEAKAGE_MW_PER_MB * capacity_mb / 1000.0
    return CactiEstimate(
        access_ns=access_ns,
        energy_pj_per_bit=energy,
        leakage_w=leakage_w,
    )
