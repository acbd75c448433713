"""Tables 1–4 as structured data.

Each ``tableN`` returns ``(headers, rows)`` ready for
:func:`repro.experiments.render.ascii_table`, sourced from the same
registries the simulator itself uses — so the printed tables are, by
construction, the parameters the experiments ran with.
"""

from __future__ import annotations

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.tech.params import DRAM, EDRAM, FERAM, HMC, PCM, STTRAM
from repro.units import format_bytes
from repro.workloads.registry import SUITE

#: Table 1 row order as published (DRAM is printed as "RAM").
_TABLE1_ORDER = [DRAM, PCM, STTRAM, FERAM, EDRAM, HMC]


def table1() -> tuple[list[str], list[list[str]]]:
    """Table 1: characteristics of different memory technologies."""
    headers = [
        "Memory Technology",
        "Read delay (ns)",
        "Write delay (ns)",
        "Read energy (pJ/bit)",
        "Write energy (pJ/bit)",
        "Static power (mW/MB)",
    ]
    rows = []
    for tech in _TABLE1_ORDER:
        name = "RAM" if tech is DRAM else tech.name
        rows.append(
            [
                name,
                f"{tech.read_delay_ns:g}",
                f"{tech.write_delay_ns:g}",
                f"{tech.read_energy_pj_per_bit:g}",
                f"{tech.write_energy_pj_per_bit:g}",
                f"{tech.static_mw_per_mb:g}",
            ]
        )
    return headers, rows


def table2() -> tuple[list[str], list[list[str]]]:
    """Table 2: eDRAM/HMC configurations (capacity per core)."""
    headers = ["Design name", "eDRAM capacity (MB)", "Page size (B)"]
    rows = [
        [cfg.name, str(cfg.capacity // (1024 * 1024)), str(cfg.page_size)]
        for cfg in EH_CONFIGS.values()
    ]
    return headers, rows


def table3() -> tuple[list[str], list[list[str]]]:
    """Table 3: NMM configurations (capacity per core)."""
    headers = ["Design Name", "DRAM capacity (MB)", "Page size"]
    rows = [
        [
            cfg.name,
            str(cfg.dram_capacity // (1024 * 1024)),
            format_bytes(cfg.page_size),
        ]
        for cfg in N_CONFIGS.values()
    ]
    return headers, rows


def table4() -> tuple[list[str], list[list[str]]]:
    """Table 4: characteristics of the benchmarks."""
    headers = ["Suite", "Benchmark", "Footprint/Core (GB)", "Time (s)", "Inputs"]
    rows = []
    for info in SUITE.values():
        rows.append(
            [
                info.suite,
                info.name,
                f"{info.footprint_gb:g}",
                f"{info.t_ref_s:g}",
                info.inputs,
            ]
        )
    return headers, rows
