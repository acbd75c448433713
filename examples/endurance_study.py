#!/usr/bin/env python
"""NVM endurance study: wear, Start-Gap leveling, and device lifetime.

The paper defers "wearing, which is typical of NVM" to future work;
this example closes the loop. It drives a workload through the NMM
design, feeds the NVM-arriving write stream into per-line wear
tracking — with and without Start-Gap wear leveling — and estimates
device lifetime for PCM/STT-RAM/FeRAM cell endurances using the
performance model's full-scale write rate.

Run:  python examples/endurance_study.py [workload]
"""

import sys

from repro.designs.configs import N_CONFIGS
from repro.designs.nmm import NMMDesign
from repro.endurance.lifetime import CELL_ENDURANCE, estimate_lifetime
from repro.endurance.startgap import StartGapRemapper
from repro.endurance.writes import WriteTracker
from repro.experiments.runner import Runner
from repro.tech.params import PCM
from repro.workloads.registry import SUITE, get_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "Hashing"
    if name not in SUITE:
        raise SystemExit(f"unknown workload {name!r}; choose from {list(SUITE)}")

    runner = Runner(scale=1 / 1024, seed=0)
    workload = get_workload(name)
    design = NMMDesign(PCM, N_CONFIGS["N6"], scale=runner.scale,
                       reference=runner.reference)

    # Rebuild the design's lower hierarchy, capturing NVM-bound requests.
    trace = runner.prepare(workload)
    dram_cache = design.lower_caches(runner.sim_engine)[0]
    device_lines = max(
        1024, trace.traced_footprint_bytes // 64
    )
    base = trace.result.stream.stats().min_address

    plain = WriteTracker(device_lines, base_address=base)
    leveled = WriteTracker(
        device_lines,
        base_address=base,
        remapper=StartGapRemapper(device_lines),
    )
    for chunk in trace.post_l3.chunks():
        nvm_requests = dram_cache.process(chunk)
        plain.observe(nvm_requests)
        leveled.observe(nvm_requests)

    plain_stats = plain.stats()
    leveled_stats = leveled.stats()
    print(f"== NVM wear for {name} (NMM/N6, PCM) ==")
    print(f"  line writes          : {plain_stats.total_writes:,}")
    print(f"  without leveling     : imbalance x{plain_stats.imbalance:.1f} "
          f"(hottest line {plain_stats.max_writes} writes)")
    print(f"  with Start-Gap       : imbalance x{leveled_stats.imbalance:.1f} "
          f"(+{leveled.remapper.overhead_writes} overhead writes)")

    # Full-scale write rate from the model.
    ev = runner.evaluate(design, workload)
    stats = runner.stats_for(design, workload)
    nvm = stats.level("NVM")
    n_full = trace.ref_raw.amat_ns  # ns per ref (reference)
    upscale = (workload.info.t_ref_s / (trace.ref_raw.amat_ns * 1e-9)) / stats.references
    write_rate = nvm.stores * upscale / ev.time_s

    print(f"\n  modeled NVM write rate (full scale): {write_rate:,.0f} lines/s")
    print(f"\n== estimated lifetimes (footprint-sized device) ==")
    full_lines = workload.info.footprint_bytes // 64
    for tech_name, endurance in CELL_ENDURANCE.items():
        for label, wear, overhead in (
            ("no leveling", plain_stats, 0.0),
            ("Start-Gap  ", leveled_stats,
             1.0 / leveled.remapper.gap_write_interval),
        ):
            est = estimate_lifetime(
                wear,
                cell_endurance=endurance,
                device_lines=full_lines,
                write_rate_per_s=write_rate,
                overhead_fraction=overhead,
            )
            years = f"{est.years:,.1f}" if est.years < 1e6 else ">1e6"
            print(f"  {tech_name:8s} {label}: {years:>12s} years "
                  f"(leveling efficiency {est.leveling_efficiency:.2f})")


if __name__ == "__main__":
    main()
