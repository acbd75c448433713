"""Benchmarks for the future-work extensions (endurance, dynamic
partitioning, cost) — the studies the paper's Section VI defers."""

from conftest import once

from repro.designs.configs import N_CONFIGS
from repro.designs.nmm import NMMDesign
from repro.designs.reference import ReferenceDesign
from repro.endurance.startgap import StartGapRemapper
from repro.endurance.writes import WriteTracker
from repro.partition.dynamic import plan_dynamic_partition
from repro.partition.profiler import profile_ranges
from repro.tech.cost import design_capacities_gb, estimate_cost, memory_capital_cost
from repro.tech.params import DRAM, PCM


def test_endurance_startgap_leveling(benchmark, runner, workloads):
    """Start-Gap must reduce wear imbalance on real NVM write streams."""

    def run():
        results = {}
        design = NMMDesign(PCM, N_CONFIGS["N6"], scale=runner.scale,
                           reference=runner.reference)
        for workload in workloads:
            trace = runner.prepare(workload)
            dram_cache = design.lower_caches(runner.sim_engine)[0]
            lines = max(1024, trace.traced_footprint_bytes // 64)
            base = trace.result.stream.stats().min_address
            plain = WriteTracker(lines, base_address=base)
            leveled = WriteTracker(
                lines, base_address=base,
                remapper=StartGapRemapper(lines, gap_write_interval=16),
            )
            for chunk in trace.post_l3.chunks():
                out = dram_cache.process(chunk)
                plain.observe(out)
                leveled.observe(out)
            results[workload.name] = (
                plain.stats(), leveled.stats(),
                leveled.remapper.overhead_writes,
            )
        return results

    results = once(benchmark, run)
    print()
    for name, (plain, leveled, overhead) in results.items():
        print(f"  {name}: imbalance {plain.imbalance:.1f} -> "
              f"{leveled.imbalance:.1f} (+{overhead} overhead writes)")
        if plain.total_writes > 1000:
            assert leveled.imbalance <= plain.imbalance * 1.5


def test_dynamic_partitioning_vs_static(benchmark, runner, workloads):
    """Phase-aware placement with migration accounting over real
    post-L3 streams: report whether dynamic ever wins."""

    def run():
        results = {}
        for workload in workloads:
            trace = runner.prepare(workload)
            profiles = profile_ranges(
                trace.result.stream, trace.result.tracer, coverage=0.99
            )
            if not profiles:
                continue
            plan = plan_dynamic_partition(
                trace.post_l3,
                [p.range for p in profiles],
                dram_tech=DRAM,
                nvm_tech=PCM,
                dram_capacity=max(
                    4096, int(trace.traced_footprint_bytes * 0.25)
                ),
                n_phases=4,
            )
            results[workload.name] = plan
        return results

    results = once(benchmark, run)
    print()
    for name, plan in results.items():
        migrated = sum(p.migrated_bytes for p in plan.phases)
        print(f"  {name}: time gain x{plan.time_gain:.3f} "
              f"energy gain x{plan.energy_gain:.3f} "
              f"migrated {migrated:,} B over {len(plan.phases)} phases")
        # Dynamic may win or lose, but it must never be pathological.
        assert 0.2 < plan.time_gain < 5.0


def test_cost_model_capacity_argument(benchmark, runner, workloads):
    """TCO view of the paper's capacity story: NVM main memory lowers
    the capital cost of footprint-sized memory."""

    def run():
        results = {}
        for workload in workloads:
            footprint = workload.info.footprint_bytes
            ref_design = ReferenceDesign(scale=runner.scale,
                                         reference=runner.reference)
            nmm_design = NMMDesign(PCM, N_CONFIGS["N3"], scale=runner.scale,
                                   reference=runner.reference)
            ref_cost = estimate_cost(
                runner.evaluate(ref_design, workload),
                design_capacities_gb(ref_design, footprint),
            )
            nmm_cost = estimate_cost(
                runner.evaluate(nmm_design, workload),
                design_capacities_gb(nmm_design, footprint),
            )
            results[workload.name] = (ref_cost, nmm_cost)
        return results

    results = once(benchmark, run)
    print()
    for name, (ref_cost, nmm_cost) in results.items():
        print(f"  {name}: REF ${ref_cost.total_dollars:,.0f} "
              f"(capital ${ref_cost.capital_dollars:,.0f}) vs "
              f"NMM-PCM ${nmm_cost.total_dollars:,.0f} "
              f"(capital ${nmm_cost.capital_dollars:,.0f})")
        assert nmm_cost.capital_dollars < ref_cost.capital_dollars


def test_deep_hybrid_design_point(benchmark, runner, workloads):
    """The unexplored 6-level point (L4 + DRAM$ + NVM): it should
    recover most of 4LCNVM's runtime exposure while keeping most of its
    energy advantage over the DRAM baseline."""
    from repro.designs.configs import EH_CONFIGS
    from repro.designs.deephybrid import DeepHybridDesign
    from repro.designs.fourlcnvm import FourLCNVMDesign
    from repro.tech.params import EDRAM

    def run():
        designs = {
            "NMM": NMMDesign(PCM, N_CONFIGS["N6"], scale=runner.scale,
                             reference=runner.reference),
            "4LCNVM": FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH1"],
                                      scale=runner.scale,
                                      reference=runner.reference),
            "DEEP": DeepHybridDesign(EDRAM, PCM, EH_CONFIGS["EH1"],
                                     N_CONFIGS["N6"], scale=runner.scale,
                                     reference=runner.reference),
        }
        results = {}
        for label, design in designs.items():
            evaluations = [runner.evaluate(design, w) for w in workloads]
            results[label] = (
                sum(e.time_norm for e in evaluations) / len(evaluations),
                sum(e.energy_norm for e in evaluations) / len(evaluations),
            )
        return results

    results = once(benchmark, run)
    print()
    for label, (time_norm, energy_norm) in results.items():
        print(f"  {label:8s} time x{time_norm:.3f}  energy x{energy_norm:.3f}")
    # The deep hierarchy must soften 4LCNVM's NVM latency exposure...
    assert results["DEEP"][0] <= results["4LCNVM"][0] + 0.02
    # ...while keeping a clear energy win over the DRAM baseline.
    assert results["DEEP"][1] < 1.0
