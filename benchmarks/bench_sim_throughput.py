"""Simulation-reuse throughput benchmark and regression gate.

Five measurements, one committed baseline (``BENCH_sim.json``):

1. **Sequential single-design throughput** — post-L3 requests per
   second through one design's lower levels, best-of-N. This is the
   number the perf gate protects: the CI ``perf-smoke`` job re-measures
   it and fails on a >15% regression against the committed baseline
   (after dividing out machine speed with a fixed calibration loop, so
   the gate survives hardware changes).
2. **Prefix-sharing speedup** — the paper's 4LC + 4LC-NVM
   (PCM/STT-RAM/FeRAM) cluster simulated (a) fully independently, one
   complete lower-level simulation per design, and (b) through a
   :class:`~repro.experiments.simplan.SimPlan`, which dedups identical
   sim keys and runs the shared eDRAM L4 once. Asserted >= 2x.
3. **Parallel sweep speedup** — a multi-workload sweep at ``workers=1``
   vs ``workers=2`` over a shared on-disk trace cache. Asserted
   >= 1.6x. Skipped in quick mode (CI), where the committed values
   stand in.
4. **Engine speedup** — the set-parallel vectorized LRU engine vs the
   scalar loop on ``SetAssociativeCache.process`` directly, for the
   reference L1 geometry under a random working set (the headline,
   asserted >= 2x) plus streaming-L1 and L2 context rows. Scalar and
   setpar trials are *interleaved* and the ratio taken between
   best-of-N times: container timing noise swings far more between
   runs than within one, and interleaving cancels it. Single-process
   NumPy — no CPU-count gate needed.
5. **Analytic-engine speedup** — a 24-cell joint capacity grid (deep
   hybrid: eDRAM L4 x DRAM cache, one shared page size) resolved by
   exact per-cell replay vs the analytic fast-path engine pricing
   every cell from a single reuse-distance profile. Two sectored
   page-cache levels per cell keep the exact side on the scalar loop —
   precisely the sweep shape the analytic screen exists for. Each
   analytic rep starts from a cold profile cache, so the one-pass
   profiling (and its persistence) is inside the timing. Asserted
   >= 10x on the committed baseline; fresh re-measurements apply the
   standard noise tolerance.

Run from the repo root to (re)write the baseline::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py

Run the CI gate (quick mode, read-only)::

    PYTHONPATH=src python -m pytest -q -m perf benchmarks/bench_sim_throughput.py

Environment knobs: ``REPRO_BENCH_SCALE`` (default 1/1024),
``REPRO_BENCH_REPS`` (default 3), ``REPRO_BENCH_QUICK=1`` to skip the
parallel measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import run_chain
from repro.cache.setassoc import SetAssociativeCache
from repro.designs.configs import EH_CONFIGS, EHConfig, N_CONFIGS, NConfig
from repro.designs.deephybrid import DeepHybridDesign
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.nmm import NMMDesign
from repro.experiments.runner import Runner
from repro.experiments.simplan import SimPlan
from repro.resilience.executor import SweepExecutor
from repro.tech.params import EDRAM, FERAM, PCM, STTRAM
from repro.telemetry.core import Telemetry, activate
from repro.trace.events import AccessBatch
from repro.units import KiB, MiB
from repro.workloads.registry import get_workload

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_sim.json"
DEFAULT_SCALE = 1.0 / 1024
DEFAULT_REPS = 3
#: CI gate: sequential throughput may not drop more than this.
REGRESSION_TOLERANCE = 0.15
MIN_PREFIX_SPEEDUP = 2.0
MIN_PARALLEL_SPEEDUP = 1.6
#: Floor for the *committed* engine headline (rewrites refuse to record
#: a baseline below it, and perf-smoke asserts the committed value).
#: Fresh re-measurements gate at this floor times
#: ``1 - REGRESSION_TOLERANCE`` — the same shared-host noise allowance
#: the sequential gate applies — because interleaved best-of-N trials
#: still move a few percent with co-tenant memory pressure.
MIN_ENGINE_SPEEDUP = 2.0
#: Floor for the committed analytic-vs-exact sweep speedup. The
#: analytic engine replaces O(designs * trace) replay with one profile
#: pass per page granularity plus O(levels) array math per design, so
#: an order of magnitude is the *minimum* acceptable return; fresh
#: re-measurements apply ``1 - REGRESSION_TOLERANCE`` on top.
MIN_ANALYTIC_SPEEDUP = 10.0
ENGINE_TRIALS = 10
SEQUENTIAL_WORKLOAD = "CG"
PARALLEL_WORKLOADS = ("CG", "SP", "Hashing", "BT")


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))


def bench_reps() -> int:
    return int(os.environ.get("REPRO_BENCH_REPS", DEFAULT_REPS))


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def sharing_cluster(reference, scale):
    """The acceptance sweep: one 4LC plus three 4LC-NVM points, all on
    the same eDRAM EH4 L4 (two sim keys, one shared level)."""
    return [
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=scale,
                     reference=reference),
        FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=scale,
                        reference=reference),
        FourLCNVMDesign(EDRAM, STTRAM, EH_CONFIGS["EH4"], scale=scale,
                        reference=reference),
        FourLCNVMDesign(EDRAM, FERAM, EH_CONFIGS["EH4"], scale=scale,
                        reference=reference),
    ]


def calibrate() -> float:
    """Machine-speed score: requests/s of a fixed, deterministic cache
    run. Committed and fresh throughputs are divided by this before
    comparison, so the perf gate measures the *code*, not the host.
    """
    rng = np.random.RandomState(0)
    addresses = (rng.randint(0, 1 << 22, size=200_000).astype(np.uint64)
                 << np.uint64(6))
    batch = AccessBatch(
        addresses,
        np.full(len(addresses), 64, dtype=np.uint32),
        (rng.rand(len(addresses)) < 0.3).astype(np.uint8),
    )
    best = float("inf")
    for _ in range(3):
        cache = SetAssociativeCache(CacheConfig("CAL", 256 * KiB, 8, 64))
        start = time.perf_counter()
        cache.process(batch)
        best = min(best, time.perf_counter() - start)
    return len(batch) / best


def measure_sequential(runner: Runner, reps: int) -> dict:
    """Best-of-``reps`` lower-level replay throughput for one design."""
    workload = get_workload(SEQUENTIAL_WORKLOAD)
    design = NMMDesign(PCM, N_CONFIGS["N6"], scale=runner.scale,
                       reference=runner.reference)
    trace = runner.prepare(workload)
    best = float("inf")
    for _ in range(reps):
        caches = design.lower_caches(runner.sim_engine)
        memory = design.memory()
        start = time.perf_counter()
        for chunk in trace.post_l3.chunks():
            run_chain(chunk, caches, memory)
        best = min(best, time.perf_counter() - start)
    requests = len(trace.post_l3)
    return {
        "workload": SEQUENTIAL_WORKLOAD,
        "design": design.sim_key(),
        "requests": requests,
        "sim_s": round(best, 6),
        "requests_per_sec": round(requests / best),
    }


def measure_prefix_sharing(runner: Runner, reps: int) -> dict:
    """Independent per-design simulation vs one shared-prefix plan."""
    workload = get_workload(SEQUENTIAL_WORKLOAD)
    designs = sharing_cluster(runner.reference, runner.scale)
    trace = runner.prepare(workload)

    independent = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for design in designs:
            caches = design.lower_caches(runner.sim_engine)
            memory = design.memory()
            for chunk in trace.post_l3.chunks():
                run_chain(chunk, caches, memory)
        independent = min(independent, time.perf_counter() - start)

    shared = float("inf")
    for _ in range(reps):
        plan = SimPlan(designs, runner.sim_engine)
        start = time.perf_counter()
        plan.execute(trace.post_l3)
        shared = min(shared, time.perf_counter() - start)

    plan = SimPlan(designs, runner.sim_engine)
    return {
        "workload": SEQUENTIAL_WORKLOAD,
        "designs": [d.name for d in designs],
        "sim_keys": plan.sim_count,
        "shared_levels": plan.shared_levels,
        "independent_s": round(independent, 6),
        "plan_s": round(shared, 6),
        "speedup": round(independent / shared, 3),
        "min_speedup": MIN_PREFIX_SPEEDUP,
    }


def engine_workloads() -> list[tuple[str, CacheConfig, AccessBatch]]:
    """The engine microbench inputs: (label, config, batch).

    The first entry is the headline the >=2x gate protects: the
    reference L1 geometry under a uniform-random working set much
    larger than the cache (the L1 hot loop the set-parallel engine was
    built for). The streaming row shares its run-collapse cost between
    both engines, so its ratio is structurally lower; the L2 row shows
    the geometry dependence. None of this is tied to CPU count — both
    engines are single-process NumPy.
    """
    rng = np.random.RandomState(42)
    n = 262_144
    rand_addrs = (rng.randint(0, 1 << 16, size=n).astype(np.uint64)
                  << np.uint64(6))
    rand_stores = (rng.rand(n) < 0.3).astype(np.uint8)
    sizes = np.full(n, 8, dtype=np.uint32)
    random_batch = AccessBatch(rand_addrs, sizes, rand_stores)

    base = rng.randint(0, 1 << 16, size=n // 4).astype(np.uint64)
    stream_addrs = np.repeat(base << np.uint64(6), 4)
    stream_stores = (rng.rand(n) < 0.3).astype(np.uint8)
    stream_batch = AccessBatch(stream_addrs, sizes, stream_stores)

    return [
        ("L1-random", CacheConfig("L1", 32 * KiB, 8, 64), random_batch),
        ("L1-stream4", CacheConfig("L1", 32 * KiB, 8, 64), stream_batch),
        ("L2-random", CacheConfig("L2", 256 * KiB, 8, 64), random_batch),
    ]


def measure_engines(trials: int = ENGINE_TRIALS) -> dict:
    """Interleaved scalar-vs-setpar timings of the process() hot loop.

    Every trial times a cold scalar cache then a cold ``engine="auto"``
    cache, which resolves to setpar on these plain LRU levels, on the
    same batch; the reported speedup is min(scalar)/min(setpar).
    Statistics equality across engines is asserted as a sanity check
    (the real bit-exactness proof lives in the test suite).
    """
    rows = []
    for label, config, batch in engine_workloads():
        best = {"scalar": float("inf"), "setpar": float("inf")}
        stats = {}
        for _ in range(trials):
            for eng, engine in (("scalar", "scalar"), ("setpar", "auto")):
                cache = SetAssociativeCache(config, engine)
                start = time.perf_counter()
                cache.process(batch)
                best[eng] = min(best[eng], time.perf_counter() - start)
                stats[eng] = cache.stats.as_dict()
        if stats["scalar"] != stats["setpar"]:
            raise RuntimeError(
                f"engine divergence on {label}: {stats}"
            )
        rows.append({
            "workload": label,
            "config": config.describe(),
            "requests": len(batch),
            "scalar_s": round(best["scalar"], 6),
            "setpar_s": round(best["setpar"], 6),
            "speedup": round(best["scalar"] / best["setpar"], 3),
        })
    return {
        "trials": trials,
        "workloads": rows,
        "headline": rows[0]["workload"],
        "headline_speedup": rows[0]["speedup"],
        "min_speedup": MIN_ENGINE_SPEEDUP,
    }


#: Joint capacity grid for the analytic measurement: eDRAM L4 size (MiB)
#: x DRAM-cache size (MiB), every cell at one shared page size so a
#: single reuse profile prices the whole grid.
ANALYTIC_L4_MIB = (4, 8, 16, 32)
ANALYTIC_DRAM_MIB = (64, 128, 256, 512, 1024, 2048)
ANALYTIC_PAGE_SIZE = 512


def analytic_sweep(reference, scale):
    """The co-design grid the analytic screen is built for: 24 deep
    hybrid points (eDRAM L4 x DRAM cache, one 512 B page size) whose
    two sectored page-cache levels keep the exact engine on the scalar
    loop — while the analytic engine amortizes one reuse profile over
    every cell."""
    return [
        DeepHybridDesign(
            EDRAM, PCM,
            EHConfig(f"B{i}", l4 * MiB, ANALYTIC_PAGE_SIZE),
            NConfig(f"C{j}", dram * MiB, ANALYTIC_PAGE_SIZE),
            scale=scale, reference=reference,
        )
        for i, l4 in enumerate(ANALYTIC_L4_MIB)
        for j, dram in enumerate(ANALYTIC_DRAM_MIB)
    ]


def measure_analytic(scale: float, reps: int) -> dict:
    """Exact replay of the co-design capacity grid vs the analytic engine.

    The exact side replays the post-L3 trace through each cell's two
    sectored lower levels, best-of-``reps`` over the whole grid. The
    analytic side gets a fresh runner per rep with the on-disk profile
    cache cleared first, so every rep pays the full one-pass profiling
    (and persistence) cost — not a warm-cache lookup. Both sides share
    one prepared trace; tracing and the upper-pyramid replay are
    outside both timings (they are identical either way).
    """
    import tempfile

    workload = get_workload(SEQUENTIAL_WORKLOAD)
    with tempfile.TemporaryDirectory() as trace_cache:
        exact_runner = Runner(scale=scale, seed=0,
                              trace_cache_dir=trace_cache)
        designs = analytic_sweep(exact_runner.reference, scale)
        trace = exact_runner.prepare(workload)

        exact = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            for design in designs:
                caches = design.lower_caches(exact_runner.sim_engine)
                memory = design.memory()
                for chunk in trace.post_l3.chunks():
                    run_chain(chunk, caches, memory)
            exact = min(exact, time.perf_counter() - start)

        analytic = float("inf")
        last_stats = None
        for _ in range(reps):
            runner = Runner(scale=scale, seed=0,
                            trace_cache_dir=trace_cache,
                            engine="analytic")
            runner.prepare(workload)  # cached trace load, untimed
            for stale in Path(trace_cache).glob("*.profile-*"):
                stale.unlink()  # each rep profiles from scratch
            sweep = analytic_sweep(runner.reference, scale)
            start = time.perf_counter()
            for design in sweep:
                last_stats = runner.stats_for(design, workload)
            analytic = min(analytic, time.perf_counter() - start)

        # Arrival accounting at the first lower level is exact by
        # contract — a mismatch here means the engines drifted apart
        # and the timing comparison is meaningless.
        exact_stats = exact_runner.stats_for(designs[-1], workload)
        first = len(exact_stats.levels) - len(designs[-1].lower_caches("auto")) - 1
        if (
            last_stats.levels[first].loads != exact_stats.levels[first].loads
            or last_stats.levels[first].stores
            != exact_stats.levels[first].stores
        ):
            raise RuntimeError(
                "analytic/exact arrival divergence on the co-design grid"
            )

    cells = len(designs)
    return {
        "workload": SEQUENTIAL_WORKLOAD,
        "designs": [d.name for d in designs],
        "requests": len(trace.post_l3),
        "exact_s": round(exact, 6),
        "analytic_s": round(analytic, 6),
        "exact_cell_s": round(exact / cells, 6),
        "analytic_cell_s": round(analytic / cells, 6),
        "speedup": round(exact / analytic, 3),
        "min_speedup": MIN_ANALYTIC_SPEEDUP,
    }


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def measure_parallel(scale: float, trace_cache: str) -> dict:
    """Wall-clock of the same multi-workload sweep at 1 and 2 workers.

    Traces are prewarmed into a shared on-disk cache first so both
    modes pay identical (near-zero) tracing costs and the comparison
    isolates simulation + evaluation work. On a single-CPU host two
    CPU-bound workers can only time-slice, so the measurement is
    recorded as skipped rather than committing a meaningless number —
    the floor is enforced wherever >= 2 cores exist (CI runners).
    """
    cpus = usable_cpus()
    if cpus < 2:
        return {
            "workloads": list(PARALLEL_WORKLOADS),
            "workers": 2,
            "cpus": cpus,
            "speedup": None,
            "min_speedup": MIN_PARALLEL_SPEEDUP,
            "skipped": "host exposes a single CPU; two workers can only "
                       "time-slice, so no speedup is measurable",
        }
    workloads = [get_workload(name) for name in PARALLEL_WORKLOADS]
    warm = Runner(scale=scale, seed=0, trace_cache_dir=trace_cache)
    for workload in workloads:
        warm.prepare(workload)

    def timed(workers: int) -> float:
        runner = Runner(scale=scale, seed=0, trace_cache_dir=trace_cache)
        designs = sharing_cluster(runner.reference, scale)
        executor = SweepExecutor(runner, workers=workers)
        start = time.perf_counter()
        result = executor.run(designs, workloads)
        elapsed = time.perf_counter() - start
        if not all(outcome.ok for outcome in result.outcomes):
            raise RuntimeError("benchmark sweep had non-ok cells")
        return elapsed

    workers1 = timed(1)
    workers2 = timed(2)
    return {
        "workloads": list(PARALLEL_WORKLOADS),
        "designs": [d.name for d in sharing_cluster(None, scale)],
        "workers": 2,
        "cpus": cpus,
        "workers1_s": round(workers1, 6),
        "workers2_s": round(workers2, 6),
        "speedup": round(workers1 / workers2, 3),
        "min_speedup": MIN_PARALLEL_SPEEDUP,
    }


def span_totals(registry) -> dict[str, float]:
    """Per-span-name total seconds from a registry snapshot."""
    totals: dict[str, float] = {}
    for entry in registry.snapshot():
        if entry["name"] == "repro_span_seconds":
            name = entry["labels"].get("name", "?")
            totals[name] = totals.get(name, 0.0) + entry["sum"]
    return totals


def load_baseline() -> dict | None:
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text())


def sequential_gate(baseline: dict, fresh: dict,
                    fresh_calibration: float) -> dict:
    """Compare normalized sequential throughput against the baseline."""
    base_norm = (baseline["sequential"]["requests_per_sec"]
                 / baseline["calibration_requests_per_sec"])
    fresh_norm = fresh["requests_per_sec"] / fresh_calibration
    ratio = fresh_norm / base_norm
    return {
        "baseline_normalized": round(base_norm, 6),
        "fresh_normalized": round(fresh_norm, 6),
        "ratio": round(ratio, 4),
        "floor": round(1.0 - REGRESSION_TOLERANCE, 4),
        "ok": ratio >= 1.0 - REGRESSION_TOLERANCE,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=str, default=str(BASELINE_PATH),
        help="output JSON path (default: the committed BENCH_sim.json)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate against the committed baseline instead of rewriting it",
    )
    args = parser.parse_args(argv)
    scale = bench_scale()
    reps = bench_reps()
    tel = Telemetry()
    runner = Runner(scale=scale, seed=0, telemetry=tel)

    print(f"calibrating machine speed ...", flush=True)
    calibration = calibrate()
    with activate(tel):
        print(f"sequential replay at scale {scale:g} ...", flush=True)
        sequential = measure_sequential(runner, reps)
        print(f"prefix sharing ({MIN_PREFIX_SPEEDUP:g}x floor) ...",
              flush=True)
        prefix = measure_prefix_sharing(runner, reps)
    print(f"engine microbench ({MIN_ENGINE_SPEEDUP:g}x floor, "
          f"{ENGINE_TRIALS} interleaved trials) ...", flush=True)
    engines = measure_engines()
    print(f"analytic sweep ({MIN_ANALYTIC_SPEEDUP:g}x floor) ...",
          flush=True)
    analytic = measure_analytic(scale, reps)

    result = {
        "scale": scale,
        "calibration_requests_per_sec": round(calibration),
        "sequential": sequential,
        "prefix_sharing": prefix,
        "engines": engines,
        "analytic": analytic,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "stage_seconds": {
            name: round(seconds, 6)
            for name, seconds in sorted(span_totals(tel.registry).items())
        },
    }

    failures = []
    if prefix["speedup"] < MIN_PREFIX_SPEEDUP:
        failures.append(
            f"prefix-sharing speedup {prefix['speedup']:.2f}x "
            f"< {MIN_PREFIX_SPEEDUP:g}x"
        )
    engine_floor = (
        MIN_ENGINE_SPEEDUP * (1.0 - REGRESSION_TOLERANCE)
        if args.check else MIN_ENGINE_SPEEDUP
    )
    if engines["headline_speedup"] < engine_floor:
        failures.append(
            f"engine speedup {engines['headline_speedup']:.2f}x "
            f"< {engine_floor:g}x on {engines['headline']}"
        )
    analytic_floor = (
        MIN_ANALYTIC_SPEEDUP * (1.0 - REGRESSION_TOLERANCE)
        if args.check else MIN_ANALYTIC_SPEEDUP
    )
    if analytic["speedup"] < analytic_floor:
        failures.append(
            f"analytic sweep speedup {analytic['speedup']:.2f}x "
            f"< {analytic_floor:g}x"
        )

    if quick_mode():
        print("quick mode: skipping the parallel sweep measurement")
    else:
        import tempfile

        print(f"parallel sweep ({MIN_PARALLEL_SPEEDUP:g}x floor) ...",
              flush=True)
        with tempfile.TemporaryDirectory() as trace_cache:
            result["parallel"] = measure_parallel(scale, trace_cache)
        speedup = result["parallel"]["speedup"]
        if speedup is not None and speedup < MIN_PARALLEL_SPEEDUP:
            failures.append(
                f"parallel speedup {speedup:.2f}x "
                f"< {MIN_PARALLEL_SPEEDUP:g}x"
            )

    baseline = load_baseline()
    if args.check:
        if baseline is None:
            print("FAIL: no committed BENCH_sim.json to gate against",
                  file=sys.stderr)
            return 1
        gate = sequential_gate(baseline, sequential, calibration)
        print(
            f"  sequential gate: ratio {gate['ratio']:.3f} "
            f"(floor {gate['floor']:.2f})"
        )
        if not gate["ok"]:
            failures.append(
                f"sequential throughput regressed: normalized ratio "
                f"{gate['ratio']:.3f} < {gate['floor']:.2f}"
            )
    elif failures:
        # Never record a baseline that fails its own floors — a later
        # --check run would gate against numbers already known bad.
        print(f"not writing {args.out}: floors failed", file=sys.stderr)
    else:
        if baseline is not None and "parallel" not in result:
            # Quick rewrites keep the committed parallel numbers.
            result["parallel"] = baseline.get("parallel")
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")

    print(f"  sequential: {sequential['requests_per_sec']:,} post-L3 req/s")
    print(f"  prefix sharing: {prefix['speedup']:.2f}x "
          f"({prefix['independent_s']:.3f}s -> {prefix['plan_s']:.3f}s)")
    for row in engines["workloads"]:
        print(f"  engine [{row['workload']}]: {row['speedup']:.2f}x "
              f"({row['scalar_s']:.3f}s -> {row['setpar_s']:.3f}s)")
    print(f"  analytic sweep ({len(analytic['designs'])} cells): "
          f"{analytic['speedup']:.2f}x "
          f"({analytic['exact_s']:.3f}s -> {analytic['analytic_s']:.3f}s)")
    par = result.get("parallel")
    if par and par.get("speedup") is not None:
        print(f"  workers=2: {par['speedup']:.2f}x "
              f"({par['workers1_s']:.3f}s -> {par['workers2_s']:.3f}s)")
    elif par:
        print(f"  workers=2: skipped ({par.get('skipped', 'no measurement')})")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: throughput floors hold")
    return 0


# -- pytest gate (CI: pytest -q -m perf benchmarks/bench_sim_throughput.py)

try:
    import pytest
except ImportError:  # pragma: no cover - standalone script use
    pytest = None

if pytest is not None:

    @pytest.fixture(scope="module")
    def gate_runner():
        baseline = load_baseline()
        if baseline is None:
            pytest.skip("no committed BENCH_sim.json")
        return baseline, Runner(scale=baseline["scale"], seed=0)

    @pytest.mark.perf
    def test_sequential_throughput_no_regression(gate_runner):
        baseline, runner = gate_runner
        fresh = measure_sequential(runner, bench_reps())
        gate = sequential_gate(baseline, fresh, calibrate())
        assert gate["ok"], (
            f"sequential throughput regressed: normalized ratio "
            f"{gate['ratio']} < {gate['floor']} "
            f"(fresh {fresh['requests_per_sec']:,} req/s vs committed "
            f"{baseline['sequential']['requests_per_sec']:,})"
        )

    @pytest.mark.perf
    def test_prefix_sharing_speedup_floor(gate_runner):
        baseline, runner = gate_runner
        fresh = measure_prefix_sharing(runner, bench_reps())
        assert fresh["speedup"] >= MIN_PREFIX_SPEEDUP, fresh

    @pytest.mark.perf
    def test_parallel_speedup_floor(gate_runner):
        if usable_cpus() < 2:
            pytest.skip("parallel speedup needs >= 2 CPUs")
        baseline, _ = gate_runner
        import tempfile

        with tempfile.TemporaryDirectory() as trace_cache:
            fresh = measure_parallel(baseline["scale"], trace_cache)
        assert fresh["speedup"] >= MIN_PARALLEL_SPEEDUP, fresh

    @pytest.mark.perf
    def test_engine_speedup_floor():
        """Fresh interleaved measurement of the setpar engine on the
        L1 hot loop; purely in-process, so it needs no CPU-count gate.
        The committed baseline carries the absolute
        ``MIN_ENGINE_SPEEDUP`` floor; the fresh re-measurement applies
        the standard noise tolerance on top."""
        fresh = measure_engines()
        floor = MIN_ENGINE_SPEEDUP * (1.0 - REGRESSION_TOLERANCE)
        assert fresh["headline_speedup"] >= floor, fresh

    @pytest.mark.perf
    def test_analytic_speedup_floor(gate_runner):
        """Fresh analytic-vs-exact sweep measurement: the fast path
        must stay an order of magnitude ahead (noise tolerance
        applied; the committed baseline carries the absolute floor)."""
        baseline, _ = gate_runner
        fresh = measure_analytic(baseline["scale"], bench_reps())
        floor = MIN_ANALYTIC_SPEEDUP * (1.0 - REGRESSION_TOLERANCE)
        assert fresh["speedup"] >= floor, fresh

    @pytest.mark.perf
    def test_committed_baseline_meets_the_floors():
        baseline = load_baseline()
        if baseline is None:
            pytest.skip("no committed BENCH_sim.json")
        assert baseline["prefix_sharing"]["speedup"] >= MIN_PREFIX_SPEEDUP
        engines = baseline.get("engines") or {}
        assert engines.get("headline_speedup", 0.0) >= MIN_ENGINE_SPEEDUP
        analytic = baseline.get("analytic") or {}
        assert analytic.get("speedup", 0.0) >= MIN_ANALYTIC_SPEEDUP
        parallel = baseline.get("parallel") or {}
        if parallel.get("speedup") is not None:
            assert parallel["speedup"] >= MIN_PARALLEL_SPEEDUP
        else:
            assert parallel.get("skipped"), (
                "committed parallel section must either meet the floor "
                "or carry an explicit skip reason"
            )


if __name__ == "__main__":
    sys.exit(main())
