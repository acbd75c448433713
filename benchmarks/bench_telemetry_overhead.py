"""Pipeline baseline + telemetry-overhead benchmark.

Two jobs in one harness:

1. **Seed the bench trajectory** — run one NMM and one 4LC cell end to
   end (trace, shared upper simulation, design simulation, model) with
   an in-memory telemetry registry, and write the per-stage wall times
   and simulation throughput to ``BENCH_pipeline.json`` so future PRs
   can diff against a committed baseline.
2. **Prove disabled telemetry is free** — time the simulate loop as it
   was before the observer hook existed (no ``observer`` check, no
   span) against today's ``Hierarchy.run`` with telemetry disabled,
   and assert the overhead is below 2%.
3. **Gate run correlation** — time the enabled event path with and
   without a :class:`RunContext` (which stamps ``run`` / ``worker`` /
   ``seq`` onto every JSONL line), reporting per-event microseconds
   for both. Since the batched event spool landed (labels stamped and
   JSON serialized at drain, not per ``event()`` call) this is a hard
   gate: labelled events must cost <5% over plain ones.
4. **Price live serving** — time one CG pipeline cell with
   file-backed telemetry, ``sweep --serve`` off vs on with one
   connected SSE client consuming the event stream throughout, and
   gate the serve-enabled overhead under 3%. The server runs on its
   own daemon threads and tails on-disk files, so the simulated cell
   should pay (almost) nothing for being watched.
5. **Price the sampling profiler** — time one CG pipeline cell with
   file-backed telemetry, profiler off vs on at the default rate, and
   gate the enabled overhead under 10%. The profiler-disabled path is
   the plain telemetry path (no hot-loop checks), already gated at 2%
   by job 2.

Every paired measurement also reports an **A/A noise floor** — the
median spread between same-code timings inside each ABBA rep — and a
verdict labelling deltas inside that floor as ``noise`` rather than
signal (a -2.6% "speedup" from adding code is scheduler jitter, not
physics).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py

Environment knobs: ``REPRO_BENCH_SCALE`` (default 1/1024) and
``REPRO_BENCH_REPS`` (default 5; min-of-reps is reported).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.cache.hierarchy import Hierarchy, to_block_requests
from repro.cache.setassoc import check_request_sizes
from repro.designs.base import ReferenceSystem
from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.fourlc import FourLCDesign
from repro.designs.nmm import NMMDesign
from repro.experiments.runner import Runner
from repro.tech.params import get_technology
from repro.telemetry.core import RunContext, Telemetry, activate, new_run_id
from repro.workloads.registry import get_workload

DEFAULT_SCALE = 1.0 / 1024
DEFAULT_REPS = 12
OVERHEAD_LIMIT_PCT = 2.0
LABELLED_LIMIT_PCT = 5.0
SERVE_LIMIT_PCT = 3.0
PROFILING_LIMIT_PCT = 10.0
WORKLOAD = "CG"


def noise_floor_pct(same_code_times: list[float]) -> float:
    """A/A noise estimate from same-code timings paired within reps.

    ``same_code_times`` alternates the two same-code measurements each
    ABBA rep produced (``[a1, a2, a1, a2, ...]``); the median |ratio -
    1| between them is what a *zero-cost* change would measure on this
    machine right now. Deltas inside this floor are noise, not signal.
    """
    import statistics

    deltas = [
        abs(first / second - 1.0) * 100.0
        for first, second in zip(
            same_code_times[0::2], same_code_times[1::2]
        )
    ]
    return round(statistics.median(deltas), 3) if deltas else 0.0


def verdict(overhead_pct: float, floor_pct: float) -> str:
    """``noise`` when the measured delta sits inside the A/A floor."""
    return "noise" if abs(overhead_pct) <= floor_pct else "measured"


def simulate_no_hook(caches, memory, stream) -> int:
    """The pre-telemetry simulate loop: no observer check, no span.

    Byte-for-byte the control flow ``Hierarchy.process_batch`` had
    before the observer hook landed, so the measured delta is exactly
    what the hook costs when telemetry is disabled.
    """
    references = 0
    for batch in stream.chunks():
        requests = to_block_requests(batch, caches[0].block_size)
        references += len(requests)
        for cache in caches:
            check_request_sizes(requests, cache.block_size, cache.name)
            requests = cache.process(requests)
            if len(requests) == 0:
                break
        else:
            memory.process(requests)
    return references


def measure_overhead(stream, reference: ReferenceSystem, scale: float,
                     reps: int) -> dict:
    """Overhead of ``Hierarchy.run`` over the no-hook loop.

    Each repetition times the loops in an **ABBA** order (no-hook,
    hooked, hooked, no-hook), so slow thermal/frequency drift hits
    both loops equally; the reported overhead is the ratio of the two
    minima (each loop's noise-free floor), with the median of per-pair
    ratios kept as a secondary estimate. Scheduler noise on a shared
    machine is several percent per run — far more than the hook's real
    cost — so anything short of paired sampling flips sign from run to
    run.
    """
    import statistics

    from repro.cache.mainmem import MainMemory

    def timed(fn) -> float:
        caches = reference.build_caches(scale, "auto")
        memory = MainMemory("MEM")
        start = time.perf_counter()
        fn(caches, memory)
        return time.perf_counter() - start

    def run_no_hook(caches, memory):
        simulate_no_hook(caches, memory, stream)

    def run_hooked(caches, memory):
        Hierarchy(caches, memory).run(stream)

    no_hook_times, hooked_times, ratios = [], [], []
    for _ in range(reps):
        a1 = timed(run_no_hook)
        b1 = timed(run_hooked)
        b2 = timed(run_hooked)
        a2 = timed(run_no_hook)
        no_hook_times += [a1, a2]
        hooked_times += [b1, b2]
        ratios.append((b1 + b2) / (a1 + a2))
    overhead_pct = (min(hooked_times) / min(no_hook_times) - 1.0) * 100.0
    floor = noise_floor_pct(no_hook_times)
    return {
        "no_hook_s": round(min(no_hook_times), 6),
        "hooked_disabled_s": round(min(hooked_times), 6),
        "overhead_pct": round(overhead_pct, 3),
        "overhead_median_pct": round(
            (statistics.median(ratios) - 1.0) * 100.0, 3
        ),
        "noise_floor_pct": floor,
        "verdict": verdict(overhead_pct, floor),
        "limit_pct": OVERHEAD_LIMIT_PCT,
        "reps": reps,
    }


def measure_context_stamping(reps: int, events: int = 4000) -> dict:
    """Per-event cost of the correlated vs the plain enabled path.

    Both variants write real JSONL lines to a temp directory; the
    correlated one additionally stamps ``run`` / ``worker`` / ``seq``
    and resolves the thread-local cell scope. ABBA pairing as in
    :func:`measure_overhead`; min-of-reps is the reported floor.
    """
    import shutil
    import tempfile

    def timed(run_context) -> float:
        directory = tempfile.mkdtemp(prefix="bench-telemetry-")
        telemetry = Telemetry(directory, run_context=run_context)
        with telemetry.cell_scope("bench-cell"):
            start = time.perf_counter()
            for index in range(events):
                telemetry.event("bench", index=index)
            elapsed = time.perf_counter() - start
        telemetry.close()
        shutil.rmtree(directory, ignore_errors=True)
        return elapsed

    context = RunContext(new_run_id(), "worker-0")
    plain_times, labelled_times = [], []
    for _ in range(reps):
        a1 = timed(None)
        b1 = timed(context)
        b2 = timed(context)
        a2 = timed(None)
        plain_times += [a1, a2]
        labelled_times += [b1, b2]
    plain = min(plain_times)
    labelled = min(labelled_times)
    overhead_pct = (labelled / plain - 1.0) * 100.0
    floor = noise_floor_pct(plain_times)
    return {
        "events": events,
        "plain_event_us": round(plain / events * 1e6, 3),
        "labelled_event_us": round(labelled / events * 1e6, 3),
        "overhead_pct": round(overhead_pct, 3),
        "noise_floor_pct": floor,
        "verdict": verdict(overhead_pct, floor),
        "limit_pct": LABELLED_LIMIT_PCT,
        "reps": reps,
    }


def measure_serving(scale: float, reps: int) -> dict:
    """Whole-cell cost of live HTTP/SSE serving with one watcher.

    Times one NMM/CG cell end to end with file-backed telemetry,
    ``TelemetryServer`` off vs on — the on variant with a connected
    SSE client draining ``/events`` for the whole cell, the worst
    realistic single-watcher load. ABBA-paired as in
    :func:`measure_overhead`. The server tails the on-disk event log
    from its own daemon threads, so the only cost visible to the
    simulated cell is scheduler pressure; the gate keeps it under 3%.
    """
    import shutil
    import tempfile
    import threading
    import urllib.request

    from repro.telemetry.live import TelemetryServer

    workload = get_workload(WORKLOAD)

    def timed(serve: bool) -> float:
        directory = tempfile.mkdtemp(prefix="bench-serve-")
        telemetry = Telemetry(
            directory, run_context=RunContext(new_run_id())
        )
        server = None
        client = None
        stop = threading.Event()
        if serve:
            server = TelemetryServer(
                directory, telemetry=telemetry,
                poll_interval_s=0.05,
            ).start()

            def consume() -> None:
                try:
                    with urllib.request.urlopen(
                        server.url + "/events", timeout=30
                    ) as response:
                        while not stop.is_set():
                            if not response.readline():
                                break
                except OSError:
                    pass

            client = threading.Thread(target=consume, daemon=True)
            client.start()
        runner = Runner(scale=scale, seed=0, telemetry=telemetry)
        design = NMMDesign(
            get_technology("PCM"), N_CONFIGS["N6"],
            scale=scale, reference=runner.reference,
        )
        with activate(telemetry):
            start = time.perf_counter()
            runner.evaluate(design, workload)
            elapsed = time.perf_counter() - start
        stop.set()
        if server is not None:
            server.stop()
        if client is not None:
            client.join(timeout=5.0)
        telemetry.close()
        shutil.rmtree(directory, ignore_errors=True)
        return elapsed

    off_times, on_times = [], []
    for _ in range(reps):
        a1 = timed(False)
        b1 = timed(True)
        b2 = timed(True)
        a2 = timed(False)
        off_times += [a1, a2]
        on_times += [b1, b2]
    off = min(off_times)
    on = min(on_times)
    overhead_pct = (on / off - 1.0) * 100.0
    floor = noise_floor_pct(off_times)
    return {
        "serve_off_s": round(off, 6),
        "serve_on_s": round(on, 6),
        "overhead_pct": round(overhead_pct, 3),
        "noise_floor_pct": floor,
        "verdict": verdict(overhead_pct, floor),
        "limit_pct": SERVE_LIMIT_PCT,
        "sse_clients": 1,
        "reps": reps,
    }


def measure_profiling(scale: float, reps: int) -> dict:
    """Whole-cell cost of the sampling profiler at the default rate.

    Times one NMM/CG cell end to end (trace generation included) with
    file-backed telemetry, profiler off vs profiler on at
    :data:`~repro.telemetry.core.DEFAULT_HZ`, ABBA-paired as in
    :func:`measure_overhead`. The profiler adds a sampler thread plus
    a record drain at span/cell boundaries; the gate keeps the
    end-to-end cost under 10%. There is no profiler-disabled gate here
    because the disabled path *is* the plain telemetry path (nothing
    in the hot loop consults the profiler), which job 2 gates at 2%.
    """
    import shutil
    import tempfile

    from repro.telemetry.core import DEFAULT_HZ

    workload = get_workload(WORKLOAD)
    samples = 0

    def timed(hz) -> float:
        nonlocal samples
        directory = tempfile.mkdtemp(prefix="bench-profiling-")
        telemetry = Telemetry(
            directory, run_context=RunContext(new_run_id())
        )
        if hz is not None:
            telemetry.enable_profiling(hz)
        runner = Runner(scale=scale, seed=0, telemetry=telemetry)
        design = NMMDesign(
            get_technology("PCM"), N_CONFIGS["N6"],
            scale=scale, reference=runner.reference,
        )
        with activate(telemetry):
            start = time.perf_counter()
            runner.evaluate(design, workload)
            elapsed = time.perf_counter() - start
        if hz is not None and telemetry.profile is not None:
            samples = max(samples, telemetry.profile.samples)
        telemetry.close()
        shutil.rmtree(directory, ignore_errors=True)
        return elapsed

    off_times, on_times = [], []
    for _ in range(reps):
        a1 = timed(None)
        b1 = timed(DEFAULT_HZ)
        b2 = timed(DEFAULT_HZ)
        a2 = timed(None)
        off_times += [a1, a2]
        on_times += [b1, b2]
    off = min(off_times)
    on = min(on_times)
    overhead_pct = (on / off - 1.0) * 100.0
    floor = noise_floor_pct(off_times)
    return {
        "hz": DEFAULT_HZ,
        "profiler_off_s": round(off, 6),
        "profiler_on_s": round(on, 6),
        "enabled_overhead_pct": round(overhead_pct, 3),
        "noise_floor_pct": floor,
        "verdict": verdict(overhead_pct, floor),
        "samples": samples,
        "enabled_limit_pct": PROFILING_LIMIT_PCT,
        "disabled_gate": (
            "covered by overhead.overhead_pct: the profiler-off path "
            "is the plain telemetry path"
        ),
        "reps": reps,
    }


def span_totals(registry) -> dict[str, float]:
    """Per-span-name total seconds from a registry snapshot."""
    totals: dict[str, float] = {}
    for entry in registry.snapshot():
        if entry["name"] == "repro_span_seconds":
            name = entry["labels"].get("name", "?")
            totals[name] = totals.get(name, 0.0) + entry["sum"]
    return totals


def run_cells(scale: float) -> dict:
    """One NMM and one 4LC cell with stage spans recorded in memory."""
    telemetry = Telemetry()  # no directory: registry + spans only
    runner = Runner(scale=scale, seed=0, telemetry=telemetry)
    workload = get_workload(WORKLOAD)
    designs = [
        NMMDesign(get_technology("PCM"), N_CONFIGS["N6"],
                  scale=scale, reference=runner.reference),
        FourLCDesign(get_technology("EDRAM"), EH_CONFIGS["EH4"],
                     scale=scale, reference=runner.reference),
    ]
    cells = {}
    with activate(telemetry):  # hierarchy spans resolve the active one
        for design in designs:
            started = time.perf_counter()
            evaluation = runner.evaluate(design, workload)
            cells[design.name] = {
                "wall_s": round(time.perf_counter() - started, 6),
                "time_norm": round(evaluation.time_norm, 6),
                "energy_norm": round(evaluation.energy_norm, 6),
                "edp_norm": round(evaluation.edp_norm, 6),
            }
    stages = {
        name: round(seconds, 6)
        for name, seconds in sorted(span_totals(telemetry.registry).items())
    }
    references = runner.prepare(workload).references
    sim_s = stages.get("hierarchy.run", 0.0)
    return {
        "workload": WORKLOAD,
        "cells": cells,
        "stage_seconds": stages,
        "references": references,
        "refs_per_sec": round(references / sim_s) if sim_s else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=str, default="BENCH_pipeline.json",
        help="output JSON path (default: BENCH_pipeline.json)",
    )
    args = parser.parse_args(argv)
    scale = float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))
    reps = int(os.environ.get("REPRO_BENCH_REPS", DEFAULT_REPS))

    print(f"pipeline cells at scale {scale:g} ...", flush=True)
    result = run_cells(scale)

    print("telemetry-disabled overhead ...", flush=True)
    workload = get_workload(WORKLOAD)
    stream = workload.trace(scale=scale, seed=0).stream
    result["overhead"] = measure_overhead(
        stream, ReferenceSystem.sandy_bridge(), scale, reps
    )

    print("run-context stamping cost ...", flush=True)
    result["run_context"] = measure_context_stamping(reps)

    print("live-serving cost ...", flush=True)
    result["serving"] = measure_serving(scale, reps)

    print("sampling-profiler cost ...", flush=True)
    result["profiling"] = measure_profiling(scale, reps)
    result["scale"] = scale

    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    for name, seconds in result["stage_seconds"].items():
        print(f"  {name:24s} {seconds:8.3f}s")
    overhead = result["overhead"]
    print(
        f"  disabled-telemetry overhead: {overhead['overhead_pct']:+.2f}% "
        f"(no-hook {overhead['no_hook_s']:.3f}s, "
        f"hooked {overhead['hooked_disabled_s']:.3f}s, "
        f"noise floor {overhead['noise_floor_pct']:.2f}% -> "
        f"{overhead['verdict']}, limit {OVERHEAD_LIMIT_PCT:g}%)"
    )
    stamping = result["run_context"]
    print(
        f"  correlated event path: {stamping['plain_event_us']:.1f}us -> "
        f"{stamping['labelled_event_us']:.1f}us per event "
        f"({stamping['overhead_pct']:+.1f}% with run/worker/seq stamping, "
        f"noise floor {stamping['noise_floor_pct']:.2f}% -> "
        f"{stamping['verdict']}, limit {LABELLED_LIMIT_PCT:g}%)"
    )
    serving = result["serving"]
    print(
        f"  live serving (1 SSE client): {serving['serve_off_s']:.3f}s -> "
        f"{serving['serve_on_s']:.3f}s per cell "
        f"({serving['overhead_pct']:+.1f}%, noise floor "
        f"{serving['noise_floor_pct']:.2f}% -> {serving['verdict']}, "
        f"limit {SERVE_LIMIT_PCT:g}%)"
    )
    profiling = result["profiling"]
    print(
        f"  sampling profiler at {profiling['hz']:g}Hz: "
        f"{profiling['profiler_off_s']:.3f}s -> "
        f"{profiling['profiler_on_s']:.3f}s per cell "
        f"({profiling['enabled_overhead_pct']:+.1f}%, "
        f"{profiling['samples']} samples, noise floor "
        f"{profiling['noise_floor_pct']:.2f}% -> {profiling['verdict']}, "
        f"limit {PROFILING_LIMIT_PCT:g}%)"
    )
    def gate(label: str, pct: float, limit: float, floor: float) -> bool:
        """One overhead gate; returns True on a real (above-noise)
        breach. A reading past the limit but inside the A/A floor has
        no statistical power either way — reported, not failed."""
        if pct < limit:
            return False
        if pct <= floor:
            print(
                f"note: {label} measured {pct:+.2f}% (limit {limit:g}%) "
                f"but the A/A noise floor is {floor:.2f}% — "
                "inconclusive, not failing the gate"
            )
            return False
        print(
            f"FAIL: {label} overhead {pct:+.2f}% exceeds the "
            f"{limit:g}% limit (noise floor {floor:.2f}%)",
            file=sys.stderr,
        )
        return True

    failed = gate(
        "disabled-telemetry hook", overhead["overhead_pct"],
        OVERHEAD_LIMIT_PCT, overhead["noise_floor_pct"],
    )
    failed |= gate(
        "labelled-event", stamping["overhead_pct"],
        LABELLED_LIMIT_PCT, stamping["noise_floor_pct"],
    )
    failed |= gate(
        "live-serving", serving["overhead_pct"],
        SERVE_LIMIT_PCT, serving["noise_floor_pct"],
    )
    failed |= gate(
        "sampling-profiler", profiling["enabled_overhead_pct"],
        PROFILING_LIMIT_PCT, profiling["noise_floor_pct"],
    )
    if failed:
        return 1
    print("ok: disabled, labelled, served, and profiled paths are all "
          "within their overhead budgets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
