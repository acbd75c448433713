"""Trace store benchmark and regression gate.

Three measurements, one committed baseline (``BENCH_trace.json``):

1. **Load throughput** — reading a cached trace back, an eager load
   (``v1``) vs the store (``v2``). The eager baseline, built here with
   plain numpy, hashes a whole compressed ``.npz`` against its SHA-256
   and decompresses every event into private memory; the store opens
   its mmap lazily (prelude + header digest only). The committed floor
   asserts the lazy open is >= 5x faster than the eager load; the CI
   gate also re-measures the store's *verified scan* (every chunk
   digest checked,
   every byte mapped) and fails on a >15% normalized regression
   against the baseline, after dividing out machine speed with a
   fixed SHA-256 calibration loop.
2. **Arena memory ratio** — four forked workers attach one published
   trace and touch every byte while all four are alive; each reports
   the Pss growth from ``/proc/self/smaps_rollup``. Shared pages split
   their cost across attachers, so the summed growth of an
   arena-backed sweep stays at ~1 single copy (committed floor:
   <= 1.2x) where per-worker eager loads pay ~1 copy *each* (recorded
   alongside, ~4x). Hosts without ``smaps_rollup`` record an honest
   skip reason instead of a number.
3. **Sampled fidelity** — per design family (NMM, 4LC, 4LC-NVM), the
   absolute per-level hit-rate error of a ``warmup:window:stride``
   sampled simulation against the exact replay of the same trace.
   Committed floor: max error <= 0.02 in every family, with the
   measured fraction recorded so the trade is visible.

Run from the repo root to (re)write the baseline::

    PYTHONPATH=src python benchmarks/bench_trace_store.py

Run the CI gate (quick mode, read-only)::

    PYTHONPATH=src python -m pytest -q -m perf benchmarks/bench_trace_store.py

Environment knobs: ``REPRO_BENCH_SCALE`` (default 1/1024),
``REPRO_BENCH_REPS`` (default 3).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_trace.json"
DEFAULT_SCALE = 1.0 / 1024
DEFAULT_REPS = 3
#: CI gate: normalized v2 verified-scan throughput may not drop more.
REGRESSION_TOLERANCE = 0.15
#: Committed floor: lazy v2 open vs full v1 load.
MIN_OPEN_SPEEDUP = 5.0
#: Committed ceiling: summed worker Pss growth over one trace copy.
MAX_ARENA_RATIO = 1.2
#: Committed ceiling: sampled-vs-exact per-level hit-rate error.
MAX_SAMPLE_ERROR = 0.02
ARENA_WORKERS = 4
ARENA_EVENTS = 4_000_000
LOAD_WORKLOAD = "CG"
SAMPLE_SPEC = "500:2000:5000"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))


def bench_reps() -> int:
    return int(os.environ.get("REPRO_BENCH_REPS", DEFAULT_REPS))


def calibrate() -> float:
    """Machine-speed score for the load path: SHA-256 bytes/s over a
    fixed buffer. Hashing dominates both the eager load's file hash and
    the store's chunk verification, so normalizing by this keeps the regression
    gate about the *code*, not the host."""
    payload = np.random.RandomState(0).bytes(32 * 1024 * 1024)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        hashlib.sha256(payload).digest()
        best = min(best, time.perf_counter() - start)
    return len(payload) / best


# ----------------------------------------------------------------------
# 1. Load throughput
# ----------------------------------------------------------------------


def _save_npz(stream, path: Path) -> None:
    """Write the eager-load baseline: a compressed ``.npz`` of the
    stream and the file's SHA-256 next to it."""
    from repro.trace.io import compute_checksum

    batch = stream.as_batch()
    np.savez_compressed(
        path, addresses=batch.addresses, sizes=batch.sizes,
        is_store=batch.is_store,
    )
    Path(f"{path}.sha256").write_text(compute_checksum(path))


def _load_npz(path: Path):
    """Eager load: hash the whole file against its SHA-256, then
    decompress every event into a private in-memory stream."""
    from repro.trace.io import compute_checksum
    from repro.trace.stream import AddressStream

    if compute_checksum(path) != Path(f"{path}.sha256").read_text():
        raise RuntimeError(f"checksum mismatch for {path}")
    with np.load(path) as data:
        return AddressStream.from_arrays(
            data["addresses"], data["sizes"], data["is_store"]
        )


def measure_load(scale: float, reps: int) -> dict:
    """Eager load vs lazy store open vs verified scan, best-of-reps."""
    from repro.experiments.runner import Runner
    from repro.trace.store import MappedStream, write_store
    from repro.workloads.registry import get_workload

    with tempfile.TemporaryDirectory() as tmp:
        runner = Runner(scale=scale, seed=0, trace_cache_dir=tmp)
        result, _ = runner.trace_only(get_workload(LOAD_WORKLOAD))
        stream = result.stream
        events = len(stream)
        nbytes = stream.nbytes
        v1_path = Path(tmp) / "bench.stream.npz"
        v2_path = Path(tmp) / "bench.stream.rts"
        _save_npz(stream, v1_path)
        write_store(stream, v2_path)

        v1_load = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            loaded = _load_npz(v1_path)
            v1_load = min(v1_load, time.perf_counter() - start)
        v1_events = len(loaded)

        v2_open = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            mapped = MappedStream.open(v2_path)
            v2_open = min(v2_open, time.perf_counter() - start)
            mapped.close()

        v2_scan = float("inf")
        for _ in range(reps):
            mapped = MappedStream.open(v2_path)
            start = time.perf_counter()
            mapped.verify()
            v2_scan = min(v2_scan, time.perf_counter() - start)
            mapped.close()

        if v1_events != events:
            raise RuntimeError("v1 round-trip lost events")

    return {
        "workload": LOAD_WORKLOAD,
        "events": events,
        "stream_bytes": nbytes,
        "v1_load_s": round(v1_load, 6),
        "v2_open_s": round(v2_open, 6),
        "v2_verified_scan_s": round(v2_scan, 6),
        "open_speedup": round(v1_load / v2_open, 3),
        "scan_events_per_sec": round(events / v2_scan),
        "min_open_speedup": MIN_OPEN_SPEEDUP,
    }


# ----------------------------------------------------------------------
# 2. Arena memory ratio
# ----------------------------------------------------------------------


def _pss_kb() -> int | None:
    """Proportional-set-size of this process in kB, or None."""
    try:
        text = Path("/proc/self/smaps_rollup").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    return None


def _touch(stream) -> int:
    """Read every byte of every chunk (fault all pages in)."""
    total = 0
    for chunk in stream.chunks():
        total += int(np.add.reduce(chunk.addresses, dtype=np.uint64))
        total += int(np.add.reduce(chunk.sizes, dtype=np.uint64))
        total += int(np.add.reduce(chunk.is_store, dtype=np.uint64))
    return total


def _arena_child(handle, ready, done, queue) -> None:
    before = _pss_kb()
    stream, _ = handle.attach()
    _touch(stream)
    ready.wait()  # every sibling has faulted its pages in
    after = _pss_kb()
    queue.put(after - before)
    done.wait()  # measure while all attachers are still alive


def _private_child(npz_path, ready, done, queue) -> None:
    before = _pss_kb()
    stream = _load_npz(npz_path)
    _touch(stream)
    ready.wait()
    after = _pss_kb()
    queue.put(after - before)
    done.wait()
    del stream


def _fan_out(target, arg) -> list[int]:
    # Spawned (not forked) children: a fork would inherit the parent's
    # arena mapping, hiding the attach cost inside the baseline Pss.
    ctx = multiprocessing.get_context("spawn")
    ready = ctx.Barrier(ARENA_WORKERS)
    done = ctx.Barrier(ARENA_WORKERS)
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=target, args=(arg, ready, done, queue))
        for _ in range(ARENA_WORKERS)
    ]
    for proc in procs:
        proc.start()
    deltas = [queue.get(timeout=600) for _ in procs]
    for proc in procs:
        proc.join(timeout=600)
        if proc.exitcode != 0:
            raise RuntimeError(f"arena child exited {proc.exitcode}")
    return deltas


def measure_arena() -> dict:
    """Summed worker Pss growth for one shared trace vs private copies.

    All workers hold their mapping at measurement time (barriers), so
    shared pages split their Pss across the attachers and the sum
    approximates total committed memory. The ``skipped`` form is
    recorded verbatim when the host can't report Pss.
    """
    if _pss_kb() is None:
        return {
            "workers": ARENA_WORKERS,
            "ratio": None,
            "max_ratio": MAX_ARENA_RATIO,
            "skipped": "/proc/self/smaps_rollup unavailable; per-process "
                       "Pss cannot be measured on this host",
        }
    from repro.trace.arena import TraceArena
    from repro.trace.synthetic import random_stream

    stream = random_stream(
        ARENA_EVENTS, footprint_bytes=1 << 28, store_fraction=0.3, seed=13
    )
    nbytes = stream.nbytes
    with tempfile.TemporaryDirectory() as tmp:
        npz_path = Path(tmp) / "arena.stream.npz"
        _save_npz(stream, npz_path)
        with TraceArena() as arena:
            handle = arena.publish("ARENA", stream, ())
            arena_kb = _fan_out(_arena_child, handle)
        private_kb = _fan_out(_private_child, npz_path)

    arena_bytes = sum(arena_kb) * 1024
    private_bytes = sum(private_kb) * 1024
    return {
        "workers": ARENA_WORKERS,
        "events": ARENA_EVENTS,
        "single_copy_bytes": nbytes,
        "handle_kind": "file",  # the arena's one medium
        "arena_worker_pss_kb": arena_kb,
        "private_worker_pss_kb": private_kb,
        "arena_total_bytes": arena_bytes,
        "private_total_bytes": private_bytes,
        "ratio": round(arena_bytes / nbytes, 3),
        "private_ratio": round(private_bytes / nbytes, 3),
        "max_ratio": MAX_ARENA_RATIO,
    }


# ----------------------------------------------------------------------
# 3. Sampled fidelity
# ----------------------------------------------------------------------


def sample_families(reference, scale) -> list:
    from repro.designs.configs import EH_CONFIGS, N_CONFIGS
    from repro.designs.fourlc import FourLCDesign
    from repro.designs.fourlcnvm import FourLCNVMDesign
    from repro.designs.nmm import NMMDesign
    from repro.tech.params import EDRAM, PCM

    return [
        ("NMM", NMMDesign(PCM, N_CONFIGS["N6"], scale=scale,
                          reference=reference)),
        ("4LC", FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=scale,
                             reference=reference)),
        ("4LCNVM", FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"],
                                   scale=scale, reference=reference)),
    ]


def measure_sampled(scale: float) -> dict:
    """Per-family max |hit-rate error| of sampled vs exact simulation."""
    from repro.experiments.runner import Runner
    from repro.workloads.registry import get_workload

    workload = get_workload(LOAD_WORKLOAD)
    with tempfile.TemporaryDirectory() as tmp:
        exact = Runner(scale=scale, seed=0, trace_cache_dir=tmp)
        sampled = Runner(scale=scale, seed=0, trace_cache_dir=tmp,
                         sample=SAMPLE_SPEC)
        rows = []
        for family, design in sample_families(exact.reference, scale):
            he = exact.stats_for(design, workload)
            hs = sampled.stats_for(design, workload)
            error = max(
                (abs(le.hit_rate - ls.hit_rate)
                 for le, ls in zip(he.levels, hs.levels)
                 if le.loads + le.stores > 0),
                default=0.0,
            )
            rows.append({
                "family": family,
                "design": design.name,
                "max_hit_rate_error": round(error, 6),
                "references_error_rel": round(
                    abs(hs.references - he.references)
                    / max(1, he.references), 6
                ),
            })
        fidelity = sampled.prepare(workload).sample_fidelity
    return {
        "workload": LOAD_WORKLOAD,
        "sample": SAMPLE_SPEC,
        "measured_fidelity": round(fidelity, 6),
        "families": rows,
        "max_error": max(r["max_hit_rate_error"] for r in rows),
        "max_allowed_error": MAX_SAMPLE_ERROR,
    }


# ----------------------------------------------------------------------
# Baseline + gates
# ----------------------------------------------------------------------


def load_baseline() -> dict | None:
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text())


def scan_gate(baseline: dict, fresh: dict, fresh_calibration: float) -> dict:
    """Normalized v2 verified-scan throughput vs the committed baseline."""
    base_norm = (baseline["load"]["scan_events_per_sec"]
                 / baseline["calibration_bytes_per_sec"])
    fresh_norm = fresh["scan_events_per_sec"] / fresh_calibration
    ratio = fresh_norm / base_norm
    return {
        "baseline_normalized": round(base_norm, 9),
        "fresh_normalized": round(fresh_norm, 9),
        "ratio": round(ratio, 4),
        "floor": round(1.0 - REGRESSION_TOLERANCE, 4),
        "ok": ratio >= 1.0 - REGRESSION_TOLERANCE,
    }


def collect_failures(result: dict, check: bool) -> list[str]:
    failures = []
    load = result["load"]
    open_floor = (
        MIN_OPEN_SPEEDUP * (1.0 - REGRESSION_TOLERANCE)
        if check else MIN_OPEN_SPEEDUP
    )
    if load["open_speedup"] < open_floor:
        failures.append(
            f"v2 open speedup {load['open_speedup']:.2f}x "
            f"< {open_floor:g}x over v1 load"
        )
    arena = result["arena"]
    if arena.get("ratio") is not None and arena["ratio"] > MAX_ARENA_RATIO:
        failures.append(
            f"arena memory ratio {arena['ratio']:.2f}x "
            f"> {MAX_ARENA_RATIO:g}x single copy"
        )
    sampled = result["sampled"]
    if sampled["max_error"] > MAX_SAMPLE_ERROR:
        failures.append(
            f"sampled hit-rate error {sampled['max_error']:.4f} "
            f"> {MAX_SAMPLE_ERROR:g}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=str, default=str(BASELINE_PATH),
        help="output JSON path (default: the committed BENCH_trace.json)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate against the committed baseline instead of rewriting it",
    )
    args = parser.parse_args(argv)
    scale = bench_scale()
    reps = bench_reps()

    print("calibrating machine speed ...", flush=True)
    calibration = calibrate()
    print(f"load throughput at scale {scale:g} "
          f"({MIN_OPEN_SPEEDUP:g}x open floor) ...", flush=True)
    load = measure_load(scale, reps)
    print(f"arena memory ratio ({ARENA_WORKERS} workers, "
          f"{MAX_ARENA_RATIO:g}x ceiling) ...", flush=True)
    arena = measure_arena()
    print(f"sampled fidelity ({SAMPLE_SPEC}, "
          f"{MAX_SAMPLE_ERROR:g} error ceiling) ...", flush=True)
    sampled = measure_sampled(scale)

    result = {
        "scale": scale,
        "calibration_bytes_per_sec": round(calibration),
        "load": load,
        "arena": arena,
        "sampled": sampled,
        "regression_tolerance": REGRESSION_TOLERANCE,
    }
    failures = collect_failures(result, check=args.check)

    baseline = load_baseline()
    if args.check:
        if baseline is None:
            print("FAIL: no committed BENCH_trace.json to gate against",
                  file=sys.stderr)
            return 1
        gate = scan_gate(baseline, load, calibration)
        print(f"  scan gate: ratio {gate['ratio']:.3f} "
              f"(floor {gate['floor']:.2f})")
        if not gate["ok"]:
            failures.append(
                f"verified-scan throughput regressed: normalized ratio "
                f"{gate['ratio']:.3f} < {gate['floor']:.2f}"
            )
    elif failures:
        # Never record a baseline that fails its own floors — a later
        # --check run would gate against numbers already known bad.
        print(f"not writing {args.out}: floors failed", file=sys.stderr)
    else:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")

    print(f"  load: v1 {load['v1_load_s']:.4f}s, v2 open "
          f"{load['v2_open_s']:.6f}s ({load['open_speedup']:.0f}x), "
          f"verified scan {load['v2_verified_scan_s']:.4f}s")
    if arena.get("ratio") is not None:
        print(f"  arena: {arena['ratio']:.2f}x single copy "
              f"(private copies: {arena['private_ratio']:.2f}x)")
    else:
        print(f"  arena: skipped ({arena['skipped']})")
    print(f"  sampled: max hit-rate error {sampled['max_error']:.4f} "
          f"at fidelity {sampled['measured_fidelity']:.3f}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("ok: trace-store floors hold")
    return 0


# -- pytest gate (CI: pytest -q -m perf benchmarks/bench_trace_store.py)

try:
    import pytest
except ImportError:  # pragma: no cover - standalone script use
    pytest = None

if pytest is not None:

    @pytest.fixture(scope="module")
    def baseline():
        committed = load_baseline()
        if committed is None:
            pytest.skip("no committed BENCH_trace.json")
        return committed

    @pytest.mark.perf
    def test_load_throughput_no_regression(baseline):
        fresh = measure_load(baseline["scale"], bench_reps())
        gate = scan_gate(baseline, fresh, calibrate())
        assert gate["ok"], (
            f"verified-scan throughput regressed: normalized ratio "
            f"{gate['ratio']} < {gate['floor']} "
            f"(fresh {fresh['scan_events_per_sec']:,} events/s vs "
            f"committed {baseline['load']['scan_events_per_sec']:,})"
        )
        floor = MIN_OPEN_SPEEDUP * (1.0 - REGRESSION_TOLERANCE)
        assert fresh["open_speedup"] >= floor, fresh

    @pytest.mark.perf
    def test_arena_memory_ratio(baseline):
        if _pss_kb() is None:
            pytest.skip("/proc/self/smaps_rollup unavailable")
        fresh = measure_arena()
        assert fresh["ratio"] <= MAX_ARENA_RATIO, fresh

    @pytest.mark.perf
    def test_sampled_error_envelope(baseline):
        fresh = measure_sampled(baseline["scale"])
        assert fresh["max_error"] <= MAX_SAMPLE_ERROR, fresh

    @pytest.mark.perf
    def test_committed_baseline_meets_the_floors(baseline):
        assert baseline["load"]["open_speedup"] >= MIN_OPEN_SPEEDUP
        arena = baseline.get("arena") or {}
        if arena.get("ratio") is not None:
            assert arena["ratio"] <= MAX_ARENA_RATIO
        else:
            assert arena.get("skipped"), (
                "committed arena section must either meet the ceiling "
                "or carry an explicit skip reason"
            )
        assert baseline["sampled"]["max_error"] <= MAX_SAMPLE_ERROR


if __name__ == "__main__":
    sys.exit(main())
