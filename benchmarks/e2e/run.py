"""End-to-end benchmark: time the commands users run, layer by layer.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload a,b] [--seed N]
        [--seconds S] [--reps N] [--trace 0|1] [--out FILE]

Every timed run is one fresh ``python -m repro.experiments``
subprocess at scale 1/8192. Per workload the benchmark makes three
cold runs, each on an empty trace cache (their median wall time is
``setup_s``), and warm runs on the cache the first one filled until it
has ``--reps`` of them and ``--seconds`` per workload have passed.
Runs go in rounds over the workloads, so host drift hits each one
alike. Every run's outputs are checked against committed digests.

With ``--trace 1`` it instead makes one traced cold run, then pairs of
an untraced and a traced warm run, and reports per-layer metrics (see
``layers.py``) with the tracing overhead.

It prints ``workload metric value unit`` lines, writes summaries with
quartiles to ``--out``, and ends with one JSON line: ``correct``,
``attempted`` and ``failed`` cells, and the median of each metric.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness
import layers

ROOT = harness.ROOT
DEFAULT_OUT = harness.HERE / "out" / "latest.json"

SETUP_RUNS = 3
RUN_TIMEOUT_S = 60.0

#: End-to-end metrics reported on every workload (BENCHMARK.json).
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Quality metrics with absolute bounds, reported beside the end-to-end
#: ones where they apply (see compare.py).
QUALITY = {"failed_frac": "ratio", "norm_err_max": "ratio", "screen_recall": "ratio"}

#: Per-layer metrics of the traced runs (BENCHMARK.json). A layer a
#: workload never enters reads 0.
PER_LAYER = {
    "startup.busy_s": "s",
    "trace.busy_s": "s",
    "trace.calls": "count",
    "trace.cache_hit_ratio": "ratio",
    "trace.arena.busy_s": "s",
    "trace.arena.publish_ratio": "ratio",
    "runner.busy_s": "s",
    "runner.prepare.busy_s": "s",
    "cache.upper.busy_s": "s",
    "cache.upper.replays_per_workload": "ratio",
    "cache.upper.refs_per_s": "1/s",
    "cache.lower.busy_s": "s",
    "cache.lower.sims": "count",
    "cache.lower.requests_per_s": "1/s",
    "simplan.designs_per_sim": "ratio",
    "sampling.fidelity": "ratio",
    "sampling.norm_err_max": "ratio",
    "screen.recall": "ratio",
    "profile.busy_s": "s",
    "profile.cache_hit_ratio": "ratio",
    "profile.eval_calls": "count",
    "model.busy_s": "s",
    "model.calls": "count",
    "journal.busy_s": "s",
    "journal.appends": "count",
    "journal.append_ms": "ms",
    "executor.busy_s": "s",
    "pool.wait_s": "s",
    "pool.worker_busy_frac": "ratio",
    "telemetry.busy_s": "s",
    "figures.busy_s": "s",
    "render.busy_s": "s",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "unattributed_frac": "ratio",
    "tracing_overhead_frac": "ratio",
    "setup.trace.busy_s": "s",
    "setup.cache.upper.busy_s": "s",
    "setup.profile.busy_s": "s",
}

#: Layer metrics of the traced cold run, reported as ``setup.<name>``.
SETUP_LAYER_METRICS = ("trace.busy_s", "cache.upper.busy_s", "profile.busy_s")


@dataclass
class Run:
    """One finished subprocess and what its outputs showed."""

    wall_s: float
    peak_rss_mb: float
    cells: int
    failed: int
    correct: bool
    quality: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] | None = None


class Bench:
    """Runs workloads in a private work directory and checks outputs.

    Args:
        work: an empty directory, removed by the caller.
        seed: the benchmark seed (selects the input set).
        reference: the committed digests and exact top designs.
    """

    def __init__(self, work: Path, seed: int, reference: dict) -> None:
        self.work = work
        self.seed = seed
        self.input_seed = harness.input_seed(seed)
        self.reference = reference
        self._runs = 0
        self._env = harness.program_env()

    def _fresh_dir(self, label: str) -> Path:
        self._runs += 1
        path = self.work / f"{self._runs:04d}-{label}"
        path.mkdir(parents=True)
        return path

    def new_cache(self, workload: str) -> Path:
        """An empty trace-cache directory for a cold run."""
        return self._fresh_dir(f"{workload}-cache")

    def run(self, workload: str, cache: Path, traced: bool = False) -> Run:
        """One timed subprocess of ``workload`` on trace cache ``cache``."""
        run_dir = self._fresh_dir(workload)
        argv = harness.command(workload, self.seed, cache, run_dir)
        records = run_dir / "records"
        if traced:
            records.mkdir()
            head = [sys.executable, str(harness.HERE / "traced.py"), str(records)]
        else:
            head = [sys.executable, "-m", "repro.experiments"]
        with open(run_dir / "stdout.txt", "wb") as out, \
                open(run_dir / "stderr.txt", "wb") as err:
            if traced:
                head.append(repr(time.time()))
            started = time.perf_counter()
            proc = subprocess.Popen(
                head + argv, stdout=out, stderr=err, env=self._env,
                cwd=ROOT, start_new_session=True,
            )
            timer = threading.Timer(RUN_TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall_s = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            _kill_group(proc.pid)  # pool workers of a killed run
        cells, failed, correct, quality = self._check(
            workload, run_dir, proc.returncode
        )
        layer_values = None
        if traced and proc.returncode == 0:
            record_list = layers.read_records(records)
            root = next(r for r in record_list if r["root"])
            layer_values = layers.layer_metrics(
                record_list, wall_s, root["startup_s"]
            )
        shutil.rmtree(run_dir)
        return Run(wall_s, usage.ru_maxrss / 1024, cells, failed, correct,
                   quality, layer_values)

    def _check(self, workload: str, run_dir: Path, returncode: int):
        """``(cells, failed, correct, quality)`` of one finished run."""
        expected = self.reference["digests"][workload][str(self.input_seed)]
        quality: dict[str, float] = {}
        if workload.startswith("reproduce"):
            stdout = (run_dir / "stdout.txt").read_text()
            cells, bad = 1, 0
            digest = harness.stdout_digest(stdout)
            if workload == "reproduce-sampled" and returncode == 0:
                exact = (
                    harness.REFERENCE_DIR
                    / f"reproduce-exact-seed{self.input_seed}.txt"
                ).read_text()
                try:
                    quality["norm_err_max"] = harness.norm_err_max(stdout, exact)
                except ValueError:
                    digest = None
        else:
            journals = harness.journal_paths(run_dir)
            records = [r for path in journals for r in harness.read_journal(path)]
            cells = max(1, len(records))
            bad = sum(r["status"] != "ok" for r in records)
            digest = harness.journal_digest(records)
            if workload == "sweep-screen":
                kept = {r["design"] for r in harness.read_journal(journals[0])}
                quality["screen_recall"] = harness.screen_recall(
                    kept, self.reference["screen_top"][str(self.input_seed)]
                )
        correct = returncode == 0 and digest == expected
        if not correct:
            bad = cells
            stderr = (run_dir / "stderr.txt").read_text(errors="replace")
            print(f"{workload}: run failed (exit {returncode}, digest "
                  f"{'matches' if digest == expected else 'differs'})\n"
                  + "\n".join(stderr.splitlines()[-20:]), file=sys.stderr)
        return cells, bad, correct, quality


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


@dataclass
class Tally:
    """Samples and outcome counts of one workload."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def count(self, run: Run) -> None:
        self.attempted += run.cells
        self.failed += run.failed
        self.correct = self.correct and run.correct

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def measure(bench: Bench, workloads: list[str], seconds: float, reps: int,
            trace: bool) -> dict[str, Tally]:
    """Run rounds over the workloads until every count and time is met.

    A round gives each workload one cold run, while it still needs
    set-up samples, then one warm run on the cache its first cold run
    filled. Interleaving spreads both kinds over the whole measuring
    time, so a slow spell of the host does not land on one kind only.
    """
    setup_runs = 1 if trace else SETUP_RUNS
    tallies = {w: Tally() for w in workloads}
    caches: dict[str, Path] = {}
    started = time.perf_counter()
    rounds = 0
    while (rounds < max(setup_runs, reps)
           or time.perf_counter() - started < seconds * len(workloads)):
        for workload in workloads:
            tally = tallies[workload]
            if rounds < setup_runs:
                cache = bench.new_cache(workload)
                run = bench.run(workload, cache, traced=trace)
                tally.count(run)
                tally.add("setup_s", run.wall_s)
                for name in SETUP_LAYER_METRICS if run.layers else ():
                    tally.add(f"setup.{name}", run.layers[name])
                if workload in caches:
                    shutil.rmtree(cache)
                else:
                    caches[workload] = cache
            run = bench.run(workload, caches[workload])
            tally.count(run)
            tally.add("wall_s", run.wall_s)
            tally.add("peak_rss_mb", run.peak_rss_mb)
            for name, value in run.quality.items():
                tally.add(name, value)
            if trace:
                traced = bench.run(workload, caches[workload], traced=True)
                tally.count(traced)
                for name, value in (traced.layers or {}).items():
                    tally.add(name, value)
        rounds += 1
    for tally in tallies.values():
        tally.add("failed_frac", tally.failed / max(1, tally.attempted))
    return tallies


def report(tallies: dict[str, Tally], trace: bool) -> dict[str, dict]:
    """Per workload, the summary of every metric it reports."""
    names = dict(PER_LAYER) if trace else {**END_TO_END, **QUALITY}
    out: dict[str, dict] = {}
    for workload, tally in tallies.items():
        samples = dict(tally.samples)
        if trace and "traced_wall_s" in samples:
            samples["tracing_overhead_frac"] = [
                statistics.median(samples["traced_wall_s"])
                / statistics.median(samples["wall_s"]) - 1
            ]
        if trace:
            samples["sampling.norm_err_max"] = samples.pop("norm_err_max", [0.0])
            samples["screen.recall"] = samples.pop("screen_recall", [0.0])
        metrics = {}
        for name, unit in names.items():
            if name in samples:
                metrics[name] = {"unit": unit, **harness.summarize(samples[name])}
            elif trace or name in END_TO_END:
                # Only failed runs leave a reported metric unmeasured.
                metrics[name] = {"unit": unit, **harness.summarize([0.0])}
        out[workload] = {
            "metrics": metrics, "attempted": tally.attempted,
            "failed": tally.failed, "correct": tally.correct,
        }
    return out


def host_info() -> dict:
    """What the numbers were measured on."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", "--workloads", default=",".join(harness.WORKLOADS),
        help="comma-separated workloads (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed; selects input set seed %% 10")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="least measuring time per workload")
    parser.add_argument("--reps", type=int, default=4,
                        help="least warm runs per workload (default 4)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced runs")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"summary JSON (default {DEFAULT_OUT.relative_to(ROOT)})")
    args = parser.parse_args(argv)
    args.workload = [w.strip() for w in args.workload.split(",") if w.strip()]
    unknown = [w for w in args.workload if w not in harness.WORKLOADS]
    if unknown or not args.workload:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(harness.WORKLOADS)}")
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "experiments" / "__main__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = harness.WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(work, args.seed, harness.load_reference())
        tallies = measure(bench, args.workload, args.seconds, args.reps,
                          bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    results = report(tallies, bool(args.trace))
    for workload, result in results.items():
        for name, summary in result["metrics"].items():
            print(f"{workload} {name} {summary['median']:.6g} {summary['unit']}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "seed": args.seed, "input_seed": harness.input_seed(args.seed),
        "scale": harness.SCALE, "trace": args.trace, "host": host_info(),
        "workloads": results,
    }, indent=1) + "\n")
    reported = PER_LAYER if args.trace else END_TO_END
    single = len(results) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (name if single else f"{workload}:{name}"): {
                "value": r["metrics"][name]["median"], "unit": unit,
            }
            for workload, r in results.items()
            for name, unit in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
