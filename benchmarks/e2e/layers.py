"""Per-layer self time and counts, recorded from outside the program.

:func:`install` replaces public functions of the ``repro`` modules with
wrappers that keep a span stack in memory: a layer's self time is its
span's duration minus the time its child spans cover, and a layer that
re-enters itself directly (``Hierarchy.run`` calling
``Hierarchy.process_batch``) is one span. Hooks next to each wrapper
count the work done (simulations, requests, cache hits, appends).

Forked pool workers inherit the wrappers. Each starts from zero and
rewrites its per-pid record at every outermost call exit, since a
worker leaves through ``os._exit`` and never runs exit handlers; the
parent writes its own record once, and :func:`layer_metrics` merges
them. Only the parent's spans enter the wall-time identity
``startup + sum(self times) + unattributed = wall``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

RECORD_GLOB = "layers-*.json"


class SpanRecorder:
    """Thread-local span stacks with process-wide per-layer totals.

    Args:
        clock: monotonic seconds (tests pass a fake).
        record_dir: where per-pid records go; None keeps them in memory.
    """

    def __init__(self, clock=time.perf_counter, record_dir: Path | None = None):
        self.clock = clock
        self.record_dir = record_dir
        self.root_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (a forked worker starts here)."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.workloads: set[str] = set()
        self.busy_s = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_layer(self) -> str | None:
        """The innermost open layer of this thread, if any."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def add(self, name: str, value: float = 1) -> None:
        """Add to a named count."""
        with self._lock:
            self.counts[name] += value

    def call(self, layer, fn, args, kwargs, before=None, after=None):
        """Run ``fn`` as one span of ``layer``.

        ``before(recorder, args)`` returns a note handed to
        ``after(recorder, note, result, duration_s, args)`` when the call
        returns normally. Hooks run on every call; ``duration_s`` is 0
        for a call nested directly in its own layer, which opens no span.
        """
        stack = self._stack()
        note = before(self, args) if before is not None else None
        if stack and stack[-1][0] == layer:
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, note, result, 0.0, args)
            return result
        frame = [layer, self.clock(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, stack)
            self._write_if_worker(stack)
            raise
        duration = self._close(frame, stack)
        if after is not None:
            after(self, note, result, duration, args)
        self._write_if_worker(stack)
        return result

    def _write_if_worker(self, stack: list) -> None:
        if not stack and self.record_dir is not None and os.getpid() != self.root_pid:
            self.write_record()

    def _close(self, frame: list, stack: list) -> float:
        duration = self.clock() - frame[1]
        stack.pop()
        with self._lock:
            self.self_s[frame[0]] += duration - frame[2]
            self.calls[frame[0]] += 1
            if stack:
                stack[-1][2] += duration
            else:
                self.busy_s += duration
        return duration

    def record(self, **extra) -> dict:
        """This process's totals as a JSON-ready dict."""
        with self._lock:
            return {
                "pid": os.getpid(),
                "root": os.getpid() == self.root_pid,
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "workloads": sorted(self.workloads),
                "busy_s": self.busy_s,
                **extra,
            }

    def write_record(self, **extra) -> Path:
        """Atomically (re)write this process's record file."""
        path = self.record_dir / f"layers-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.record(**extra)))
        os.replace(tmp, path)
        return path


def read_records(record_dir: Path) -> list[dict]:
    """Every per-pid record a traced run left."""
    return [json.loads(p.read_text()) for p in sorted(record_dir.glob(RECORD_GLOB))]


# ----------------------------------------------------------------------
# Counting hooks
# ----------------------------------------------------------------------


def _count(name: str):
    def after(rec, note, result, duration, args):
        rec.add(name)
    return after


def _after_trace_only(rec, note, result, duration, args):
    rec.add("trace.calls")
    rec.add("trace.cache_hits", bool(result[1]))
    if rec.current_layer() == "trace.arena":
        rec.add("trace.arena.attempts")


def _before_prepare(rec, args):
    runner, workload = args[0], args[1]
    return workload.name not in runner._traces


def _after_prepare(rec, fresh, trace, duration, args):
    if fresh:
        rec.add("cache.upper.replays")
        rec.add("sampling.fidelity_sum", trace.sample_fidelity)
        rec.workloads.add(trace.workload.name)


def _before_refs(rec, args):
    return args[0].references


def _after_refs(rec, before, result, duration, args):
    rec.add("cache.upper.refs", args[0].references - before)


def _before_stats_for(rec, args):
    runner, design, workload = args[0], args[1], args[2]
    return runner.engine != "analytic" and (
        (design.sim_key(), workload.name) not in runner._design_stats
    )


def _after_stats_for(rec, simulated, result, duration, args):
    if simulated:
        runner, workload = args[0], args[2]
        rec.add("cache.lower.sims")
        rec.add("cache.lower.designs")
        rec.add("cache.lower.requests", len(runner._traces[workload.name].post_l3))


def _after_plan(rec, note, result, duration, args):
    plan, stream = args[0], args[1]
    rec.add("cache.lower.sims")
    rec.add("cache.lower.designs", plan.sim_count)
    # Per design served, so prefix sharing shows as more requests/s.
    rec.add("cache.lower.requests", len(stream) * plan.sim_count)


def _after_append(rec, note, result, duration, args):
    rec.add("journal.appends")
    rec.add("journal.append_s", duration)


def _after_pool(rec, note, result, duration, args):
    rec.add("pool.slot_s", duration * args[0].workers)


_FIGURES = tuple(f"figure{n}" for n in range(1, 9))
_TABLES = tuple(f"table{n}" for n in range(1, 5))

#: (module, attribute, layer, before hook, after hook) for every
#: wrapped function. Layer names match the README's layer table.
WRAPPED = (
    ("repro.experiments.runner", "Runner.trace_only", "trace", None, _after_trace_only),
    ("repro.trace.io", "load_trace", "trace", None, None),
    ("repro.trace.io", "save_trace", "trace", None, None),
    ("repro.resilience.executor", "SweepExecutor._publish_traces", "trace.arena", None, None),
    ("repro.trace.arena", "TraceArena.publish", "trace.arena", None,
     _count("trace.arena.published")),
    ("repro.experiments.runner", "Runner.prepare", "runner.prepare",
     _before_prepare, _after_prepare),
    ("repro.experiments.runner", "Runner.evaluate", "runner", None, None),
    ("repro.experiments.runner", "Runner.raw_for", "runner", None, None),
    ("repro.experiments.runner", "Runner.simulate_designs", "runner", None, None),
    ("repro.experiments.runner", "Runner.ndm_oracle", "runner", None, None),
    ("repro.cache.hierarchy", "Hierarchy.run", "cache.upper", None, None),
    ("repro.cache.hierarchy", "Hierarchy.process_batch", "cache.upper",
     _before_refs, _after_refs),
    ("repro.experiments.runner", "Runner.stats_for", "cache.lower",
     _before_stats_for, _after_stats_for),
    # Analytic evaluation simulates nothing below L3: it is profile work.
    ("repro.experiments.runner", "Runner._analytic_stats_for", "profile", None, None),
    ("repro.experiments.simplan", "SimPlan.execute", "cache.lower", None, _after_plan),
    ("repro.profile.profiler", "compute_profile", "profile", None, _count("profile.computed")),
    ("repro.profile.profiler", "load_profile", "profile", None, _count("profile.loaded")),
    ("repro.profile.engine", "AnalyticEngine.lower_stats", "profile", None,
     _count("profile.eval_calls")),
    ("repro.model.evaluate", "evaluate_stats", "model", None, None),
    ("repro.model.evaluate", "finalize", "model", None, None),
    ("repro.resilience.journal", "Journal.append", "journal", None, _after_append),
    ("repro.resilience.journal", "Journal.load", "journal", None, None),
    ("repro.resilience.executor", "SweepExecutor.run", "executor", None, None),
    ("repro.resilience.pool", "SupervisedPool.run", "pool", None, _after_pool),
    ("repro.telemetry.core", "Telemetry._drain_events", "telemetry", None, None),
    ("repro.telemetry.core", "Telemetry.flush", "telemetry", None, None),
    ("repro.telemetry.core", "Telemetry.finish_collector", "telemetry", None, None),
    ("repro.telemetry.core", "Telemetry.close", "telemetry", None, None),
    ("repro.experiments.render", "render_figure", "render", None, None),
    ("repro.experiments.render", "render_heatmap", "render", None, None),
    ("repro.experiments.render", "ascii_table", "render", None, None),
    *(("repro.experiments.figures", name, "figures", None, None) for name in _FIGURES),
    ("repro.experiments.heatmap", "figure9", "figures", None, None),
    ("repro.experiments.heatmap", "figure10", "figures", None, None),
    *(("repro.experiments.tables", name, "figures", None, None) for name in _TABLES),
)

#: Layers whose self time is reported as ``<layer>.busy_s``; the pool's
#: own self time is the parent waiting on workers, ``pool.wait_s``.
BUSY_LAYERS = (
    "trace", "trace.arena", "runner", "runner.prepare", "cache.upper",
    "cache.lower", "profile", "model", "journal", "executor", "telemetry",
    "figures", "render",
)


def install(recorder: SpanRecorder) -> None:
    """Wrap every function of :data:`WRAPPED` for ``recorder``.

    A module-level function is also replaced wherever another loaded
    ``repro`` module imported it by name. Forked children reset the
    recorder, so each worker reports only its own spans.
    """
    for module_name, attribute, layer, before, after in WRAPPED:
        module = importlib.import_module(module_name)
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, name)

        def wrapper(*args, _fn=original, _layer=layer, _before=before,
                    _after=after, **kwargs):
            return recorder.call(_layer, _fn, args, kwargs, _before, _after)

        wrapper = functools.wraps(original)(wrapper)
        setattr(owner, name, wrapper)
        if not owner_name:
            for alias_module in list(sys.modules.values()):
                if (getattr(alias_module, "__name__", "").startswith("repro")
                        and getattr(alias_module, name, None) is original):
                    setattr(alias_module, name, wrapper)
    os.register_at_fork(after_in_child=recorder.reset)


# ----------------------------------------------------------------------
# Merging and derived metrics
# ----------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(records: list[dict], wall_s: float, startup_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run from its per-pid records.

    Busy times and counts sum over every process; the unattributed
    remainder uses only the parent's timeline, where the pool's self
    time covers the workers.
    """
    roots = [r for r in records if r["root"]]
    if len(roots) != 1:
        raise ValueError(f"expected one parent record, found {len(roots)}")
    root = roots[0]
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    workloads: set[str] = set()
    for r in records:
        for layer, seconds in r["self_s"].items():
            self_s[layer] += seconds
        for name, value in r["counts"].items():
            counts[name] += value
        for layer, n in r["calls"].items():
            calls[layer] += n
        workloads.update(r["workloads"])
    worker_busy = sum(r["busy_s"] for r in records if not r["root"])
    unattributed = wall_s - startup_s - sum(root["self_s"].values())
    metrics = {f"{layer}.busy_s": self_s[layer] for layer in BUSY_LAYERS}
    metrics.update({
        "startup.busy_s": startup_s,
        "trace.calls": counts["trace.calls"],
        "trace.cache_hit_ratio": _ratio(counts["trace.cache_hits"], counts["trace.calls"]),
        "trace.arena.publish_ratio": _ratio(
            counts["trace.arena.published"], counts["trace.arena.attempts"]
        ),
        "cache.upper.replays_per_workload": _ratio(
            counts["cache.upper.replays"], len(workloads)
        ),
        "cache.upper.refs_per_s": _ratio(counts["cache.upper.refs"], self_s["cache.upper"]),
        "cache.lower.sims": counts["cache.lower.sims"],
        "cache.lower.requests_per_s": _ratio(
            counts["cache.lower.requests"], self_s["cache.lower"]
        ),
        "simplan.designs_per_sim": _ratio(
            counts["cache.lower.designs"], counts["cache.lower.sims"]
        ),
        "sampling.fidelity": _ratio(
            counts["sampling.fidelity_sum"], counts["cache.upper.replays"]
        ),
        "profile.cache_hit_ratio": _ratio(
            counts["profile.loaded"], counts["profile.loaded"] + counts["profile.computed"]
        ),
        "profile.eval_calls": counts["profile.eval_calls"],
        "model.calls": calls["model"],
        "journal.appends": counts["journal.appends"],
        "journal.append_ms": 1000 * _ratio(counts["journal.append_s"], counts["journal.appends"]),
        "pool.wait_s": self_s["pool"],
        "pool.worker_busy_frac": _ratio(worker_busy, counts["pool.slot_s"]),
        "traced_wall_s": wall_s,
        "unattributed_s": unattributed,
        "unattributed_frac": _ratio(unattributed, wall_s),
    })
    return metrics
