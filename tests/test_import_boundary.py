"""A command imports only the modules it runs.

The package ``__init__`` files re-export nothing, so rendering the
paper's tables loads neither the sweep and resilience machinery nor the
live server, observatory and profiler, nor numpy, and no command loads
the dynamic partition planner or the stream filters. A run priced
wholly from the trace cache's records loads no workload kernel, no
cache simulator and no numpy. Each check runs in a fresh interpreter,
since this test session has long since imported them all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules (and so their submodules) that ``tables`` must not load.
NOT_LOADED = (
    "repro.resilience",
    "repro.telemetry.live",
    "repro.telemetry.observatory",
    "repro.telemetry.profiling",
    "repro.telemetry.report",
    "repro.telemetry.progress",
    "repro.trace.arena",
    "repro.experiments.sweep",
    "repro.experiments.compare",
    "repro.experiments.validate",
    "repro.experiments.characterize",
    "repro.experiments.checkpoint",
    "repro.experiments.report",
    "repro.experiments.calibrate",
    "repro.experiments.plot",
    "repro.experiments.sampling",
    "repro.profile",
    "repro.partition.dynamic",
    "repro.trace.filters",
    "http.server",
    "email",
    "tracemalloc",
    "numpy",
)

#: Modules (and so their submodules) that a run priced wholly from the
#: trace cache's upper and lower records must not load: numpy, the
#: workload kernels and the cache simulator.
WARM_NOT_LOADED = (
    "numpy",
    *(f"repro.workloads.{kernel}" for kernel in (
        "amg", "bt", "cg", "graph500", "hashing", "lu", "sp", "velvet",
        "synthetic",
    )),
    "repro.cache.setassoc",
    "repro.cache.hierarchy",
    "repro.experiments.simplan",
    "repro.trace.reuse",
    "repro.telemetry.windows",
)

#: Runs the CLI on its arguments and prints the modules it loaded.
CLI_MODULES = """
import contextlib, io, json, sys
import repro.experiments.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
"""

#: Snapshots ``sys.modules`` in the parent at its first fork and in
#: each pool worker after its first cell, then runs the CLI.
POOL_PROBE = """
import json, os, sys
import repro.experiments.cli as cli
from repro.resilience.executor import SweepExecutor

out = sys.argv[1]
root = os.getpid()

def dump(name):
    path = os.path.join(out, name)
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(sorted(sys.modules), f)

os.register_at_fork(before=lambda: dump("parent.json"))
evaluate_cell = SweepExecutor._evaluate_cell

def first_cell(self, *args, **kwargs):
    result = evaluate_cell(self, *args, **kwargs)
    if os.getpid() != root:
        dump(f"worker-{os.getpid()}.json")
    return result

SweepExecutor._evaluate_cell = first_cell
sys.exit(cli.main(sys.argv[2:]))
"""


#: Prices REF and one NMM design on CG, from the trace cache in
#: ``sys.argv[1]`` with ``sys.argv[2]`` set to "save" (cold: simulate,
#: then save the lower record) or "load" (warm: prepare, then one
#: record-priced ``stats_for``).
EXACT_RUNNER = """
import json, sys
from repro.designs.configs import N_CONFIGS
from repro.designs.nmm import NMMDesign
from repro.experiments.runner import Runner
from repro.tech.params import PCM
from repro.workloads.registry import get_workload

scale = 1.0 / 8192
runner = Runner(scale=scale, seed=4, trace_cache_dir=sys.argv[1])
workload = get_workload("CG")
trace = runner.prepare(workload)
runner.stats_for(NMMDesign(PCM, N_CONFIGS["N6"], scale=scale,
                           reference=runner.reference), workload)
if sys.argv[2] == "save":
    runner.save_lower_records()
record = runner._lower_records["CG"]
print(json.dumps({
    "upper_cached": trace.upper_cached,
    "loaded": len(record.loaded),
    "gained": len(record.gained),
    "modules": sorted(sys.modules),
}))
"""


def run_python(code: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def leaked(loaded, names: tuple[str, ...]) -> list[str]:
    """The ``names`` among the ``loaded`` modules (a loaded submodule
    implies its package)."""
    return sorted(set(names) & set(loaded))


def cli_modules(*args: str, cwd: Path) -> set[str]:
    """The modules a fresh CLI run with ``args`` loads."""
    proc = run_python(CLI_MODULES, *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == 0
    loaded = set(result["modules"])
    assert "repro.experiments.runner" in loaded  # the probe ran the CLI
    return loaded


def test_tables_loads_no_sweep_or_observability_module(tmp_path):
    loaded = cli_modules("tables", cwd=tmp_path)
    extra = leaked(loaded, NOT_LOADED)
    assert not extra, f"`tables` imported modules it never runs: {extra}"


@pytest.mark.parametrize("engine", [
    ["--engine", "auto"], ["--sample", "500:2000:5000"],
], ids=["exact", "sampled"])
def test_warm_reproduce_all_loads_no_kernel_simulator_or_numpy(
    tmp_path, engine
):
    """Every figure of a warm run is priced from the records the cold
    run left, so it runs no kernel and no simulation."""
    args = [
        "--scale", "0.0001220703125", "--trace-cache", str(tmp_path / "cache"),
        *engine, "reproduce-all",
    ]
    cold = cli_modules(*args, cwd=tmp_path)
    assert {"numpy", "repro.cache.hierarchy"} <= cold  # it simulated
    extra = leaked(cli_modules(*args, cwd=tmp_path), WARM_NOT_LOADED)
    assert not extra, f"a warm `reproduce-all` imported: {extra}"


def test_warm_serial_sweep_loads_no_simplan(tmp_path):
    """Each cell of a serial sweep prices its own design, so no sweep
    batches designs through the shared-prefix planner; a warm one is
    priced from the records, and only a pool's parent loads the
    simulator for its workers."""
    for run in ("cold", "warm"):
        loaded = cli_modules(
            "--scale", "0.0001220703125", "--workloads", "CG",
            "--trace-cache", str(tmp_path / "cache"),
            "sweep", "--designs", "REF,NMM:PCM:N6",
            "--journal", str(tmp_path / f"{run}.jsonl"),
            cwd=tmp_path,
        )
    assert "repro.resilience.executor" in loaded
    assert "repro.experiments.simplan" not in loaded
    extra = leaked(loaded, WARM_NOT_LOADED)
    assert not extra, f"a warm serial sweep imported: {extra}"


def test_ndm_figure_loads_no_dynamic_planner_or_filters(tmp_path):
    """Figure 7 runs the NDM oracle, yet needs neither the phase-wise
    planner nor the stream filters it alone uses."""
    loaded = cli_modules(
        "--scale", "0.0001220703125", "--workloads", "CG", "figure", "7",
        cwd=tmp_path,
    )
    assert "repro.partition.oracle" in loaded
    assert not {"repro.partition.dynamic", "repro.trace.filters"} & loaded


def test_pool_workers_import_no_repro_module_the_parent_skipped(tmp_path):
    """A module a cell needs but the parent deferred would be compiled
    once per forked worker instead of once before the fork."""
    out = tmp_path / "modules"
    out.mkdir()
    proc = run_python(
        POOL_PROBE, str(out),
        "--scale", "0.0002", "--workloads", "CG",
        "--telemetry", str(tmp_path / "telemetry"),
        "sweep", "--designs", "REF,NMM:PCM:N6,4LC:EDRAM:EH4",
        "--workers", "2", "--journal", str(tmp_path / "campaign.jsonl"),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    parent = set(json.loads((out / "parent.json").read_text()))
    workers = sorted(out.glob("worker-*.json"))
    assert workers, "no pool worker finished a cell"
    for path in workers:
        extra = sorted(
            name for name in set(json.loads(path.read_text())) - parent
            if name == "repro" or name.startswith("repro.")
        )
        assert not extra, f"{path.stem} imported after the fork: {extra}"


def test_exact_runner_on_a_warm_cache_loads_no_sampling(tmp_path):
    """Neither the runner nor a lower-record read needs the sampled
    engine's module when no sample spec is given."""
    cache = tmp_path / "cache"
    results = {}
    for mode in ("save", "load"):
        proc = run_python(EXACT_RUNNER, str(cache), mode, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        results[mode] = json.loads(proc.stdout.splitlines()[-1])
    cold, warm = results["save"], results["load"]
    assert (cold["upper_cached"], cold["loaded"], cold["gained"]) == (
        False, 0, 2,
    )
    # Warm: REF DRAM and NMM both priced from the record.
    assert (warm["upper_cached"], warm["loaded"], warm["gained"]) == (
        True, 2, 0,
    )
    for result in (cold, warm):
        assert "repro.experiments.sampling" not in result["modules"]
    extra = leaked(warm["modules"], WARM_NOT_LOADED)
    assert not extra, f"a warm exact runner imported: {extra}"
