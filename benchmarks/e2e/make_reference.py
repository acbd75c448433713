"""Regenerate the committed reference outputs in ``reference/``.

Usage, from the repository root::

    python3 benchmarks/e2e/make_reference.py

For every input set it runs each workload once and stores its output
digest, the exact ``reproduce-all`` stdout (which ``norm_err_max`` is
measured against) and the exact per-workload top designs of the
92-design grid (which ``screen_recall`` is measured against). It also
checks that the ``sweep-pool`` campaign gives the same journal digest
with one worker as with two. Only a change that means to alter the
program's outputs should rerun it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness


def _run(argv: list[str]) -> str:
    """Run one command to completion; its stdout."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *argv], cwd=harness.ROOT,
        env=harness.program_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, check=True,
    )
    return done.stdout


def _sweep_records(argv: list[str], run_dir: Path) -> list[dict]:
    _run(argv)
    records = [r for p in harness.journal_paths(run_dir) for r in harness.read_journal(p)]
    shutil.rmtree(run_dir)
    run_dir.mkdir()
    return records


def _replace(argv: list[str], flag: str, value: str | None) -> list[str]:
    """``argv`` with ``flag``'s value changed, or the flag dropped (None)."""
    i = argv.index(flag)
    return argv[:i] + ([flag, value] if value is not None else []) + argv[i + 2:]


def reference_for(seed: int, work: Path) -> dict:
    """Digests and exact data of one input set."""
    cache, run_dir = work / f"cache-{seed}", work / "run"
    cache.mkdir()
    run_dir.mkdir(exist_ok=True)
    out: dict = {"digests": {}}
    for workload in harness.WORKLOADS:
        argv = harness.command(workload, seed, cache, run_dir)
        if workload.startswith("reproduce"):
            stdout = _run(argv)
            out["digests"][workload] = harness.stdout_digest(stdout)
            if workload == "reproduce-exact":
                exact = stdout
                path = harness.REFERENCE_DIR / f"reproduce-exact-seed{seed}.txt"
                path.write_text(harness.normalize_stdout(stdout) + "\n")
            else:
                out["norm_err_max"] = harness.norm_err_max(stdout, exact)
            continue
        records = _sweep_records(argv, run_dir)
        if any(r["status"] != "ok" for r in records):
            raise SystemExit(f"{workload} seed {seed}: failed cells")
        out["digests"][workload] = harness.journal_digest(records)
        if workload == "sweep-screen":
            kept = {r["design"] for r in records if "engine_class" not in r}
            full = _sweep_records(_replace(argv, "--screen-analytic", None), run_dir)
            out["screen_top"] = harness.top_designs(full)
            out["screen_recall"] = harness.screen_recall(kept, out["screen_top"])
        if workload == "sweep-pool":
            serial = _sweep_records(_replace(argv, "--workers", "1"), run_dir)
            if harness.journal_digest(serial) != out["digests"][workload]:
                raise SystemExit(f"sweep-pool seed {seed}: --workers 1 differs")
    return out


def main() -> int:
    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    harness.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=harness.WORK_ROOT, prefix="reference-"))
    try:
        per_seed = {seed: reference_for(seed, work)
                    for seed in range(harness.REFERENCE_SEEDS)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {
        "scale": harness.SCALE,
        "digests": {
            workload: {str(s): per_seed[s]["digests"][workload] for s in per_seed}
            for workload in harness.WORKLOADS
        },
        "screen_top": {str(s): per_seed[s]["screen_top"] for s in per_seed},
        "norm_err_max": {str(s): per_seed[s]["norm_err_max"] for s in per_seed},
        "screen_recall": {str(s): per_seed[s]["screen_recall"] for s in per_seed},
        "sweep_pool_workers1_matches": True,
    }
    path = harness.REFERENCE_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
