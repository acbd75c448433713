"""``reproduce-all`` output is pinned to the end-to-end benchmark's digests.

Runs the benchmark's own ``reproduce-exact`` and ``reproduce-sampled``
command lines (``benchmarks/e2e/harness.py``, input seed 0, a fresh
trace cache) and compares each stdout digest with the one committed in
``benchmarks/e2e/reference/reference.json``. Any change to a figure,
table or sampled estimate fails here; an intended change regenerates
the reference with ``benchmarks/e2e/make_reference.py``. The benchmark
files are only read.
"""

import difflib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "harness.py"


def load_harness():
    spec = importlib.util.spec_from_file_location("e2e_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["reproduce-exact", "reproduce-sampled"])
def test_reproduce_all_matches_reference_digest(tmp_path, workload):
    harness = load_harness()
    cache, run_dir = tmp_path / "cache", tmp_path / "run"
    cache.mkdir()
    run_dir.mkdir()
    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments",
         *harness.command(workload, 0, cache, run_dir)],
        cwd=harness.ROOT, env=harness.program_env(),
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    expected = harness.load_reference()["digests"][workload]["0"]
    if harness.stdout_digest(done.stdout) != expected:
        exact = (harness.REFERENCE_DIR / "reproduce-exact-seed0.txt").read_text()
        diff = difflib.unified_diff(
            exact.splitlines(), harness.normalize_stdout(done.stdout).splitlines(),
            "reproduce-exact-seed0.txt", workload, lineterm="",
        )
        pytest.fail(
            f"{workload} output differs from its reference digest; diff "
            f"against the exact reference:\n" + "\n".join(list(diff)[:80])
        )
