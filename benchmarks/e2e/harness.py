"""Workload definitions and pure helpers of the end-to-end benchmark.

Everything here is deterministic and free of subprocesses, so the
self-tests in ``test_harness.py`` exercise it directly: the command
lines of the four workloads, output digests, the approximation-error
and screen-recall checks, and the median/quartile summaries every
metric is reported with.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REFERENCE_DIR = HERE / "reference"
#: Per-run trace caches, journals and telemetry (git-ignored).
WORK_ROOT = HERE / ".work"

#: Capacity/footprint scale of every run (1/8192). A ledger of about 90
#: benchmark runs, each with three cold set-ups, has to fit in an hour
#: on a 2-core host; that rules out the 1/1024 of the older BENCH
#: files, where one warm ``reproduce-all`` alone takes ~23 s.
SCALE = 0.0001220703125

#: Input sets with committed reference outputs. ``--seed n`` selects
#: input set ``n % REFERENCE_SEEDS``, so every run's outputs are checked
#: against committed digests. Seed 0 is the default; seed 1 is held out
#: for confirming claims.
REFERENCE_SEEDS = 10

SAMPLE_SPEC = "500:2000:5000"
SCREEN_TOP_K = 3
POOL_WORKERS = 2

#: The full NMM / 4LC / 4LCNVM grid of the paper's design space
#: (92 designs): REF, NMM {PCM, STTRAM, FeRAM} x N1-N9, 4LC {eDRAM, HMC}
#: x EH1-EH8, 4LCNVM {eDRAM, HMC} x {PCM, STTRAM, FeRAM} x EH1-EH8.
SCREEN_GRID = tuple(
    ["REF"]
    + [f"NMM:{t}:N{i}" for t in ("PCM", "STTRAM", "FERAM") for i in range(1, 10)]
    + [f"4LC:{t}:EH{i}" for t in ("EDRAM", "HMC") for i in range(1, 9)]
    + [
        f"4LCNVM:{c}:{n}:EH{i}"
        for c in ("EDRAM", "HMC")
        for n in ("PCM", "STTRAM", "FERAM")
        for i in range(1, 9)
    ]
)

#: An 18-design production-campaign grid touching every family.
POOL_GRID = (
    "REF",
    "NMM:PCM:N1", "NMM:PCM:N3", "NMM:PCM:N6", "NMM:PCM:N9",
    "NMM:STTRAM:N6", "NMM:FERAM:N6",
    "4LC:EDRAM:EH1", "4LC:EDRAM:EH4", "4LC:EDRAM:EH8",
    "4LC:HMC:EH1", "4LC:HMC:EH4",
    "4LCNVM:EDRAM:PCM:EH1", "4LCNVM:EDRAM:PCM:EH4",
    "4LCNVM:EDRAM:STTRAM:EH4", "4LCNVM:EDRAM:FERAM:EH4",
    "4LCNVM:HMC:PCM:EH4", "4LCNVM:HMC:STTRAM:EH4",
)

#: Workload name -> why it is in the benchmark.
WORKLOADS = {
    "reproduce-exact": "the paper's figures; lower-level replay dominates, "
    "one design per Runner.evaluate, no SimPlan sharing",
    "reproduce-sampled": "the same figures through sampled windows; the "
    "only workload whose approximation error can worsen",
    "sweep-screen": "92-design analytic screen plus exact confirm; upper "
    "replay, profile, model and journal dominate",
    "sweep-pool": "18-design campaign on the 2-worker supervised pool with "
    "telemetry; pool, trace arena and telemetry I/O",
}


def program_env() -> dict[str, str]:
    """The environment that lets a subprocess import ``repro``."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def input_seed(seed: int) -> int:
    """The workload RNG seed a benchmark ``--seed`` selects."""
    return seed % REFERENCE_SEEDS


def command(workload: str, seed: int, cache: Path, run_dir: Path) -> list[str]:
    """``python -m repro.experiments`` arguments of one run.

    ``cache`` is the trace-cache directory; ``run_dir`` an empty
    directory for the run's journals and telemetry.
    """
    common = [
        "--scale", repr(SCALE), "--seed", str(input_seed(seed)),
        "--trace-cache", str(cache),
    ]
    journal = ["--journal", str(run_dir / "campaign.jsonl"), "--keep-going"]
    if workload == "reproduce-exact":
        return common + ["--engine", "auto", "reproduce-all"]
    if workload == "reproduce-sampled":
        return common + ["--sample", SAMPLE_SPEC, "reproduce-all"]
    if workload == "sweep-screen":
        return common + [
            "sweep", "--designs", ",".join(SCREEN_GRID),
            "--screen-analytic", str(SCREEN_TOP_K),
        ] + journal
    if workload == "sweep-pool":
        return common + [
            "--telemetry", str(run_dir / "telemetry"),
            "sweep", "--designs", ",".join(POOL_GRID),
            "--workers", str(POOL_WORKERS),
        ] + journal
    raise ValueError(f"unknown workload {workload!r}")


def journal_paths(run_dir: Path) -> list[Path]:
    """The journals a sweep run leaves in its run directory."""
    main = run_dir / "campaign.jsonl"
    return [main, Path(f"{main}.analytic")]


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------

_FOOTER = re.compile(r"^reproduced all tables and figures in ")


def normalize_stdout(text: str) -> str:
    """``reproduce-all`` stdout without its timing footer line."""
    return "\n".join(
        line for line in text.splitlines() if not _FOOTER.match(line)
    )


def stdout_digest(text: str) -> str:
    """SHA-256 of normalized ``reproduce-all`` stdout."""
    return hashlib.sha256(normalize_stdout(text).encode()).hexdigest()


def read_journal(path: Path) -> list[dict]:
    """Every record of a JSON-lines journal (missing file: none)."""
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def journal_digest(records: list[dict]) -> str:
    """SHA-256 of the sorted ``(key, status, engine_class, evaluation)``.

    ``run_id``, ``attempts`` and ``duration_s`` differ between equal
    campaigns and are left out; a missing ``engine_class`` is exact.
    """
    lines = sorted(
        json.dumps(
            [r["key"], r["status"], r.get("engine_class", "exact"),
             r.get("evaluation")],
            sort_keys=True,
        )
        for r in records
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ----------------------------------------------------------------------
# Approximation quality
# ----------------------------------------------------------------------

_NUMBER = re.compile(r"-?\d+\.\d+")


def norm_err_max(sampled: str, exact: str) -> float:
    """Largest |sampled - exact| over every value the figures print.

    Compares the two ``reproduce-all`` outputs line by line from the
    first figure on (the tables are constants).

    Raises:
        ValueError: the outputs differ in anything but the numbers.
    """

    def figure_lines(text: str) -> list[str]:
        lines = normalize_stdout(text).splitlines()
        start = next(
            (i for i, line in enumerate(lines) if line.startswith("Figure ")),
            len(lines),
        )
        return lines[start:]

    sampled_lines, exact_lines = figure_lines(sampled), figure_lines(exact)
    if len(sampled_lines) != len(exact_lines) or not exact_lines:
        raise ValueError("sampled and exact figures differ in shape")
    worst = 0.0
    for ours, theirs in zip(sampled_lines, exact_lines):
        if _NUMBER.sub("#", ours).split() != _NUMBER.sub("#", theirs).split():
            raise ValueError(f"figure lines differ: {ours!r} vs {theirs!r}")
        for a, b in zip(_NUMBER.findall(ours), _NUMBER.findall(theirs)):
            worst = max(worst, abs(float(a) - float(b)))
    return worst


def top_designs(records: list[dict], k: int = SCREEN_TOP_K) -> dict[str, list[str]]:
    """Per workload, the ``k`` designs of lowest EDP among ok records."""
    by_workload: dict[str, list[tuple[float, str]]] = {}
    for r in records:
        if r["status"] == "ok":
            by_workload.setdefault(r["workload"], []).append(
                (r["evaluation"]["edp_norm"], r["design"])
            )
    return {
        workload: [design for _, design in sorted(ranked)[:k]]
        for workload, ranked in sorted(by_workload.items())
    }


def screen_recall(kept: set[str], top: dict[str, list[str]]) -> float:
    """Share of the exact per-workload top designs the screen kept."""
    wanted = [design for designs in top.values() for design in designs]
    if not wanted:
        raise ValueError("no reference designs to recall")
    return sum(design in kept for design in wanted) / len(wanted)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, quartiles, min, max and count of one metric's samples.

    Quartiles are ``statistics.quantiles(values, n=4)``; with fewer
    than two samples they collapse onto the median.
    """
    if not values:
        raise ValueError("no samples to summarize")
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
        "samples": list(values),
    }


def spread(summary: dict) -> float:
    """Quartile distance as a share of the median (0 for a 0 median)."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def load_reference() -> dict:
    """The committed digests and exact top designs."""
    return json.loads((REFERENCE_DIR / "reference.json").read_text())
