"""Compare two end-to-end benchmark results against the fixed bounds.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

``BASE.json`` and ``NEW.json`` are ``run.py --out`` files. For every
workload and metric both hold, the new median may be worse than the
base median by at most the metric's bound: a share of the base median
for the end-to-end metrics of ``BENCHMARK.json``, an absolute amount
for the quality metrics below. A pair whose quartile spread on either
side is wider than the bound is "unresolved", not "unchanged", unless
every new run reads better than every base run. Each workload gets its
own rows. Exits 1 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness

BENCHMARK_JSON = harness.ROOT / "BENCHMARK.json"

#: Quality metrics: (better direction, absolute bound).
ABSOLUTE_BOUNDS = {
    "failed_frac": ("lower", 0.0),
    "norm_err_max": ("lower", 0.005),
    "screen_recall": ("higher", 0.0),
}


def bounds_from(benchmark: dict) -> dict[str, tuple[str, float, bool]]:
    """Metric -> (better, bound, relative) for every bounded metric."""
    bounds = {
        m["name"]: (m["better"], m["bound"], True) for m in benchmark["end_to_end"]
    }
    bounds.update(
        {name: (better, bound, False) for name, (better, bound) in ABSOLUTE_BOUNDS.items()}
    )
    return bounds


def judge(base: dict, new: dict, better: str, bound: float, relative: bool) -> tuple[float, str]:
    """``(worsening, status)`` of one metric's two summaries.

    ``worsening`` is how much worse the new median is (negative when
    better), as a share of the base median when ``relative``.
    """
    sign = 1 if better == "lower" else -1
    worsening = sign * (new["median"] - base["median"])
    if relative:
        worsening /= abs(base["median"])

    def width(summary: dict) -> float:
        return harness.spread(summary) if relative else summary["q3"] - summary["q1"]

    if max(width(base), width(new)) > bound:
        worst_new = max(sign * v for v in new["samples"])
        best_base = min(sign * v for v in base["samples"])
        return worsening, "unchanged" if worst_new < best_base else "unresolved"
    return worsening, "regressed" if worsening > bound else "unchanged"


def compare(base: dict, new: dict, bounds: dict) -> list[dict]:
    """One row per (workload, metric) present in both results."""
    rows = []
    for workload, base_result in base["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            continue
        for name, (better, bound, relative) in bounds.items():
            if name not in base_result["metrics"] or name not in new_result["metrics"]:
                continue
            b, n = base_result["metrics"][name], new_result["metrics"][name]
            worsening, status = judge(b, n, better, bound, relative)
            rows.append({
                "workload": workload, "metric": name, "base": b["median"],
                "new": n["median"], "worsening": worsening, "bound": bound,
                "relative": relative, "status": status,
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':18s} {'metric':14s} {'base':>10s} {'new':>10s} "
             f"{'worse by':>9s} {'bound':>7s}  status"]
    for r in rows:
        fmt = (lambda v: f"{100 * v:+.1f}%") if r["relative"] else (lambda v: f"{v:+.4f}")
        bound = f"{100 * r['bound']:.0f}%" if r["relative"] else f"{r['bound']:.3f}"
        lines.append(
            f"{r['workload']:18s} {r['metric']:14s} {r['base']:10.4g} "
            f"{r['new']:10.4g} {fmt(r['worsening']):>9s} {bound:>7s}  {r['status']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK_JSON)
    args = parser.parse_args(argv)
    bounds = bounds_from(json.loads(args.benchmark.read_text()))
    rows = compare(
        json.loads(args.base.read_text()), json.loads(args.new.read_text()), bounds
    )
    print(render(rows))
    return 1 if any(r["status"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
