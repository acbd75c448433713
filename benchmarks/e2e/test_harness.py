"""Self-tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/e2e``.
"""

from __future__ import annotations

import json

import pytest

import compare
import harness
import layers
import run


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clocked():
    clock = FakeClock()
    return clock, layers.SpanRecorder(clock=clock)


def spanned(rec, layer, fn, *args):
    return rec.call(layer, fn, args, {})


def test_self_time_subtracts_nested_children(clocked):
    clock, rec = clocked

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        spanned(rec, "cache.lower", inner)
        clock.advance(0.5)

    spanned(rec, "runner", outer)
    assert rec.self_s == {"runner": 1.5, "cache.lower": 2.0}
    assert rec.busy_s == 3.5
    assert dict(rec.calls) == {"runner": 1, "cache.lower": 1}


def test_reentrant_layer_is_one_span_but_hooks_still_count(clocked):
    clock, rec = clocked

    def count(r, note, result, duration, args):
        r.add("batches")

    def batch():
        clock.advance(1.0)

    def run_all():
        for _ in range(3):
            rec.call("cache.upper", batch, (), {}, None, count)

    spanned(rec, "cache.upper", run_all)
    assert rec.self_s == {"cache.upper": 3.0}
    assert rec.calls["cache.upper"] == 1
    assert rec.counts["batches"] == 3


def test_indirect_reentry_keeps_self_times_disjoint(clocked):
    clock, rec = clocked

    def leaf():
        clock.advance(4.0)

    def middle():
        clock.advance(1.0)
        spanned(rec, "runner", leaf)

    def top():
        clock.advance(2.0)
        spanned(rec, "model", middle)

    spanned(rec, "runner", top)
    assert rec.self_s == {"runner": 6.0, "model": 1.0}
    assert rec.busy_s == 7.0


def test_exception_closes_the_span(clocked):
    clock, rec = clocked

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        spanned(rec, "journal", boom)
    assert rec.self_s == {"journal": 1.0}
    assert rec.current_layer() is None


def test_worker_rewrites_its_record_at_each_outermost_exit(tmp_path):
    clock = FakeClock()
    rec = layers.SpanRecorder(clock=clock, record_dir=tmp_path)
    rec.root_pid = -1  # as in a forked worker

    def work():
        clock.advance(1.0)

    spanned(rec, "model", work)
    spanned(rec, "model", work)
    (record,) = layers.read_records(tmp_path)
    assert record["root"] is False
    assert record["self_s"] == {"model": 2.0}
    assert record["busy_s"] == 2.0


def _record(root, self_s, counts=None, busy_s=0.0, workloads=()):
    return {
        "pid": 1 if root else 2, "root": root, "self_s": self_s,
        "calls": {layer: 1 for layer in self_s}, "counts": counts or {},
        "workloads": list(workloads), "busy_s": busy_s,
    }


def test_merge_sums_workers_but_unattributed_uses_the_parent_timeline():
    parent = _record(True, {"executor": 0.5, "pool": 6.0, "journal": 0.5},
                     counts={"pool.slot_s": 12.0})
    workers = [
        _record(False, {"cache.upper": 2.0, "cache.lower": 3.0}, busy_s=5.0,
                counts={"cache.upper.replays": 2}, workloads=("CG", "BT")),
        _record(False, {"cache.upper": 1.0, "cache.lower": 4.0}, busy_s=5.5,
                counts={"cache.upper.replays": 2}, workloads=("CG", "BT")),
    ]
    metrics = layers.layer_metrics([parent, *workers], wall_s=8.0, startup_s=0.5)
    assert metrics["cache.upper.busy_s"] == 3.0
    assert metrics["cache.lower.busy_s"] == 7.0
    assert metrics["pool.wait_s"] == 6.0
    assert metrics["unattributed_s"] == pytest.approx(0.5)
    assert metrics["unattributed_frac"] == pytest.approx(0.5 / 8.0)
    assert metrics["pool.worker_busy_frac"] == pytest.approx(10.5 / 12.0)
    assert metrics["cache.upper.replays_per_workload"] == 2.0
    assert metrics["trace.arena.publish_ratio"] == 0.0


def test_merge_needs_exactly_one_parent():
    with pytest.raises(ValueError):
        layers.layer_metrics([_record(False, {})], wall_s=1.0, startup_s=0.1)


def test_summary_median_and_quartiles():
    summary = harness.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (summary["median"], summary["q1"], summary["q3"]) == (3.0, 1.5, 4.5)
    assert (summary["min"], summary["max"], summary["n"]) == (1.0, 5.0, 5)
    assert harness.spread(summary) == 1.0
    single = harness.summarize([2.0])
    assert single["q1"] == single["q3"] == single["median"] == 2.0


def test_stdout_digest_ignores_only_the_timing_footer():
    body = "\nTable 1\nx 1.000\n"
    a = body + "\nreproduced all tables and figures in 3.1s (scale=0.00012207)\n"
    b = body + "\nreproduced all tables and figures in 9.7s (scale=0.00012207)\n"
    assert harness.stdout_digest(a) == harness.stdout_digest(b)
    assert harness.stdout_digest(a) != harness.stdout_digest(body.replace("1.000", "1.001"))


def test_journal_digest_ignores_run_identity_and_order():
    first = {"key": "k1", "status": "ok", "evaluation": {"edp_norm": 0.5},
             "run_id": "a", "attempts": 1, "duration_s": 0.1}
    second = {"key": "k2", "status": "ok", "engine_class": "analytic",
              "evaluation": {"edp_norm": 0.7}, "run_id": "a", "attempts": 1,
              "duration_s": 0.2}
    again = [dict(second, run_id="b", duration_s=9.0),
             dict(first, run_id="b", attempts=2)]
    assert harness.journal_digest([first, second]) == harness.journal_digest(again)
    changed = dict(first, evaluation={"edp_norm": 0.51})
    assert harness.journal_digest([changed, second]) != harness.journal_digest([first, second])
    explicit = dict(first, engine_class="exact")
    assert harness.journal_digest([explicit]) == harness.journal_digest([first])


def test_norm_err_max_compares_figure_values_only():
    exact = "Table 1\nPCM 21 100\n\nFigure 1: t\nPCM  1.368  1.272\nHMC  0.500  0.400\n"
    sampled = "Table 1\nPCM 21 100\n\nFigure 1: t\nPCM  1.300  1.280\nHMC  0.500  0.410\n"
    assert harness.norm_err_max(sampled, exact) == pytest.approx(0.068)
    with pytest.raises(ValueError):
        harness.norm_err_max(sampled.replace("HMC", "PCM"), exact)
    with pytest.raises(ValueError):
        harness.norm_err_max(sampled + "extra 1.0\n", exact)


def test_screen_recall_and_top_designs():
    records = [
        {"workload": "CG", "design": d, "status": "ok", "evaluation": {"edp_norm": e}}
        for d, e in (("A", 0.3), ("B", 0.1), ("C", 0.2), ("D", 0.9))
    ] + [{"workload": "CG", "design": "E", "status": "failed", "evaluation": None}]
    top = harness.top_designs(records, k=3)
    assert top == {"CG": ["B", "C", "A"]}
    assert harness.screen_recall({"B", "A", "D"}, top) == pytest.approx(2 / 3)


def test_input_seed_selects_a_committed_reference():
    assert harness.input_seed(0) == 0
    assert harness.input_seed(harness.REFERENCE_SEEDS + 1) == 1
    reference = harness.load_reference()
    for workload in harness.WORKLOADS:
        assert len(reference["digests"][workload]) == harness.REFERENCE_SEEDS
    for seed in range(harness.REFERENCE_SEEDS):
        text = (harness.REFERENCE_DIR / f"reproduce-exact-seed{seed}.txt").read_text()
        assert harness.stdout_digest(text) == reference["digests"]["reproduce-exact"][str(seed)]


def _summary(samples):
    return harness.summarize(samples)


def test_comparator_flags_regressions_beyond_the_bound():
    base = _summary([10.0, 10.1, 9.9, 10.0, 10.0])
    within = _summary([10.8, 10.9, 10.7, 10.8, 10.8])
    beyond = _summary([11.5, 11.6, 11.4, 11.5, 11.5])
    assert compare.judge(base, within, "lower", 0.1, True)[1] == "unchanged"
    worsening, status = compare.judge(base, beyond, "lower", 0.1, True)
    assert status == "regressed" and worsening == pytest.approx(0.15)
    assert compare.judge(beyond, base, "higher", 0.1, True)[1] == "regressed"


def test_comparator_reports_wide_spreads_as_unresolved():
    base = _summary([10.0, 10.1, 9.9, 10.0, 10.0])
    noisy = _summary([8.0, 12.0, 10.0, 9.0, 11.5])
    assert compare.judge(base, noisy, "lower", 0.1, True)[1] == "unresolved"
    clearly_better = _summary([5.0, 8.0, 6.5, 9.5, 7.0])
    assert compare.judge(base, clearly_better, "lower", 0.1, True)[1] == "unchanged"


def test_comparator_absolute_bounds():
    base, same = _summary([0.07, 0.07]), _summary([0.074, 0.074])
    assert compare.judge(base, same, "lower", 0.005, False)[1] == "unchanged"
    worse = _summary([0.08, 0.08])
    assert compare.judge(base, worse, "lower", 0.005, False)[1] == "regressed"
    recall, lost = _summary([0.8, 0.8]), _summary([0.75, 0.75])
    assert compare.judge(recall, lost, "higher", 0.0, False)[1] == "regressed"


def test_compare_rows_are_per_workload():
    metric = {"unit": "s", **_summary([1.0, 1.0, 1.0])}
    result = {"workloads": {w: {"metrics": {"wall_s": metric}} for w in ("a", "b")}}
    rows = compare.compare(result, result, {"wall_s": ("lower", 0.1, True)})
    assert [(r["workload"], r["status"]) for r in rows] == [("a", "unchanged"), ("b", "unchanged")]


def test_benchmark_json_matches_what_run_reports():
    benchmark = json.loads(compare.BENCHMARK_JSON.read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == run.PER_LAYER
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def test_commands_pin_scale_seed_and_grids(tmp_path):
    argv = harness.command("sweep-screen", 13, tmp_path / "c", tmp_path / "s")
    assert argv[argv.index("--seed") + 1] == "3"
    assert float(argv[argv.index("--scale") + 1]) == 1 / 8192
    assert len(argv[argv.index("--designs") + 1].split(",")) == 92
    pool = harness.command("sweep-pool", 0, tmp_path / "c", tmp_path / "s")
    assert len(pool[pool.index("--designs") + 1].split(",")) == 18
    assert pool[pool.index("--workers") + 1] == "2"
