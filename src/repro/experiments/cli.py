"""Command-line entry point: ``python -m repro.experiments``.

Subcommands:

- ``tables`` — print Tables 1–4.
- ``figure N`` — regenerate one figure (1–10).
- ``reproduce-all`` — every table and figure in sequence.
- ``report [--out FILE]`` — full Markdown reproduction report with the
  claim scorecard.
- ``oracle WORKLOAD [--tech PCM]`` — run the NDM placement oracle.

- ``sweep`` — fault-tolerant design-space sweep with an on-disk
  result journal (``--journal``), exact resume (``--resume``), per-cell
  deadlines (``--cell-timeout``), keep-going semantics
  (``--keep-going``), and process-parallel execution (``--workers N``).
  Serial or parallel, every cell is evaluated once, prices its own
  design and is journalled as soon as it finishes; a failed cell
  re-runs on ``--resume``. With ``--screen-analytic K`` the full grid
  is first triaged by the analytic reuse-profile engine and only each
  workload's top-K designs re-simulate exactly. Parallel runs, and any
  run with ``--cell-timeout``, use the supervised worker pool — its
  watchdog SIGKILLs the worker of a cell past its deadline, dead
  workers respawn up to ``--max-worker-restarts``, cells that kill
  ``--poison-threshold`` successive workers are quarantined as
  ``poisoned``, and SIGINT or SIGTERM drains gracefully to an
  exact-resume journal.

- ``telemetry report DIR`` — summarize a telemetry directory written
  by a previous ``--telemetry DIR`` run (span digests, window stages,
  event counts); a pool run's report opens with a per-worker overview.
- ``telemetry trace DIR [--out FILE]`` — export a Chrome trace_event
  JSON timeline (Perfetto / chrome://tracing).
- ``telemetry diff BASELINE CANDIDATE`` — run-to-run regression diff
  (span growth gated by ``--span-pct`` / ``--span-min-s``; hit-rate,
  engine and sampled-hotspot gates at their defaults); exits 1 on
  regressions.
- ``telemetry flame DIR [--out FILE]`` — collapse a profiled run's
  ``profile.jsonl`` (root and workers) into one collapsed-stack
  ``flame.folded`` flamegraph file; the run itself writes none.
- ``telemetry serve DIR [--host H] [--port P]`` — HTTP/SSE service
  over a telemetry directory (finished or still running): /metrics,
  /events (resumable SSE tail), /runs, /runs/<id>/progress, /healthz,
  /readyz. ``sweep --serve [PORT]`` starts the same server in-process
  with the live run's metrics (workers included) and pool-heartbeat
  readiness.
- ``telemetry watch URL|DIR [--interval S] [--once]`` — live ANSI
  dashboard over a serve URL or a directory: progress bars, rolling
  hit-rate gauges, worker liveness, recent supervision events.

Common options: ``--scale`` (capacity/footprint scale), ``--seed``,
``--workloads`` (comma-separated subset of the suite), ``--drain``
(flush dirty blocks at end of stream instead of the default
steady-state accounting), ``--telemetry DIR`` (record spans, metrics,
and windowed time-series for the whole invocation), ``--profile [HZ]``
(with ``--telemetry``: continuous profiling — sampled wall-clock
stacks attributed to spans/cells, appended to ``profile.jsonl``; sweep
workers inherit the profiler).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.designs.configs import DEFAULT_SCALE
from repro.errors import ConfigError
from repro.experiments import figures as figures_mod
from repro.experiments import heatmap as heatmap_mod
from repro.experiments import tables as tables_mod
from repro.experiments.render import ascii_table, render_figure, render_heatmap
from repro.experiments.runner import Runner
from repro.telemetry.core import (
    DEFAULT_HZ,
    RunContext,
    Telemetry,
    get_active,
    new_run_id,
    set_active,
)
from repro.workloads.registry import SUITE, get_workload


def _parse_workloads(spec: str | None):
    if not spec:
        return None
    workloads = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            workloads.append(get_workload(name))
        except KeyError:
            raise SystemExit(
                f"error: unknown workload {name!r}; choose from {list(SUITE)}"
            ) from None
    if not workloads:
        raise SystemExit("error: --workloads selected nothing")
    return workloads


#: Default design grid for the ``sweep`` subcommand.
DEFAULT_SWEEP_DESIGNS = "REF,NMM:PCM:N6,NMM:STTRAM:N6,4LC:EDRAM:EH4"


def _parse_designs(spec: str, scale: float, reference):
    """Build designs from a comma-separated spec.

    Grammar per item: ``REF`` | ``NMM:<TECH>:<N#>`` |
    ``4LC:<TECH>:<EH#>`` | ``4LCNVM:<CACHE>:<NVM>:<EH#>``.
    """
    from repro.designs.configs import EH_CONFIGS, N_CONFIGS
    from repro.designs.fourlc import FourLCDesign
    from repro.designs.fourlcnvm import FourLCNVMDesign
    from repro.designs.nmm import NMMDesign
    from repro.designs.reference import ReferenceDesign
    from repro.tech.params import get_technology

    def tech(name: str):
        try:
            return get_technology(name)
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from None

    def config(table: dict, name: str, family: str):
        if name not in table:
            raise SystemExit(
                f"error: unknown {family} config {name!r}; "
                f"choose from {list(table)}"
            )
        return table[name]

    designs = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        kind = parts[0].upper()
        try:
            if kind == "REF" and len(parts) == 1:
                designs.append(
                    ReferenceDesign(scale=scale, reference=reference)
                )
            elif kind == "NMM" and len(parts) == 3:
                designs.append(NMMDesign(
                    tech(parts[1]), config(N_CONFIGS, parts[2].upper(), "N"),
                    scale=scale, reference=reference,
                ))
            elif kind == "4LC" and len(parts) == 3:
                designs.append(FourLCDesign(
                    tech(parts[1]), config(EH_CONFIGS, parts[2].upper(), "EH"),
                    scale=scale, reference=reference,
                ))
            elif kind == "4LCNVM" and len(parts) == 4:
                designs.append(FourLCNVMDesign(
                    tech(parts[1]), tech(parts[2]),
                    config(EH_CONFIGS, parts[3].upper(), "EH"),
                    scale=scale, reference=reference,
                ))
            else:
                raise SystemExit(
                    f"error: bad design spec {item!r}; expected REF, "
                    f"NMM:TECH:N#, 4LC:TECH:EH#, or 4LCNVM:CACHE:NVM:EH#"
                )
        except ConfigError as exc:
            raise SystemExit(f"error: design spec {item!r}: {exc}") from None
    if not designs:
        raise SystemExit("error: --designs selected nothing")
    return designs


def _screen_designs(args, runner: Runner, designs, workloads, top_k: int):
    """Phase 1 of ``sweep --screen-analytic K``: analytic triage.

    Runs the *full* campaign grid under the analytic engine (cheap:
    one profile pass per workload, O(1) per design), ranks each
    workload's designs by normalized EDP, and returns the union of the
    per-workload top-K — the only designs phase 2 re-simulates
    exactly. Screening results live in a separate ``.analytic``
    journal (analytic cells can never satisfy the exact campaign's
    resume — the engine class is part of every cell key).
    """
    from repro.resilience import Journal, SweepExecutor
    from repro.telemetry.progress import ProgressReporter

    screen_runner = Runner(
        scale=runner.scale, seed=runner.seed,
        reference=runner.reference,
        trace_cache_dir=runner.trace_cache_dir,
        drain=runner.drain, engine="analytic",
    )
    journal = Journal(f"{args.journal}.analytic") if args.journal else None
    executor = SweepExecutor(
        screen_runner,
        keep_going=True,
        journal=journal,
        resume=args.resume,
        progress=ProgressReporter(len(designs) * len(workloads)),
        workers=args.workers,
    )
    print(f"analytic screen: {len(designs)} design(s) x "
          f"{len(workloads)} workload(s), keeping top {top_k} per workload")
    result = executor.run(designs, workloads)
    by_workload: dict[str, list] = {}
    for outcome in result.evaluations:
        by_workload.setdefault(outcome.workload, []).append(outcome)
    if not by_workload:
        raise SystemExit(
            "error: analytic screening produced no usable cells:\n"
            + result.report()
        )
    keep: set[str] = set()
    for outcomes in by_workload.values():
        outcomes.sort(key=lambda o: o.evaluation.edp_norm)
        keep.update(o.design for o in outcomes[:top_k])
    screened = [design for design in designs if design.name in keep]
    dropped = len(designs) - len(screened)
    print(f"analytic screen kept {len(screened)} design(s) "
          f"({dropped} screened out): "
          + ", ".join(design.name for design in screened))
    return screened


def _run_resilient_sweep(args, runner: Runner, workloads) -> int:
    """Handler for the ``sweep`` subcommand."""
    from repro.experiments.sweep import summarize
    from repro.resilience import Journal, SweepExecutor
    from repro.experiments.sweep import SweepRecord
    from repro.workloads.registry import SUITE as suite_names

    if args.resume and not args.journal:
        raise SystemExit("error: --resume requires --journal")
    journal = None
    if args.journal:
        journal = Journal(args.journal)
        if journal.exists() and not args.resume:
            raise SystemExit(
                f"error: journal {args.journal} already exists; pass "
                f"--resume to continue that campaign or delete the file"
            )
    designs = _parse_designs(args.designs, args.scale, runner.reference)
    if workloads is None:
        workloads = [get_workload(name) for name in suite_names]
    from repro.telemetry.progress import ProgressReporter

    screen_k = getattr(args, "screen_analytic", None)
    if screen_k is not None:
        if screen_k < 1:
            raise SystemExit("error: --screen-analytic needs K >= 1")
        if args.engine == "analytic":
            raise SystemExit(
                "error: --screen-analytic confirms the screened top-K "
                "with exact simulation; pick an exact --engine "
                "(auto/scalar)"
            )
        designs = _screen_designs(args, runner, designs, workloads, screen_k)

    executor = SweepExecutor(
        runner,
        cell_timeout_s=args.cell_timeout,
        keep_going=args.keep_going,
        journal=journal,
        resume=args.resume,
        progress=ProgressReporter(len(designs) * len(workloads)),
        workers=args.workers,
        max_worker_restarts=args.max_worker_restarts,
        poison_threshold=args.poison_threshold,
    )
    server = None
    if getattr(args, "serve", None) is not None:
        if not args.telemetry:
            raise SystemExit(
                "error: --serve needs --telemetry DIR (the server tails "
                "the telemetry directory)"
            )
        from repro.telemetry.live import TelemetryServer

        active = get_active()
        server = TelemetryServer(
            args.telemetry,
            port=args.serve,
            telemetry=active if isinstance(active, Telemetry) else None,
            readiness=executor.pool_snapshot,
            journal=args.journal or None,
        ).start()
        print(f"live telemetry: {server.url}", file=sys.stderr)
    try:
        result = executor.run(designs, workloads)
    finally:
        if server is not None:
            server.stop()
    for outcome in result.outcomes:
        source = " (journal)" if outcome.from_journal else ""
        ev = outcome.evaluation
        detail = (
            f"time x{ev.time_norm:.3f} energy x{ev.energy_norm:.3f} "
            f"EDP x{ev.edp_norm:.3f}" if ev is not None else outcome.error
        )
        print(f"  [{outcome.status:9s}] {outcome.design}/{outcome.workload}"
              f"{source}: {detail}")
    records = [
        SweepRecord(design=o.design, workload=o.workload, evaluation=o.evaluation)
        for o in result.evaluations
    ]
    if records:
        print("\nper-design suite averages:")
        headers = ["design", "time", "energy", "EDP"]
        rows = [
            [s.design, f"{s.time_norm:.3f}", f"{s.energy_norm:.3f}",
             f"{s.edp_norm:.3f}"]
            for s in summarize(records)
        ]
        print(ascii_table(headers, rows))
    print()
    print(result.report())
    if args.journal:
        print(f"\njournal: {args.journal}")
    return 1 if result.failures else 0


def _print_tables() -> None:
    for number, fn in enumerate(
        (tables_mod.table1, tables_mod.table2, tables_mod.table3, tables_mod.table4),
        start=1,
    ):
        headers, rows = fn()
        print(f"\nTable {number}")
        print(ascii_table(headers, rows))


def _print_figure(
    number: int,
    runner: Runner,
    workloads,
    per_workload: bool = False,
    svg: str | None = None,
) -> None:
    if number in (9, 10):
        fn = heatmap_mod.figure9 if number == 9 else heatmap_mod.figure10
        hm = fn(runner, workloads)
        print()
        print(render_heatmap(hm))
        if svg:
            from repro.experiments.plot import heatmap_to_svg

            print(f"wrote {heatmap_to_svg(hm, svg)}")
        return
    fn = {
        1: figures_mod.figure1,
        2: figures_mod.figure2,
        3: figures_mod.figure3,
        4: figures_mod.figure4,
        5: figures_mod.figure5,
        6: figures_mod.figure6,
        7: figures_mod.figure7,
        8: figures_mod.figure8,
    }[number]
    fig = fn(runner, workloads)
    print()
    print(render_figure(fig))
    if svg:
        from repro.experiments.plot import figure_to_svg

        print(f"wrote {figure_to_svg(fig, svg)}")
    if per_workload:
        for label, by_category in fig.per_workload.items():
            print(f"\n  per-workload detail [{label}]:")
            for category, values in by_category.items():
                rendered = ", ".join(
                    f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in values.items()
                )
                print(f"    {category}: {rendered}")


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the CLUSTER 2014 "
        "emerging-memory evaluation.",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help=f"capacity/footprint scale (default {DEFAULT_SCALE:g})",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    parser.add_argument(
        "--drain", action="store_true",
        help="flush dirty blocks at end of stream at every level "
        "(steady-state accounting leaves them unflushed by default)",
    )
    parser.add_argument(
        "--trace-cache",
        type=str,
        default=None,
        help="directory for persistent trace caching (repeat runs skip "
        "workload re-execution and the L1–L3 replay)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "scalar", "analytic"),
        default="auto",
        help="cache simulation engine: 'auto' (default) vectorizes "
        "non-sectored LRU levels and prices one-cache LRU lower chains "
        "from counts, 'scalar' keeps the per-request loop on every "
        "level — the two are bit-identical; 'analytic' replaces each "
        "design's lower-level simulation with the one-pass reuse-profile "
        "model "
        "(exact for fully-associative LRU levels, approximate for "
        "set-associative ones — see docs/performance.md)",
    )
    parser.add_argument(
        "--sample", type=str, default=None, metavar="WARMUP:WINDOW:STRIDE",
        help="sampled simulation: per stride of the trace, simulate "
        "WARMUP events to re-warm cache state, measure the next WINDOW "
        "events, skip the rest, and extrapolate whole-stream stats "
        "(approximate — recorded fidelity; incompatible with --drain "
        "and --engine analytic; see docs/performance.md)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="log tracing/simulation progress",
    )
    parser.add_argument(
        "--telemetry", type=str, default=None, metavar="DIR",
        help="record telemetry (events.jsonl, with per-level window "
        "counters as window events, and metrics.prom) into DIR for "
        "this invocation",
    )
    parser.add_argument(
        "--profile", type=float, nargs="?", const=DEFAULT_HZ,
        default=None, metavar="HZ",
        help="with --telemetry: continuously profile this invocation — "
        "sample wall-clock stacks at HZ samples/s (default "
        f"{DEFAULT_HZ:g}) attributed to spans/cells "
        "(profile.jsonl; `telemetry flame DIR` renders the "
        "flamegraph); sweep workers profile too",
    )
    parser.add_argument(
        "--workloads",
        type=str,
        default=None,
        help=f"comma-separated subset of {list(SUITE)}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("tables", help="print Tables 1-4")
    fig = sub.add_parser("figure", help="regenerate one figure")
    fig.add_argument("number", type=int, choices=range(1, 11))
    fig.add_argument("--per-workload", action="store_true",
                     help="also print each workload's values")
    fig.add_argument("--svg", type=str, default=None,
                     help="also write the figure as an SVG chart")
    sub.add_parser("reproduce-all", help="all tables and figures")
    report = sub.add_parser("report", help="Markdown reproduction report")
    report.add_argument("--out", type=str, default=None,
                        help="write to a file instead of stdout")
    report.add_argument("--svg-dir", type=str, default=None,
                        help="also write every figure as SVG into this directory")
    oracle = sub.add_parser("oracle", help="NDM placement oracle for a workload")
    oracle.add_argument("workload", type=str, choices=list(SUITE))
    oracle.add_argument("--tech", type=str, default="PCM",
                        help="NVM technology (PCM/STTRAM/FeRAM)")
    heat = sub.add_parser("heatmap", help="figures 9/10 with custom factors")
    heat.add_argument("metric", choices=["time", "energy"])
    heat.add_argument("--factors", type=str, default="1,2,5,10,20",
                      help="comma-separated multipliers")
    heat.add_argument("--svg", type=str, default=None)
    sub.add_parser(
        "validate",
        help="check the cache engine against closed-form known answers",
    )
    sub.add_parser(
        "characterize",
        help="print the workload characterization table (reuse CDF, "
        "memory intensity, page locality)",
    )
    sweep = sub.add_parser(
        "sweep",
        help="fault-tolerant design-space sweep with journalling, "
        "resume, and per-cell deadlines",
    )
    sweep.add_argument(
        "--designs", type=str, default=DEFAULT_SWEEP_DESIGNS,
        help="comma-separated design specs: REF, NMM:TECH:N#, "
        f"4LC:TECH:EH#, 4LCNVM:CACHE:NVM:EH# (default {DEFAULT_SWEEP_DESIGNS})",
    )
    sweep.add_argument(
        "--journal", type=str, default=None,
        help="JSON-lines result journal; finished cells are appended "
        "durably so a killed campaign can resume",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="reuse completed cells from an existing --journal instead "
        "of re-evaluating them",
    )
    sweep.add_argument(
        "--cell-timeout", type=float, default=None,
        help="per-cell wall-clock deadline in seconds (default: none); "
        "runs the supervised worker pool, one worker unless --workers "
        "says more, whose watchdog kills the worker of a cell past it",
    )
    sweep.add_argument(
        "--keep-going", action="store_true",
        help="finish the whole grid even after failures (default: the "
        "first failure skips the remaining cells)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes evaluating cells (default 1: in-process "
        "unless --cell-timeout is set; N > 1 runs the supervised worker "
        "pool: crash recovery, work stealing, graceful drain)",
    )
    sweep.add_argument(
        "--max-worker-restarts", type=int, default=3,
        help="total respawn budget for dead pool workers before the "
        "campaign degrades (default 3)",
    )
    sweep.add_argument(
        "--poison-threshold", type=int, default=2,
        help="successive worker deaths one cell may cause before it is "
        "quarantined as poisoned (default 2)",
    )
    sweep.add_argument(
        "--screen-analytic", type=int, default=None, metavar="K",
        help="two-phase sweep: first screen the full grid with the "
        "analytic engine (one reuse-profile pass per workload), then "
        "re-simulate exactly only the union of each workload's top-K "
        "designs by EDP. Screening cells journal to "
        "<journal>.analytic; requires an exact --engine",
    )
    sweep.add_argument(
        "--serve", type=int, nargs="?", const=0, default=None,
        metavar="PORT",
        help="serve live telemetry over HTTP while the sweep runs "
        "(requires --telemetry): /metrics, /events (SSE), /runs, "
        "/runs/<id>/progress, /healthz, /readyz on 127.0.0.1:PORT "
        "(bare --serve picks an ephemeral port; URL printed to stderr)",
    )
    telem = sub.add_parser(
        "telemetry",
        help="inspect, export, or diff telemetry from --telemetry runs",
    )
    telem_sub = telem.add_subparsers(dest="action", required=True)
    telem_report = telem_sub.add_parser(
        "report",
        help="summarize a telemetry directory (run-aware: a pool "
        "sweep's report opens with a per-worker overview)",
    )
    telem_report.add_argument("dir", type=str,
                              help="telemetry directory to summarize")
    telem_report.add_argument(
        "--json", action="store_true",
        help="emit the full report (spans, engines, supervision, "
        "hotspots) as JSON instead of the text rendering",
    )
    telem_serve = telem_sub.add_parser(
        "serve",
        help="serve a telemetry directory over HTTP: /metrics "
        "(metrics.prom), /events (SSE tail with Last-Event-ID "
        "resume), /runs, /runs/<id>/progress, /healthz, /readyz; "
        "works on finished or still-running directories",
    )
    telem_serve.add_argument("dir", type=str,
                             help="telemetry directory to serve")
    telem_serve.add_argument(
        "--host", type=str, default=None,
        help="bind address (default 127.0.0.1; widening this exposes "
        "an unauthenticated read-only API)",
    )
    telem_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: ephemeral, printed to stderr)",
    )
    telem_watch = telem_sub.add_parser(
        "watch",
        help="live in-terminal dashboard over a telemetry serve URL "
        "or a telemetry directory: per-workload progress bars, "
        "rolling hit-rate gauges, worker liveness, supervision events",
    )
    telem_watch.add_argument(
        "target", type=str,
        help="a telemetry serve URL (http://...) or a telemetry "
        "directory to read directly",
    )
    telem_watch.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="redraw period in seconds (default 1.0)",
    )
    telem_watch.add_argument(
        "--once", action="store_true",
        help="render a single frame without ANSI control codes and "
        "exit (scripting / CI)",
    )
    telem_trace = telem_sub.add_parser(
        "trace",
        help="export a Chrome trace_event JSON timeline (one track per "
        "worker, async slices per sweep cell); open in Perfetto or "
        "chrome://tracing",
    )
    telem_trace.add_argument("dir", type=str,
                             help="telemetry directory")
    telem_trace.add_argument(
        "--out", type=str, default=None,
        help="output file (default DIR/trace.json)",
    )
    telem_diff = telem_sub.add_parser(
        "diff",
        help="compare two runs (span durations, hit rates, engine "
        "vector fractions, cell failures); exits 1 on regressions",
    )
    telem_diff.add_argument("baseline", type=str,
                            help="baseline telemetry directory")
    telem_diff.add_argument("candidate", type=str,
                            help="candidate telemetry directory")
    telem_diff.add_argument(
        "--span-pct", type=float, default=None, metavar="PCT",
        help="span regression: grew by more than PCT percent "
        "(default 25)",
    )
    telem_diff.add_argument(
        "--span-min-s", type=float, default=None, metavar="S",
        help="span regression: and grew by more than S seconds "
        "(default 0.05)",
    )
    telem_flame = telem_sub.add_parser(
        "flame",
        help="collapse a profiled run's profile.jsonl (root and "
        "workers) into one collapsed-stack flame.folded file "
        "(flamegraph.pl / speedscope input)",
    )
    telem_flame.add_argument("dir", type=str,
                             help="telemetry directory")
    telem_flame.add_argument(
        "--out", type=str, default=None,
        help="output file (default DIR/flame.folded)",
    )

    args = parser.parse_args(argv)
    if args.verbose:
        import logging

        logging.basicConfig(level=logging.INFO, format="%(message)s")
        logging.getLogger("repro").setLevel(logging.INFO)
    workloads = _parse_workloads(args.workloads)

    if args.profile is not None and not args.telemetry:
        parser.error("--profile requires --telemetry DIR (profiles are "
                     "written into the telemetry directory)")
    if args.profile is not None and args.profile <= 0:
        parser.error(f"--profile rate must be positive, got {args.profile:g}")

    telemetry = None
    if args.telemetry:
        telemetry = Telemetry(
            args.telemetry, run_context=RunContext(new_run_id())
        )
        if args.profile is not None:
            telemetry.enable_profiling(args.profile)
        set_active(telemetry)
    try:
        return _dispatch(args, workloads)
    finally:
        if telemetry is not None:
            set_active(None)
            telemetry.close()
            print(f"telemetry: {args.telemetry}", file=sys.stderr)


def _telemetry_command(args) -> int:
    """Handler for the ``telemetry`` subcommand family."""
    from pathlib import Path

    from repro.errors import TelemetryError
    from repro.telemetry import observatory
    from repro.telemetry.report import render_summary, summary_to_dict

    try:
        if args.action == "report":
            import json as json_mod

            aggregate = observatory.aggregate_run(args.dir)
            summary = observatory.summary_from_aggregate(aggregate)
            if args.json:
                print(json_mod.dumps(summary_to_dict(summary), indent=2))
                return 0
            if any(
                source != observatory.ROOT_WORKER
                for source in aggregate.sources
            ):
                print(observatory.render_run_overview(aggregate))
                print()
            print(render_summary(summary))
            return 0

        if args.action == "serve":
            import signal

            from repro.telemetry.live import DEFAULT_HOST, TelemetryServer

            root = Path(args.dir)
            if not root.is_dir():
                raise TelemetryError(f"no telemetry directory at {root}")
            journal = root / "campaign.jsonl"
            server = TelemetryServer(
                root,
                host=args.host or DEFAULT_HOST,
                port=args.port,
                journal=journal if journal.is_file() else None,
            ).start()
            print(f"serving telemetry from {root} at {server.url} "
                  f"(Ctrl-C to stop)", file=sys.stderr)
            try:
                signal.pause()
            except (KeyboardInterrupt, AttributeError):
                # AttributeError: no signal.pause() on Windows — fall
                # back to a sleep loop.
                if not hasattr(signal, "pause"):
                    import time as time_mod
                    try:
                        while True:
                            time_mod.sleep(3600)
                    except KeyboardInterrupt:
                        pass
            finally:
                server.stop()
            return 0

        if args.action == "watch":
            from repro.telemetry.live import watch

            return watch(
                args.target, interval_s=args.interval, once=args.once
            )

        if args.action == "trace":
            root = Path(args.dir)
            out = Path(args.out) if args.out else root / observatory.TRACE_FILE
            aggregate = observatory.aggregate_run(root)
            path = observatory.write_chrome_trace(aggregate, out)
            print(f"wrote {path} "
                  f"(open in https://ui.perfetto.dev or chrome://tracing)")
            return 0

        if args.action == "flame":
            from repro.telemetry import profiling

            root = Path(args.dir)
            aggregate = observatory.aggregate_run(root)
            if not aggregate.profiles:
                raise TelemetryError(
                    f"no profile samples under {root} — run the sweep "
                    "with --profile to record them"
                )
            out = Path(args.out) if args.out else root / profiling.FLAME_FILE
            path = profiling.write_flame(aggregate.profiles, out)
            samples = profiling.total_samples(aggregate.profiles)
            print(f"wrote {path} ({samples} samples; feed to "
                  f"flamegraph.pl or https://www.speedscope.app)")
            return 0

        # diff
        thresholds = observatory.DiffThresholds()
        if args.span_pct is not None:
            thresholds = dataclasses.replace(
                thresholds, span_pct=args.span_pct)
        if args.span_min_s is not None:
            thresholds = dataclasses.replace(
                thresholds, span_min_s=args.span_min_s)
        baseline = observatory.aggregate_run(args.baseline)
        candidate = observatory.aggregate_run(args.candidate)
        diff = observatory.diff_runs(baseline, candidate, thresholds)
        print(observatory.render_diff(diff))
        return 0 if diff.ok else 1
    except TelemetryError as exc:
        raise SystemExit(f"error: {exc}") from None


def _dispatch(args, workloads) -> int:
    """Run the selected subcommand (telemetry already activated)."""
    if args.command == "telemetry":
        return _telemetry_command(args)

    if args.command == "tables":
        _print_tables()
        return 0

    if args.command == "validate":
        from repro.experiments.validate import validate_simulator

        checks = validate_simulator()
        width = max(len(c.name) for c in checks)
        failed = 0
        for check in checks:
            status = "ok  " if check.passed else "FAIL"
            failed += 0 if check.passed else 1
            print(f"  [{status}] {check.name:{width}s} "
                  f"expected {check.expected:.4f} measured {check.measured:.4f} "
                  f"(tol {check.tolerance:g})")
        print(f"{len(checks) - failed}/{len(checks)} analytical checks passed")
        return 1 if failed else 0

    try:
        runner = Runner(
            scale=args.scale, seed=args.seed,
            trace_cache_dir=args.trace_cache,
            drain=args.drain, engine=args.engine, sample=args.sample,
        )
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}") from None
    try:
        return _run_command(args, runner, workloads)
    finally:
        runner.save_lower_records()


def _run_command(args, runner: Runner, workloads) -> int:
    """Run a subcommand that evaluates designs with ``runner``."""
    if args.command == "figure":
        _print_figure(args.number, runner, workloads,
                      per_workload=args.per_workload, svg=args.svg)
        return 0

    if args.command == "sweep":
        return _run_resilient_sweep(args, runner, workloads)

    if args.command == "report":
        from repro.experiments.report import generate_report, render_markdown

        report_data = generate_report(runner, workloads)
        text = render_markdown(report_data, args.scale)
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(text)
            print(f"wrote {args.out} ({len(text.splitlines())} lines)")
        else:
            print(text)
        if args.svg_dir:
            from pathlib import Path

            from repro.experiments.plot import figure_to_svg, heatmap_to_svg

            directory = Path(args.svg_dir)
            directory.mkdir(parents=True, exist_ok=True)
            for fig in report_data.figures.values():
                name = fig.figure.lower().replace(" ", "")
                print(f"wrote {figure_to_svg(fig, directory / (name + '.svg'))}")
            for hm in report_data.heatmaps.values():
                name = hm.figure.lower().replace(" ", "")
                print(f"wrote {heatmap_to_svg(hm, directory / (name + '.svg'))}")
        return 0

    if args.command == "characterize":
        from repro.experiments.characterize import characterize, render_profiles

        suite = workloads or [get_workload(name) for name in SUITE]
        profiles = [characterize(runner, workload) for workload in suite]
        print()
        print(render_profiles(profiles))
        return 0

    if args.command == "heatmap":
        try:
            factors = tuple(
                float(f) for f in args.factors.split(",") if f.strip()
            )
        except ValueError:
            raise SystemExit(
                f"error: bad --factors {args.factors!r}; expected e.g. 1,2,5"
            ) from None
        if not factors or any(f <= 0 for f in factors):
            raise SystemExit("error: factors must be positive numbers")
        fn = heatmap_mod.figure9 if args.metric == "time" else heatmap_mod.figure10
        hm = fn(runner, workloads, factors=factors)
        print()
        print(render_heatmap(hm))
        if args.svg:
            from repro.experiments.plot import heatmap_to_svg

            print(f"wrote {heatmap_to_svg(hm, args.svg)}")
        return 0

    if args.command == "oracle":
        from repro.tech.params import get_technology

        try:
            tech = get_technology(args.tech)
        except KeyError:
            raise SystemExit(
                f"error: unknown technology {args.tech!r}"
            ) from None
        workload = get_workload(args.workload)
        placements = runner.ndm_oracle(workload, tech)
        print(f"NDM oracle: {workload.name}, NVM = {tech.name}")
        for result in placements:
            ev = result.evaluation
            flag = "ok" if result.feasible else "infeasible"
            print(f"  [{flag:10s}] {result.label}: "
                  f"time x{ev.time_norm:.3f} energy x{ev.energy_norm:.3f} "
                  f"EDP x{ev.edp_norm:.3f}")
        return 0

    # reproduce-all
    with get_active().span("cli.reproduce_all", scale=args.scale) as span:
        _print_tables()
        for number in range(1, 11):
            _print_figure(number, runner, workloads)
    print(f"\nreproduced all tables and figures in "
          f"{span.duration_s:.1f}s (scale={args.scale:g})")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
