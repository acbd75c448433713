"""The experiment runner.

Key observation (also exploited by the paper's online framework): the
L1/L2/L3 SRAM levels are identical in every design, so their simulation
— by far the most expensive part, since they see every program
reference — can run once per workload. The runner:

1. traces each workload once per (scale, seed),
2. runs the trace through the shared SRAM pyramid once, capturing the
   post-L3 request stream (L3 fills + writebacks), and
3. evaluates each design configuration by running only its lower
   levels (L4 cache and/or memory devices) on that captured stream.

With a trace cache, step 2's result is persisted next to the trace as
an *upper record*, so later runners — in this process, a pool worker
or a later run — load it instead of replaying L1–L3 again. Step 3's
results persist one level down: a runner that calls
:meth:`Runner.save_lower_records` writes each workload's priced lower
chains as one *lower record* beside the upper record, keyed by chain
content, and later runners of the same engine re-price designs from
those counters instead of replaying the chains.

Results are exact: a design's full hierarchy run would produce the same
statistics, because the upper levels' behaviour does not depend on what
sits below them (caches are inclusive-of-nothing here — no back
invalidations, as in the paper's simulator).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cache.mainmem import MainMemory
from repro.cache.partition import PartitionedMemory
from repro.cache.stats import COUNTER_FIELDS, HierarchyStats, LevelStats
from repro.designs.base import MemoryDesign, ReferenceSystem
from repro.designs.configs import DEFAULT_SCALE, NDM_DRAM_CAPACITY
from repro.designs.ndm import NDMDesign
from repro.designs.reference import ReferenceDesign
from repro.model.evaluate import (
    Evaluation,
    RawEvaluation,
    evaluate_stats,
    finalize,
)
from repro.partition.oracle import PlacementResult, enumerate_placements
from repro.partition.profiler import (
    TRAFFIC_COLUMNS,
    region_intervals,
    region_traffic,
    select_ranges,
)
from repro.partition.ranges import AddressRange
from repro.tech.params import MemoryTechnology
from repro.telemetry.core import NullTelemetry, Telemetry, get_active
from repro.trace.events import AccessBatch
from repro.trace.stream import AddressStream
from repro.trace.tracer import Tracer
from repro.workloads.base import TraceResult, Workload

if TYPE_CHECKING:  # pragma: no cover - the simulator loads where it runs
    from repro.cache.hierarchy import Hierarchy
    from repro.profile.engine import AnalyticEngine
    from repro.profile.profiler import ChainProfile, Granularities

#: Package logger ("repro" has a NullHandler attached, so the library
#: is silent by default); enable progress lines on long runs with
#: ``logging.getLogger("repro").setLevel(logging.INFO)`` plus a handler.
logger = logging.getLogger("repro.experiments")


class CapturingMemory(MainMemory):
    """Terminal device that records every arriving request.

    Used to capture the post-L3 request stream during the shared upper
    -level simulation.
    """

    def __init__(self, name: str = "CAPTURE") -> None:
        super().__init__(name)
        self.captured = AddressStream()

    def process(self, batch: AccessBatch) -> AccessBatch:
        self.captured.append(batch.addresses, batch.sizes, batch.is_store)
        return super().process(batch)


@dataclass
class WorkloadTrace:
    """Everything the runner caches per (workload, scale, seed).

    Attributes:
        workload: the workload instance.
        result: the traced run (stream + tracer + algorithm checks).
        upper_stats: L1/L2/L3 statistics (shared by every design).
            Extrapolated to the whole stream when sampling.
        references: program reference count (Eq. 2 denominator).
            Extrapolated when sampling.
        post_l3: the request stream leaving L3 (fills + writebacks).
            Under sampling this holds only the simulated (warmup +
            measured) segments' capture.
        ref_raw: the reference design's raw evaluation on this trace.
        traced_footprint_bytes: footprint of the traced (scaled) run.
        region_traffic: the traced run's reference counters per
            interval between its region edges
            (:func:`~repro.partition.profiler.region_traffic`), from
            which the NDM oracle selects its candidate ranges.
        sample_factor: extrapolation multiplier applied to measured
            counters (1.0 for exact runs).
        sample_fidelity: fraction of the trace actually measured (1.0
            for exact runs) — the recorded fidelity estimate of every
            sampled result derived from this trace.
        post_l3_segments: per simulated source segment, the number of
            captured post-L3 requests it produced and whether it was
            measured; lower-level replays use this to re-align their
            own measurement windows. ``None`` for exact runs.
        upper_key: content key of the L1–L3 replay (see
            :meth:`Runner.upper_key`); names every trace-cache artifact
            derived from ``post_l3``. ``None`` without a trace cache.
        upper_cached: whether the L1–L3 replay was loaded from the
            trace cache instead of simulated.
    """

    workload: Workload
    result: TraceResult
    upper_stats: list[LevelStats]
    references: int
    post_l3: AddressStream
    ref_raw: RawEvaluation
    traced_footprint_bytes: int
    region_traffic: list[list[int]]
    sample_factor: float = 1.0
    sample_fidelity: float = 1.0
    post_l3_segments: list[tuple[int, bool]] | None = None
    upper_key: str | None = None
    upper_cached: bool = False


@dataclass
class UpperReplay:
    """The shared L1–L3 replay of one trace, before local references.

    What :meth:`Runner.prepare` simulates once per workload, and what
    the trace cache persists as the upper record.

    Attributes:
        post_l3: the captured request stream leaving L3.
        stats: raw L1/L2/L3 statistics (extrapolated when sampling).
        references: raw program reference count (extrapolated when
            sampling).
        footprint_bytes: the trace's footprint
            (:attr:`WorkloadTrace.traced_footprint_bytes`).
        region_traffic: the trace's per-interval counters
            (:attr:`WorkloadTrace.region_traffic`).
        factor / fidelity / segments: the sampling extrapolation
            factor, measured fraction and recorded post-L3 segments
            (1.0, 1.0 and ``None`` for exact runs).
    """

    post_l3: AddressStream
    stats: list[LevelStats]
    references: int
    footprint_bytes: int
    region_traffic: list[list[int]]
    factor: float = 1.0
    fidelity: float = 1.0
    segments: list[tuple[int, bool]] | None = None

    def to_json(self, post_l3_sha256: str) -> bytes:
        """The record's JSON half; ``post_l3_sha256`` is the header
        digest of the ``.rts`` store holding :attr:`post_l3`."""
        sampled = self.segments is not None
        return json.dumps({
            "version": _UPPER_RECORD_VERSION,
            "stats": [level.as_dict() for level in self.stats],
            "references": self.references,
            "footprint_bytes": self.footprint_bytes,
            "region_traffic": self.region_traffic,
            "factor": self.factor if sampled else None,
            "fidelity": self.fidelity if sampled else None,
            "segments": self.segments,
            "post_l3_sha256": post_l3_sha256,
        }, sort_keys=True).encode()

    @classmethod
    def from_json(
        cls,
        payload: bytes,
        post_l3: AddressStream,
        post_l3_sha256: str,
        intervals: int,
    ) -> "UpperReplay":
        """Parse :meth:`to_json` output around an opened ``post_l3``
        whose store has header digest ``post_l3_sha256``, for a trace
        whose region edges bound ``intervals`` intervals.

        Raises:
            TraceIntegrityError: malformed or foreign-version JSON, a
                JSON written for a different ``.rts`` store, or region
                traffic of another shape than ``(intervals, 4)``.
        """
        from repro.errors import TraceIntegrityError

        try:
            record = json.loads(payload)
            if record["version"] != _UPPER_RECORD_VERSION:
                raise ValueError(f"unsupported version {record['version']!r}")
            if record["post_l3_sha256"] != post_l3_sha256:
                raise ValueError("the .rts store belongs to a different record")
            rows = record["region_traffic"]
            if len(rows) != intervals or any(
                len(row) != len(TRAFFIC_COLUMNS)
                or any(type(value) is not int or value < 0 for value in row)
                for row in rows
            ):
                raise ValueError(
                    f"region traffic is not {intervals} rows of "
                    f"{len(TRAFFIC_COLUMNS)} counters"
                )
            footprint = record["footprint_bytes"]
            if type(footprint) is not int or footprint < 0:
                raise ValueError(f"footprint {footprint!r} is not a size")
            segments = record["segments"]
            return cls(
                post_l3=post_l3,
                stats=[LevelStats(**level) for level in record["stats"]],
                references=int(record["references"]),
                footprint_bytes=footprint,
                region_traffic=rows,
                factor=1.0 if segments is None else float(record["factor"]),
                fidelity=1.0 if segments is None else float(record["fidelity"]),
                segments=None if segments is None else [
                    (int(n), bool(measured)) for n, measured in segments
                ],
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise TraceIntegrityError(
                f"malformed upper record ({type(exc).__name__}: {exc})"
            ) from exc


def _renamed(
    levels: list[LevelStats], memory: MainMemory | PartitionedMemory
) -> list[LevelStats]:
    """Fresh copies of a keyed chain's lower stats, the memory level(s)
    named after ``memory``'s device(s) (a plain chain's key leaves its
    memory's name out)."""
    copies = [replace(level) for level in levels]
    devices = (
        memory.devices if isinstance(memory, PartitionedMemory) else [memory]
    )
    for level, device in zip(copies[-len(devices):], devices):
        level.name = device.name
    return copies


#: Format marker of the upper record's JSON half. Version 2 added the
#: trace's footprint and region traffic.
_UPPER_RECORD_VERSION = 2

#: Format marker of the lower record. Bump it whenever a change alters
#: lower-level statistics or chain digests, so records written before
#: it become misses. Version 2: cache configs no longer carry an engine,
#: which changed every chain digest.
_LOWER_RECORD_VERSION = 2


def _chain_digest(chain: tuple) -> str:
    """A lower record's key for one chain: a digest of its canonical
    :func:`~repro.designs.base.chain_key`."""
    return hashlib.sha256(json.dumps(chain).encode()).hexdigest()[:16]


def _level_from_dict(entry: dict) -> LevelStats:
    """One level of a lower record, with every counter an integer."""
    level = LevelStats(**entry)
    if not isinstance(level.name, str) or any(
        type(getattr(level, counter)) is not int for counter in COUNTER_FIELDS
    ):
        raise ValueError(f"non-integer counter in {entry!r}")
    return level


def _read_lower_record(path: Path) -> dict[str, list[LevelStats]]:
    """The chains of a lower record, checked against its sidecar.

    Raises:
        TraceIntegrityError: sidecar mismatch, or malformed or
            foreign-version JSON.
    """
    from repro.errors import TraceIntegrityError
    from repro.trace.io import verify_artifact

    verify_artifact(path)
    try:
        record = json.loads(path.read_bytes())
        if record["version"] != _LOWER_RECORD_VERSION:
            raise ValueError(f"unsupported version {record['version']!r}")
        chains = {}
        for digest, levels in record["chains"].items():
            if not isinstance(levels, list) or not levels:
                raise ValueError(f"chain {digest} has no levels")
            chains[digest] = [_level_from_dict(level) for level in levels]
        return chains
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise TraceIntegrityError(
            f"malformed lower record ({type(exc).__name__}: {exc})"
        ) from exc


def _discard_artifacts(*artifacts: Path) -> int:
    """Remove trace-cache artifacts and their sidecars; returns how
    many files existed."""
    from repro.trace.io import checksum_path

    removed = 0
    for artifact in artifacts:
        for path in (artifact, checksum_path(artifact)):
            if path.exists():
                path.unlink()
                removed += 1
    return removed


def _discard_lower_record(path: Path, reason: Exception | str) -> None:
    """Remove a lower record and its sidecar, with a warning."""
    logger.warning(
        "discarded lower record %s (%s; removed %d files), re-simulating "
        "its chains", path.name, reason, _discard_artifacts(path),
    )


@dataclass
class _LowerRecord:
    """One workload's persisted lower chains, by chain digest.

    ``loaded`` is what the trace cache held when the workload was
    prepared (the only chains served as hits); ``gained`` is what this
    runner priced since — or a pool worker priced and acked to it —
    which :meth:`Runner.save_lower_records` writes. The first ``sent``
    gained chains already went out with a pool worker's ack.
    """

    path: Path
    loaded: dict[str, list[LevelStats]]
    gained: dict[str, list[LevelStats]] = field(default_factory=dict)
    sent: int = 0

    def keep(self, chain: tuple, levels: list[LevelStats]) -> None:
        digest = _chain_digest(chain)
        if digest not in self.loaded:
            self.gained.setdefault(digest, levels)


#: Default ratio of local (stack/temporary) references to traced data
#: references. PEBIL instruments *every* memory-referencing instruction,
#: so the paper's streams include the stack traffic — loop counters,
#: spilled registers, compiler temporaries — that essentially always
#: hits L1 and typically outnumbers data-structure references several
#: times over. Our array-level instrumentation records only the data
#: structures, so the runner re-injects this traffic analytically: per
#: traced reference, ``local_factor`` additional L1 load hits are added
#: to the statistics (they never leave L1, so no simulation is needed).
#: The value is calibrated against the one quantitative sensitivity the
#: paper publishes for its execution profiles (Figure 9: a 5x main
#: memory read-latency increase costs ~5% runtime on the NMM/N6
#: profile) and puts overall L1 hit rates in the 93–97% range measured
#: on the real benchmarks.
DEFAULT_LOCAL_FACTOR: float = 8.0

#: Bits per local reference (an 8-byte access) for L1 dynamic energy.
_LOCAL_BITS: int = 64


class Runner:
    """Evaluates designs across workloads with shared-prefix caching.

    Args:
        scale: capacity/footprint scale (DESIGN.md §4).
        seed: workload input RNG seed.
        reference: the SRAM pyramid (defaults to Sandy Bridge).
        local_factor: L1-hitting local references injected per traced
            data reference (see :data:`DEFAULT_LOCAL_FACTOR`).
        engine: cache simulation engine (``"auto"``, ``"scalar"`` or
            ``"analytic"``) applied to every cache the runner builds —
            the shared upper pyramid and each design's lower levels.
            ``auto`` and ``scalar`` are bit-identical and only change
            speed. ``analytic`` replaces
            each design's *lower-level* simulation with the reuse-
            profile model of :mod:`repro.profile` — the shared upper
            pyramid still simulates exactly (with ``auto``), profiles
            are computed once per trace (and cached on disk next to
            the trace cache), and every design evaluates in O(1)
            additional passes. Analytic per-level counts are
            approximate for set-associative levels (exact for
            fully-associative LRU and for designs with no lower
            caches); see ``docs/performance.md`` for the accuracy
            envelope.
        drain: when True, every simulation — the shared upper-level
            prefix *and* each design's lower levels — flushes dirty
            blocks at end of stream, so writebacks propagate all the
            way to main memory (``Hierarchy.run(drain=True)``
            semantics). The default False is the paper's steady-state
            accounting: a long-running application's residual dirty
            lines are a vanishing fraction of its write traffic, so
            end-of-trace flushes are intentionally excluded from the
            energy/latency model. Applied uniformly to every design,
            either choice yields exact full-hierarchy statistics.
        telemetry: explicit telemetry instance; None (the default)
            resolves the process-wide active instance per call (see
            :mod:`repro.telemetry.core`), which is the disabled
            :data:`~repro.telemetry.core.NULL_TELEMETRY` unless a
            caller activated one.
        sample: periodic sampled simulation —
            a :class:`~repro.experiments.sampling.SampleSpec` or its
            CLI string form ``"warmup:window:stride"`` (event counts).
            Only warmup + measured-window events are simulated per
            stride; measured counters are extrapolated to the whole
            stream and the measured fraction is recorded as the
            result's fidelity estimate
            (:attr:`WorkloadTrace.sample_fidelity`). Approximate by
            construction, so it is journalled under a distinct
            ``engine_class`` — sampled and exact cells never satisfy
            each other on resume. Incompatible with ``drain`` (flush
            traffic belongs to exact accounting) and with the
            ``analytic`` engine (a different approximation; compose
            intentionally, not accidentally).
        trace_arena: published trace handles keyed by workload name
            (see :class:`repro.trace.arena.TraceArena`). A workload
            found here is attached zero-copy instead of re-traced or
            loaded from the cache — how parallel sweep workers share
            one physical trace copy.
    """

    def __init__(
        self,
        scale: float = DEFAULT_SCALE,
        seed: int = 0,
        reference: ReferenceSystem | None = None,
        local_factor: float = DEFAULT_LOCAL_FACTOR,
        trace_cache_dir: str | None = None,
        drain: bool = False,
        telemetry: Telemetry | NullTelemetry | None = None,
        engine: str = "auto",
        sample: "SampleSpec | str | None" = None,
        trace_arena: "dict | None" = None,
    ) -> None:
        if local_factor < 0:
            raise ValueError("local_factor must be non-negative")
        if engine not in ("auto", "scalar", "analytic"):
            from repro.errors import ConfigError

            raise ConfigError(
                f"unknown engine {engine!r}; expected 'auto', 'scalar' "
                f"or 'analytic'"
            )
        if isinstance(sample, str):
            from repro.experiments.sampling import SampleSpec

            sample = SampleSpec.parse(sample)
        if sample is not None:
            from repro.errors import ConfigError

            if engine == "analytic":
                raise ConfigError(
                    "sampled simulation and the analytic engine are both "
                    "approximations; pick one (--sample xor --engine "
                    "analytic)"
                )
            if drain:
                raise ConfigError(
                    "sampled simulation extrapolates steady-state windows; "
                    "end-of-stream drain accounting requires an exact run"
                )
        self.sample = sample
        self.trace_arena = trace_arena
        self.scale = scale
        self.seed = seed
        self.reference = reference or ReferenceSystem.sandy_bridge()
        self.local_factor = local_factor
        self.drain = drain
        self.engine = engine
        self.telemetry = telemetry
        #: Optional directory for persistent trace caching across
        #: processes: traced streams and region maps are saved after the
        #: first run and reloaded (bit-exact) instead of re-executing
        #: the workload. Keyed by (workload, scale, seed); the
        #: algorithm-check dict is not persisted (reloaded runs report
        #: ``{"cached": True}``). The L1–L3 replay (upper record),
        #: analytic profiles and priced lower chains (lower record, see
        #: :meth:`save_lower_records`) persist here too.
        self.trace_cache_dir = trace_cache_dir
        self._traces: dict[str, WorkloadTrace] = {}
        self._design_stats: dict[tuple[str, str], HierarchyStats] = {}
        #: Lower-level stats per (chain key, workload), shared by every
        #: design whose plain lower chain is config-identical (see
        #: :meth:`stats_for`).
        self._chain_stats: dict[tuple[tuple, str], list[LevelStats]] = {}
        #: Lower record per workload, for runners that keep them.
        self._lower_records: dict[str, _LowerRecord] = {}
        self._analytic_engines: dict[str, "AnalyticEngine"] = {}
        self._profiles: dict[tuple[str, "Granularities"], "ChainProfile"] = {}

    @property
    def sim_engine(self) -> str:
        """The exact engine used for simulated caches.

        ``analytic`` only affects lower-level *evaluation*; every cache
        that is actually simulated (the shared upper pyramid, REF/NDM
        replays, screen-confirm re-simulations) uses ``auto``. The
        runner builds every cache it simulates with this engine.
        """
        return "auto" if self.engine == "analytic" else self.engine

    @property
    def engine_class(self) -> str:
        """The result class of every design this runner evaluates:
        ``"exact"`` (scalar/auto), ``"analytic"`` or
        ``"sampled:<warmup>:<window>:<stride>"``. It enters each sweep
        cell's journal key, so results of different classes never
        satisfy each other's resume."""
        if self.engine == "analytic":
            return "analytic"
        if self.sample is not None:
            return f"sampled:{self.sample.key}"
        return "exact"

    def _telemetry(self) -> Telemetry | NullTelemetry:
        """The telemetry to instrument with (explicit, else active)."""
        return self.telemetry if self.telemetry is not None else get_active()

    def _cache_name(self, workload: Workload) -> str:
        return f"{workload.name}-s{self.scale:g}-r{self.seed}".replace("/", "_")

    def _load_cached_trace(self, workload: Workload) -> TraceResult | None:
        if self.trace_arena:
            handle = self.trace_arena.get(workload.name)
            if handle is not None:
                stream, regions = handle.attach()
                tracer = Tracer(stream=stream, regions=list(regions))
                return TraceResult(
                    stream=stream, tracer=tracer, checks={"cached": True}
                )
        if not self.trace_cache_dir:
            return None
        from repro.errors import TraceIntegrityError
        from repro.trace.io import discard_trace, load_trace

        name = self._cache_name(workload)
        directory = Path(self.trace_cache_dir)
        if not (directory / f"{name}.stream.rts").exists():
            return None
        try:
            stream, regions = load_trace(directory, name)
            # The store verifies chunks lazily as they are read; force
            # the pass here so a corrupt entry self-heals (below)
            # instead of failing mid-simulation. This is the *only*
            # full read — the data stays mmap'd, not copied.
            stream.verify()
        except TraceIntegrityError as exc:
            # A corrupt cache entry is recoverable: drop the pair and
            # fall through to re-tracing, which re-saves clean artifacts.
            removed = discard_trace(directory, name)
            logger.warning(
                "discarded corrupt cached trace for %s (%s; removed %d "
                "files), re-tracing", workload.name, exc, len(removed),
            )
            return None
        tracer = Tracer(stream=stream, regions=list(regions))
        return TraceResult(stream=stream, tracer=tracer, checks={"cached": True})

    def _store_cached_trace(self, workload: Workload, result: TraceResult) -> None:
        """Save a fresh trace and switch ``result`` to the saved store, so
        a cold run replays (and a sweep publishes) the cache's own file."""
        if not self.trace_cache_dir:
            return
        from repro.trace.io import save_trace
        from repro.trace.store import MappedStream

        stream_path, _ = save_trace(
            result.stream,
            result.tracer,
            self.trace_cache_dir,
            self._cache_name(workload),
        )
        result.stream = result.tracer.stream = MappedStream.open(stream_path)

    def _inject_locals(
        self, upper_stats: list[LevelStats], references: int
    ) -> tuple[list[LevelStats], int]:
        """Add the analytic local-reference traffic to L1 and the
        reference count (applied identically to every design, so it
        dilutes — but never distorts — the normalized comparisons)."""
        extra = int(self.local_factor * references)
        if extra == 0:
            return upper_stats, references
        l1 = upper_stats[0]
        adjusted = LevelStats(
            name=l1.name,
            loads=l1.loads + extra,
            stores=l1.stores,
            load_bits=l1.load_bits + extra * _LOCAL_BITS,
            store_bits=l1.store_bits,
            load_hits=l1.load_hits + extra,
            load_misses=l1.load_misses,
            store_hits=l1.store_hits,
            store_misses=l1.store_misses,
            writebacks=l1.writebacks,
            fills=l1.fills,
        )
        return [adjusted] + upper_stats[1:], references + extra

    # ------------------------------------------------------------------
    # Tracing + shared upper-level simulation
    # ------------------------------------------------------------------

    def trace_only(self, workload: Workload) -> tuple[TraceResult, bool]:
        """Obtain a workload's trace without simulating anything.

        Returns ``(result, cached)`` where ``cached`` says whether the
        trace came from the arena or the on-disk cache instead of a
        fresh trace (which is stored to the cache on the way out).
        Used by the sweep executor to publish each workload's trace to
        the shared arena before forking workers; :meth:`prepare` runs
        the same path before the upper-level simulation.
        """
        telemetry = self._telemetry()
        trace_span = telemetry.span("runner.trace", workload=workload.name)
        with trace_span:
            result = self._load_cached_trace(workload)
            cached = result is not None
            if not cached:
                result = workload.trace(scale=self.scale, seed=self.seed)
                self._store_cached_trace(workload, result)
        if cached:
            logger.info("loaded cached trace for %s", workload.name)
        else:
            logger.info(
                "traced %s: %s events in %.1fs",
                workload.name, f"{len(result.stream):,}",
                trace_span.duration_s,
            )
        return result, cached

    def prepare(self, workload: Workload) -> WorkloadTrace:
        """Trace a workload and replay the shared SRAM prefix (cached).

        The L1–L3 replay is loaded from the trace cache's upper record
        when one matches (see :meth:`upper_key`), else simulated — and
        then persisted when a trace cache is configured. Everything
        after it (local-reference injection, the REF DRAM replay) runs
        the same either way. The workload's lower record is loaded
        next, and the REF DRAM is priced from it when it holds the
        plain memory chain.

        Raises:
            SimulationError: the REF statistics break request
                conservation.
        """
        key = workload.name
        if key in self._traces:
            return self._traces[key]
        telemetry = self._telemetry()
        prepare_span = telemetry.span("runner.prepare", workload=key)
        with prepare_span:
            result, cached = self.trace_only(workload)
            upper_key = self.upper_key(workload)
            replay = self._load_upper_record(workload, upper_key, result.tracer)
            upper_cached = replay is not None
            if replay is None:
                replay = self._simulate_upper(key, result, telemetry)
                if upper_key is not None:
                    self._save_upper_record(workload, upper_key, replay)
            post_l3, segments = replay.post_l3, replay.segments
            factor, fidelity = replay.factor, replay.fidelity
            upper_stats, references = self._inject_locals(
                replay.stats, replay.references
            )

            records = self._load_lower_records(workload, upper_key)
            lower_records = len(records.loaded) if records is not None else 0

            # The reference design's DRAM sees exactly the post-L3 stream.
            ref_design = ReferenceDesign(scale=self.scale, reference=self.reference)
            ref_memory = ref_design.memory()
            ref_chain = ref_design.chain_key()
            recorded = self._recorded(ref_chain, key)
            if recorded is not None:
                dram_stats = _renamed(recorded, ref_memory)
            else:
                dram_stats = self._replay_lower(
                    post_l3, segments, factor, [], ref_memory
                )
            ref_stats = HierarchyStats(
                levels=upper_stats + dram_stats, references=references
            )
            self._check_conservation(
                ref_stats, len(upper_stats), (ref_design.sim_key(), key),
                ref_chain, rounded=segments is not None,
                recorded=recorded is not None,
            )
            if records is not None:
                records.keep(ref_chain, _renamed(dram_stats, ref_memory))
            ref_raw = evaluate_stats(
                ref_design.name,
                ref_stats,
                ref_design.bindings(workload.info.footprint_bytes),
            )
            trace = WorkloadTrace(
                workload=workload,
                result=result,
                upper_stats=upper_stats,
                references=references,
                post_l3=post_l3,
                ref_raw=ref_raw,
                traced_footprint_bytes=replay.footprint_bytes,
                region_traffic=replay.region_traffic,
                sample_factor=factor,
                sample_fidelity=fidelity,
                post_l3_segments=segments,
                upper_key=upper_key,
                upper_cached=upper_cached,
            )
            self._traces[key] = trace
            self._design_stats[("REF", key)] = ref_stats
            telemetry.gauge(
                "repro_captured_stream_requests", stage="post_l3", workload=key
            ).set(len(post_l3))
            telemetry.gauge(
                "repro_captured_stream_nbytes", stage="post_l3", workload=key
            ).set(post_l3.nbytes)
        logger.info(
            "prepared %s: %s post-L3 requests, AMAT_ref %.2f ns (%.1fs)",
            workload.name, f"{len(post_l3):,}",
            ref_raw.amat_ns, prepare_span.duration_s,
        )
        telemetry.event(
            "workload_prepared",
            workload=key,
            events=len(result.stream),
            post_l3_requests=len(post_l3),
            post_l3_nbytes=post_l3.nbytes,
            references=references,
            trace_cached=cached,
            upper_cached=upper_cached,
            lower_records=lower_records,
            sample_fidelity=round(trace.sample_fidelity, 6),
            duration_s=round(prepare_span.duration_s, 6),
        )
        return trace

    def _simulate_upper(
        self,
        key: str,
        result: TraceResult,
        telemetry: Telemetry | NullTelemetry,
    ) -> UpperReplay:
        """Replay a trace through a fresh L1–L3 pyramid, capturing the
        post-L3 stream (exactly, or in sampled windows), and summarize
        the trace itself for the NDM oracle: its footprint and region
        traffic, what the upper record keeps so warm runs never scan
        the trace again."""
        from repro.cache.hierarchy import Hierarchy

        stream = result.stream
        upper = self.reference.build_caches(self.scale, self.sim_engine)
        capture = CapturingMemory()
        hierarchy = Hierarchy(upper, capture)
        if self.sample is None:
            collector = None
            if telemetry.enabled:
                collector = telemetry.window_collector(
                    f"upper-{key}", lambda: hierarchy.stats().levels
                )
                hierarchy.observer = collector
            with telemetry.span("runner.upper_sim", workload=key):
                # drain=True flushes L1-L3 at end of stream; the flush
                # traffic lands in the captured post-L3 stream *in
                # hierarchy drain order*, so suffix replays stay
                # bit-exact against a full Hierarchy.run(drain=True).
                hierarchy.run(stream, drain=self.drain)
            if collector is not None:
                telemetry.finish_collector(collector)
            stats, references = [cache.stats for cache in upper], hierarchy.references
            factor, fidelity, segments = 1.0, 1.0, None
        else:
            with telemetry.span("runner.upper_sim", workload=key, sampled=True):
                stats, references, factor, fidelity, segments = (
                    self._run_upper_sampled(hierarchy, upper, capture, stream)
                )
        telemetry.counter("repro_references_simulated_total").inc(
            hierarchy.references
        )
        return UpperReplay(
            capture.captured, stats, references,
            stream.stats().footprint_bytes,
            region_traffic(stream, result.tracer),
            factor, fidelity, segments,
        )

    # ------------------------------------------------------------------
    # The persisted upper record
    # ------------------------------------------------------------------

    def upper_key(self, workload: Workload) -> str | None:
        """Content key of a workload's L1–L3 replay in the trace cache.

        Hashes everything the captured post-L3 stream and the raw upper
        statistics depend on: the cached trace's store digest (one
        prelude read), the scaled SRAM pyramid, ``drain`` and the
        sample spec. The engine is not part of it — scalar, auto and
        analytic runners replay L1–L3 bit-identically, so they share a
        record. ``None`` when there is no trace cache or no cached
        trace store to key on.
        """
        if not self.trace_cache_dir:
            return None
        from repro.errors import TraceError
        from repro.trace.store import store_digest

        name = self._cache_name(workload)
        try:
            digest = store_digest(Path(self.trace_cache_dir) / f"{name}.stream.rts")
        except TraceError:
            return None
        canonical = json.dumps({
            "trace": digest,
            "upper": [
                asdict(config)
                for config in self.reference.scaled_configs(self.scale)
            ],
            "drain": self.drain,
            "sample": self.sample.key if self.sample is not None else None,
        }, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def _upper_paths(self, workload: Workload, upper_key: str) -> tuple[Path, Path]:
        """The ``(.json, .rts)`` pair of one upper record."""
        directory = Path(self.trace_cache_dir)
        stem = f"{self._cache_name(workload)}.upper-{upper_key}"
        return directory / f"{stem}.json", directory / f"{stem}.rts"

    def _load_upper_record(
        self, workload: Workload, upper_key: str | None, tracer: Tracer
    ) -> UpperReplay | None:
        """The persisted L1–L3 replay, or None to simulate it.

        The JSON half is checked against its sidecar and the ``.rts``
        half is fully verified; a corrupt, truncated, foreign-version or
        mismatched pair — region traffic that does not fit ``tracer``'s
        regions included — is discarded (the caller re-simulates and
        rewrites it).
        """
        if upper_key is None:
            return None
        json_path, rts_path = self._upper_paths(workload, upper_key)
        if not json_path.exists():
            return None
        from repro.errors import TraceError, TraceIntegrityError
        from repro.trace.io import verify_artifact
        from repro.trace.store import MappedStream, store_digest

        try:
            verify_artifact(json_path)
            payload = json_path.read_bytes()
            if not rts_path.exists():
                raise TraceIntegrityError(f"no {rts_path.name} beside it")
            post_l3 = MappedStream.open(rts_path)
            replay = UpperReplay.from_json(
                payload, post_l3, store_digest(rts_path),
                region_intervals(tracer),
            )
            post_l3.verify()
        except TraceError as exc:
            logger.warning(
                "discarded corrupt upper record %s (%s; removed %d files), "
                "re-simulating L1-L3", json_path.name, exc,
                _discard_artifacts(json_path, rts_path),
            )
            return None
        logger.info("loaded cached L1-L3 replay for %s", workload.name)
        return replay

    def _save_upper_record(
        self, workload: Workload, upper_key: str, replay: UpperReplay
    ) -> None:
        """Persist a replay: the post-L3 ``.rts`` store first, then the
        JSON naming its header digest (both atomic, with sidecars)."""
        from repro.trace.io import _write_artifact
        from repro.trace.store import store_digest, write_store

        json_path, rts_path = self._upper_paths(workload, upper_key)
        write_store(replay.post_l3, rts_path)
        _write_artifact(json_path, replay.to_json(store_digest(rts_path)))

    # ------------------------------------------------------------------
    # The persisted lower record
    # ------------------------------------------------------------------

    def _load_lower_records(
        self, workload: Workload, upper_key: str | None
    ) -> _LowerRecord | None:
        """Open a workload's lower record (once), or None when it keeps
        none.

        Records live under the upper record's key and the exact engine,
        so a ``scalar`` runner never reads an ``auto`` runner's records;
        analytic runners keep none. A corrupt, truncated or
        foreign-version record is discarded: its chains re-simulate and
        the next save rewrites it.
        """
        if upper_key is None or self.engine == "analytic":
            return None
        if workload.name in self._lower_records:
            return self._lower_records[workload.name]
        from repro.errors import TraceError

        path = Path(self.trace_cache_dir) / (
            f"{self._cache_name(workload)}.lower-{upper_key}-"
            f"{self.sim_engine}.json"
        )
        loaded = {}
        if path.exists():
            try:
                loaded = _read_lower_record(path)
            except TraceError as exc:
                _discard_lower_record(path, exc)
            else:
                logger.info(
                    "loaded %d priced lower chain(s) for %s",
                    len(loaded), workload.name,
                )
        records = self._lower_records[workload.name] = _LowerRecord(path, loaded)
        return records

    def _is_recorded(self, chain: tuple | None, workload: str) -> bool:
        """Whether the workload's loaded lower record holds ``chain``."""
        records = self._lower_records.get(workload)
        return (
            chain is not None and records is not None
            and _chain_digest(chain) in records.loaded
        )

    def priced_from_records(
        self, design: MemoryDesign, workload: Workload
    ) -> bool:
        """Whether evaluating ``design`` on ``workload`` would simulate
        nothing: the workload's trace is cached, its upper record exists,
        and its lower record holds both the REF DRAM chain and the
        design's chain.

        False without a trace cache, for an ``analytic`` runner (it keeps
        no lower record) and for a keyless design. A record that turns
        out corrupt when loaded is still discarded and re-simulated.
        The upper record is looked up until the workload's lower record
        is open: a runner opens that only once its upper record exists.
        """
        if workload.name not in self._lower_records:
            upper_key = self.upper_key(workload)
            if upper_key is None or not self._upper_paths(
                workload, upper_key
            )[0].exists():
                return False
            if self._load_lower_records(workload, upper_key) is None:
                return False
        ref_chain = ReferenceDesign(
            scale=self.scale, reference=self.reference
        ).chain_key()
        return self._is_recorded(
            ref_chain, workload.name
        ) and self._is_recorded(design.chain_key(), workload.name)

    def _recorded(
        self, chain: tuple | None, workload: str
    ) -> list[LevelStats] | None:
        """A chain's loaded lower stats (counted as a record hit), or
        None to price it."""
        if not self._is_recorded(chain, workload):
            return None
        self._telemetry().counter(
            "repro_lower_record_hits_total", workload=workload
        ).inc()
        return self._lower_records[workload].loaded[_chain_digest(chain)]

    def unsent_lower_chains(self, workload: str) -> dict[str, list[dict]]:
        """The chains ``workload`` gained since the last call, as level
        dicts by chain digest: what a pool worker's ``cell_finished``
        ack carries to the parent's :meth:`absorb_lower_chains`."""
        records = self._lower_records.get(workload)
        if records is None:
            return {}
        unsent = list(records.gained.items())[records.sent:]
        records.sent = len(records.gained)
        return {
            digest: [level.as_dict() for level in levels]
            for digest, levels in unsent
        }

    def absorb_lower_chains(
        self, workload: Workload, chains: dict[str, list[dict]]
    ) -> None:
        """Add chains a pool worker priced to ``workload``'s lower
        record, skipping those the record already held, so that
        :meth:`save_lower_records` writes them."""
        records = self._lower_records.get(
            workload.name
        ) or self._load_lower_records(workload, self.upper_key(workload))
        if records is None:
            return
        for digest, levels in chains.items():
            if digest not in records.loaded:
                records.gained.setdefault(
                    digest, [_level_from_dict(level) for level in levels]
                )

    def save_lower_records(self) -> None:
        """Persist the lower chains each workload gained.

        Writes one lower record per workload that priced a chain it did
        not load, merged with the record now on disk, so runners that
        priced different chains of a workload add up. Atomic, with a
        SHA-256 sidecar. A pool sweep's workers write nothing: each ack
        carries the chains its cell priced to the parent runner, whose
        save writes them. A runner that never calls this — in-process
        tests, a bare :class:`~repro.resilience.SweepExecutor` — writes
        nothing.
        """
        from repro.errors import TraceError
        from repro.trace.io import _write_artifact

        for records in self._lower_records.values():
            if not records.gained:
                continue
            chains = {}
            if records.path.exists():
                try:
                    chains = _read_lower_record(records.path)
                except TraceError:
                    pass
            chains.update(records.loaded)
            chains.update(records.gained)
            _write_artifact(records.path, json.dumps({
                "version": _LOWER_RECORD_VERSION,
                "chains": {
                    digest: [level.as_dict() for level in levels]
                    for digest, levels in chains.items()
                },
            }, sort_keys=True).encode())

    def _run_upper_sampled(
        self,
        hierarchy: Hierarchy,
        upper: list,
        capture: CapturingMemory,
        stream: AddressStream,
    ) -> tuple[list[LevelStats], int, float, float, list[tuple[int, bool]]]:
        """Sampled upper-level simulation (see ``sample`` on the class).

        Simulates only warmup + measured-window segments, snapshots the
        upper levels' counters around each measured window, and scales
        the measured deltas to the whole stream. Records, per simulated
        segment, how many post-L3 requests it captured, so lower-level
        replays can re-align the same measurement windows on the
        captured stream.

        Returns ``(upper_stats, references, factor, fidelity,
        segments)`` where stats/references are extrapolated raw values
        (local-reference injection happens in the caller).
        """
        from repro.experiments.sampling import (
            add_levels,
            delta_levels,
            iter_sample_segments,
            scale_levels,
            snapshot_levels,
        )

        acc = None
        segments: list[tuple[int, bool]] = []
        measured_events = 0
        measured_refs = 0
        for batch, measured in iter_sample_segments(stream, self.sample):
            captured_before = len(capture.captured)
            if measured:
                refs_before = hierarchy.references
                before = snapshot_levels(cache.stats for cache in upper)
            hierarchy.process_batch(batch)
            if measured:
                acc = add_levels(
                    acc,
                    delta_levels(
                        (cache.stats for cache in upper), before
                    ),
                )
                measured_refs += hierarchy.references - refs_before
                measured_events += len(batch)
            segments.append(
                (len(capture.captured) - captured_before, measured)
            )
        total_events = len(stream)
        factor = (
            total_events / measured_events if measured_events else 1.0
        )
        fidelity = (
            measured_events / total_events if total_events else 1.0
        )
        if acc is None:
            acc = snapshot_levels(cache.stats for cache in upper)
        upper_stats = scale_levels(acc, factor)
        references = int(round(measured_refs * factor))
        logger.info(
            "sampled upper sim: %s of %s events measured "
            "(fidelity %.3f, factor %.1f)",
            f"{measured_events:,}", f"{total_events:,}", fidelity, factor,
        )
        return upper_stats, references, factor, fidelity, segments

    # ------------------------------------------------------------------
    # Analytic fast path
    # ------------------------------------------------------------------

    def _profile_path(
        self, workload: Workload, granularities: "Granularities"
    ) -> Path | None:
        upper_key = self.prepare(workload).upper_key
        if upper_key is None:
            return None
        grains = "-".join(f"g{g}-c{cg}" for g, cg in granularities)
        return Path(self.trace_cache_dir) / (
            f"{self._cache_name(workload)}.profile-{upper_key}-{grains}.npz"
        )

    def _profile_for(
        self, workload: Workload, granularities: "Granularities"
    ) -> "ChainProfile":
        """The reuse profile of the captured post-L3 stream at a lower
        chain's sorted distinct ``(granularity, chain_granularity)``
        pairs (cached).

        Memoized in-process and persisted next to the trace cache when
        one is configured, under the upper record's key: everything
        that changes the captured stream (trace, SRAM pyramid, drain,
        sampling) changes the profile's file name too. A corrupt,
        truncated or foreign-version file is discarded and recomputed.
        """
        mem_key = (workload.name, granularities)
        if mem_key in self._profiles:
            return self._profiles[mem_key]
        from repro.errors import TraceError
        from repro.profile import compute_profile, load_profile, save_profile

        telemetry = self._telemetry()
        path = self._profile_path(workload, granularities)
        profile = None
        if path is not None and path.exists():
            try:
                profile = load_profile(path)
            except TraceError as exc:
                _discard_artifacts(path)
                logger.warning(
                    "discarded cached profile %s (%s), re-profiling",
                    path.name, exc,
                )
        cached = profile is not None
        if profile is None:
            trace = self.prepare(workload)
            with telemetry.span(
                "runner.profile", workload=workload.name,
                granularities=granularities,
            ):
                profile = compute_profile(trace.post_l3, granularities)
            if path is not None:
                save_profile(profile, path)
        self._profiles[mem_key] = profile
        for grain, (g, cg) in enumerate(granularities):
            telemetry.event(
                "reuse_profile",
                workload=workload.name,
                granularity=g,
                chain_granularity=cg,
                references=profile.references,
                footprint_blocks=profile.footprint(grain),
                stores=profile.n_stores,
                cached=cached,
            )
        return profile

    def _analytic_for(self, workload: Workload) -> "AnalyticEngine":
        """The analytic engine bound to one workload's captured stream.

        The engine holds no reference to the runner (profiles come in
        per call), so a runner is freed as soon as it is dropped.
        """
        key = workload.name
        if key in self._analytic_engines:
            return self._analytic_engines[key]
        from repro.profile import AnalyticEngine, StreamTotals

        trace = self.prepare(workload)
        totals = StreamTotals.from_chunks(trace.post_l3.chunks())
        engine = AnalyticEngine(totals=totals, chunks=trace.post_l3.chunks)
        self._analytic_engines[key] = engine
        return engine

    def _analytic_stats_for(
        self, design: MemoryDesign, workload: Workload
    ) -> list[LevelStats]:
        """A design's lower-level statistics from the analytic engine."""
        engine = self._analytic_for(workload)
        with self._telemetry().span(
            "runner.analytic_eval", design=design.sim_key(),
            workload=workload.name,
        ):
            return engine.lower_stats(
                design, self.sim_engine,
                lambda granularities: self._profile_for(workload, granularities),
                drain=self.drain,
            )

    # ------------------------------------------------------------------
    # Design evaluation
    # ------------------------------------------------------------------

    def _replay_lower(
        self,
        post_l3: AddressStream,
        segments: list[tuple[int, bool]] | None,
        factor: float,
        lower: list,
        memory: MainMemory | PartitionedMemory,
    ) -> list[LevelStats]:
        """Replay the captured post-L3 stream through a lower chain.

        The one lower-level replay, for every design and for the REF
        DRAM (``lower=[]``). With ``segments`` None the whole stream
        goes through :func:`~repro.cache.hierarchy.replay_chain`, which
        flushes the chain if the runner drains and may price it by
        counts; telemetry attaches no window collector to it, so it
        never steers that choice.
        Otherwise the recorded sampled windows go batch by batch
        through :func:`~repro.cache.hierarchy.run_chain` and the
        measured windows' counter deltas are scaled by ``factor``.

        Returns the chain's statistics: caches, then memory level(s).
        """

        def levels() -> list[LevelStats]:
            if isinstance(memory, PartitionedMemory):
                return [cache.stats for cache in lower] + memory.stats_list
            return [cache.stats for cache in lower] + [memory.stats]

        from repro.cache.hierarchy import replay_chain, run_chain

        if segments is None:
            replay_chain(post_l3, lower, memory, drain=self.drain)
            return levels()
        from repro.experiments.sampling import (
            add_levels,
            delta_levels,
            iter_recorded_segments,
            scale_levels,
            snapshot_levels,
        )

        acc = None
        for batch, measured in iter_recorded_segments(post_l3, segments):
            if measured:
                before = snapshot_levels(levels())
            run_chain(batch, lower, memory)
            if measured:
                acc = add_levels(acc, delta_levels(levels(), before))
        return scale_levels(
            acc if acc is not None else snapshot_levels(levels()), factor
        )

    def stats_for(self, design: MemoryDesign, workload: Workload) -> HierarchyStats:
        """Full hierarchy statistics for a design on a workload (cached).

        Evaluates only the design's lower levels — analytically, or by
        replaying the cached post-L3 stream (exactly or in its sampled
        windows, see :meth:`_replay_lower`) — and prepends the shared
        upper-level stats.

        Each distinct lower chain is priced once per workload: a design
        whose :meth:`~repro.designs.base.MemoryDesign.chain_key` was already
        priced (4LCNVM-EHi after 4LC-EHi, whose L4 is the same) gets
        copies of those lower stats with the memory level renamed. This
        is exact — a :class:`~repro.cache.mainmem.MainMemory` counts
        only what arrives, whatever its name or technology — and it
        holds for every engine class, since a runner prices every
        design with one. A chain the workload's loaded lower record
        holds is shared the same way, without simulating it.

        Raises:
            SimulationError: the statistics break request conservation
                (see :meth:`HierarchyStats.check_conservation`); nothing
                is memoized.
        """
        # Prepare first: it prices the REF design along the way.
        trace = self.prepare(workload)
        key = (design.sim_key(), workload.name)
        if key in self._design_stats:
            return self._design_stats[key]
        memory, chain = design.memory(), design.chain_key()
        lower = None
        recorded = None
        shared = self._chain_stats.get((chain, workload.name))
        if shared is None:
            shared = recorded = self._recorded(chain, workload.name)
        if shared is not None:
            lower_stats = _renamed(shared, memory)
        elif self.engine == "analytic":
            lower_stats = self._analytic_stats_for(design, workload)
        else:
            sampled = {} if trace.post_l3_segments is None else {"sampled": True}
            lower = design.lower_caches(self.sim_engine)
            with self._telemetry().span(
                "runner.design_sim", design=key[0], workload=workload.name,
                **sampled,
            ):
                lower_stats = self._replay_lower(
                    trace.post_l3, trace.post_l3_segments, trace.sample_factor,
                    lower, memory,
                )
        n_lower = len(lower) if lower is not None else len(design.lower_configs())
        stats = self._memoize(
            key, trace, lower_stats, n_lower, chain,
            recorded=recorded is not None,
        )
        logger.debug(
            "evaluated %s on %s (%s%s)", key[0], workload.name,
            self.engine_class,
            ", recorded" if recorded is not None
            else ", chain-shared" if shared is not None else "",
        )
        return stats

    def _memoize(
        self,
        key: tuple[str, str],
        trace: WorkloadTrace,
        lower_stats: list[LevelStats],
        n_lower: int,
        chain: tuple | None,
        recorded: bool = False,
    ) -> HierarchyStats:
        """Check and record one design's statistics: under its
        ``(sim_key, workload)`` and, for a plain chain, a private copy
        of its lower stats under ``(chain, workload)`` and in the
        workload's lower record."""
        stats = HierarchyStats(
            levels=trace.upper_stats + lower_stats,
            references=trace.references,
        )
        self._check_conservation(
            stats, len(trace.upper_stats) + n_lower, key, chain,
            rounded=trace.post_l3_segments is not None, recorded=recorded,
        )
        self._design_stats[key] = stats
        if chain is not None:
            levels = self._chain_stats.setdefault(
                (chain, key[1]), [replace(level) for level in lower_stats]
            )
            records = self._lower_records.get(key[1])
            if records is not None:
                records.keep(chain, levels)
        return stats

    def _check_conservation(
        self,
        stats: HierarchyStats,
        n_caches: int,
        key: tuple[str, str],
        chain: tuple | None,
        *,
        rounded: bool,
        recorded: bool,
    ) -> None:
        """:meth:`HierarchyStats.check_conservation`, announcing a
        violation as a ``conservation_violated`` event first. A
        violating loaded record is discarded whole: the chain, and
        every other the record held, re-simulates on the next call.

        Raises:
            SimulationError: the violation.
        """
        from repro.errors import SimulationError

        try:
            stats.check_conservation(n_caches, rounded=rounded)
        except SimulationError:
            self._telemetry().event(
                "conservation_violated", workload=key[1], design=key[0],
                engine_class=self.engine_class,
                source="record" if recorded else "simulated",
            )
            if recorded:
                records = self._lower_records[key[1]]
                records.loaded.clear()
                _discard_lower_record(
                    records.path, f"chain {_chain_digest(chain)} breaks "
                    f"conservation",
                )
            raise

    def simulate_designs(
        self, designs: list[MemoryDesign], workload: Workload
    ) -> None:
        """Batch-simulate designs on one workload with prefix sharing.

        Builds a :class:`~repro.experiments.simplan.SimPlan` over the
        designs whose lower chain is not priced yet and executes it on
        the cached post-L3 stream: lower-level chains that start with
        config-identical levels (every 4LC/4LC-NVM point shares the
        same L4) simulate that prefix once. Results land in the same
        statistics caches that :meth:`stats_for` reads, and designs
        whose chain was already priced — in this runner or in the
        workload's loaded lower record — are filled from them, so
        subsequent per-design calls are hits — the statistics are
        bit-identical to what :meth:`stats_for` would have produced
        (see :mod:`repro.experiments.simplan` for the exactness
        argument).
        """
        if self.engine_class != "exact":
            # Analytic designs are already O(1) passes each, and sampled
            # snapshot/delta windows are per-chain state: evaluate each
            # design on its own.
            for design in designs:
                self.stats_for(design, workload)
            return
        trace = self.prepare(workload)
        todo, twins = [], []
        seen: set[str] = set()
        planned: dict[str, tuple[int, tuple | None]] = {}
        planned_chains: set[tuple] = set()
        for design in designs:
            sim_key = design.sim_key()
            if sim_key in seen or (sim_key, workload.name) in self._design_stats:
                continue
            seen.add(sim_key)
            chain = design.chain_key()
            if chain is not None and (
                chain in planned_chains
                or (chain, workload.name) in self._chain_stats
                or self._is_recorded(chain, workload.name)
            ):
                twins.append(design)
                continue
            if chain is not None:
                planned_chains.add(chain)
                n_lower = len(design.lower_configs())
            else:
                n_lower = len(design.lower_caches(self.sim_engine))
            planned[sim_key] = (n_lower, chain)
            todo.append(design)
        if todo:
            from repro.experiments.simplan import SimPlan

            telemetry = self._telemetry()
            plan = SimPlan(todo, self.sim_engine)
            with telemetry.span(
                "runner.plan_sim", workload=workload.name,
                designs=len(todo), shared_levels=plan.shared_levels,
            ):
                results = plan.execute(
                    trace.post_l3, drain=self.drain,
                    telemetry=telemetry, workload=workload.name,
                )
            for sim_key, lower_stats in results.items():
                self._memoize(
                    (sim_key, workload.name), trace, lower_stats,
                    *planned[sim_key],
                )
            logger.info(
                "plan-simulated %d design(s) on %s (%d shared level(s))",
                len(todo), workload.name, plan.shared_levels,
            )
        for design in twins:
            self.stats_for(design, workload)

    def raw_for(self, design: MemoryDesign, workload: Workload) -> RawEvaluation:
        """Stage-1 model outputs for a design on a workload."""
        stats = self.stats_for(design, workload)
        return evaluate_stats(
            design.name, stats, design.bindings(workload.info.footprint_bytes)
        )

    def evaluate(self, design: MemoryDesign, workload: Workload) -> Evaluation:
        """Final normalized evaluation of a design on a workload."""
        trace = self.prepare(workload)
        raw = self.raw_for(design, workload)
        return finalize(raw, trace.ref_raw, workload.info.meta())

    # ------------------------------------------------------------------
    # NDM oracle
    # ------------------------------------------------------------------

    def ndm_oracle(
        self,
        workload: Workload,
        nvm_tech: MemoryTechnology,
        *,
        coverage: float = 0.95,
        max_ranges_per_placement: int = 1,
        objective: str = "edp",
    ) -> list[PlacementResult]:
        """Run the paper's NDM placement oracle for one workload.

        Selects the traced run's hot address ranges from its region
        traffic (counted once per trace, and kept in the upper record),
        then enumerates single-range-to-NVM placements (plus the
        all-candidates placement), evaluating each with the full model.
        """
        trace = self.prepare(workload)
        candidates = select_ranges(
            trace.result.tracer, trace.region_traffic, coverage=coverage
        )

        def evaluate_placement(ranges: list[AddressRange]) -> Evaluation:
            design = NDMDesign(
                nvm_tech,
                ranges,
                scale=self.scale,
                reference=self.reference,
                name=f"NDM-{nvm_tech.name}-{workload.name}-"
                + "-".join(r.label or hex(r.start) for r in ranges),
            )
            return self.evaluate(design, workload)

        return enumerate_placements(
            candidates,
            evaluate_placement,
            footprint_bytes=trace.traced_footprint_bytes,
            dram_capacity_bytes=max(1, int(NDM_DRAM_CAPACITY * self.scale)),
            max_ranges_per_placement=max_ranges_per_placement,
            objective=objective,
        )
