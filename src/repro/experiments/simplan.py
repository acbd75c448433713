"""Shared lower-level prefix simulation plans.

The runner already simulates the L1–L3 SRAM pyramid once per workload
and replays the captured post-L3 stream per design. A :class:`SimPlan`
generalizes that trick to the *lower* levels: designs whose
``lower_caches()`` chains start with identical configurations share the
simulation of that common prefix. In the paper's sweeps every 4LC and
4LC-NVM point uses the same eDRAM (or HMC) L4, so the expensive L4
simulation runs once; a :class:`CapturingCache` records the post-L4
stream (fills, writebacks, and — in drain mode — end-of-stream
flushes, in emission order) and only the cheap terminal memories
differ per design.

Exactness: a cache level's behaviour depends only on its own
configuration and its input stream — there is no back-invalidation, so
nothing below a level can influence it. Two designs whose chains share
a config-identical prefix therefore drive bit-identical prefix
simulations, and replaying the captured inter-level stream through the
remaining levels reproduces, batch for batch, exactly what a full
:class:`~repro.cache.hierarchy.Hierarchy` run would feed them. Drain
order is preserved too: a captured level's flush lands in the captured
stream after all regular traffic and after the flush residue of the
levels above it, which is precisely the top-to-bottom order of
:meth:`Hierarchy.drain`. The equivalence tests assert bit-identical
:class:`~repro.cache.stats.HierarchyStats` for every built-in design.

Plans are trees: each node is one cache level keyed by its canonical
:func:`~repro.designs.base.config_key`; designs attach at the node
where their chain ends.
Subtrees containing a single design skip capture entirely (there is
nobody to share with, and capture costs memory), running the remaining
chain directly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterable

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import replay_chain
from repro.cache.partition import PartitionedMemory
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import LevelStats
from repro.telemetry.core import NullTelemetry, Telemetry, get_active
from repro.trace.events import AccessBatch
from repro.trace.stream import AddressStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.designs.base import MemoryDesign


class CapturingCache(SetAssociativeCache):
    """A cache level that records every batch it emits downward.

    Both regular emissions (fills + dirty-eviction writebacks from
    :meth:`process`) and end-of-stream flushes (:meth:`flush_dirty`)
    are appended to :attr:`captured`, so the captured stream is exactly
    what the next level would have seen — in order — during a full
    hierarchy run, drain traffic included.
    """

    def __init__(self, config: CacheConfig, engine: str) -> None:
        super().__init__(config, engine)
        self.captured = AddressStream()

    def process(self, batch: AccessBatch) -> AccessBatch:
        out = super().process(batch)
        if len(out):
            self.captured.append(out.addresses, out.sizes, out.is_store)
        return out

    def flush_dirty(self) -> AccessBatch:
        out = super().flush_dirty()
        if len(out):
            self.captured.append(out.addresses, out.sizes, out.is_store)
        return out


class _Sink:
    """Terminal that absorbs a captured level's emissions unrecorded."""

    name = "SINK"

    def process(self, batch: AccessBatch) -> None:
        return None


class _PlanNode:
    """One cache level in the prefix tree (the root carries no config)."""

    __slots__ = ("config", "children", "designs")

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config
        self.children: dict[tuple, "_PlanNode"] = {}
        self.designs: list["MemoryDesign"] = []

    def design_count(self) -> int:
        """Designs attached in this subtree."""
        return len(self.designs) + sum(
            child.design_count() for child in self.children.values()
        )


def _memory_stats(memory) -> list[LevelStats]:
    if isinstance(memory, PartitionedMemory):
        return memory.stats_list
    return [memory.stats]


class SimPlan:
    """A shared-prefix simulation plan over a set of designs.

    Args:
        designs: the designs to simulate together. Designs sharing a
            ``sim_key()`` are simulation-identical and collapse to one
            representative; designs without a
            :meth:`~repro.designs.base.MemoryDesign.chain_key` (their
            own cache instances, or a non-standard memory device)
            cannot be regrouped safely and run *direct* — their own
            instances, no sharing.
        engine: the run's simulation engine, which every cache the
            plan builds takes (see
            :class:`~repro.cache.setassoc.SetAssociativeCache`).

    Attributes:
        designs: the input designs, in order.
        engine: the simulation engine of every cache the plan builds.
    """

    def __init__(self, designs: Iterable["MemoryDesign"], engine: str) -> None:
        self.designs = list(designs)
        self.engine = engine
        self._root = _PlanNode()
        self._direct: list["MemoryDesign"] = []
        seen: set[str] = set()
        for design in self.designs:
            sim_key = design.sim_key()
            if sim_key in seen:
                continue
            seen.add(sim_key)
            keys = design.chain_key()
            if keys is None:
                self._direct.append(design)
                continue
            node = self._root
            for config, key in zip(design.lower_configs(), keys):
                child = node.children.get(key)
                if child is None:
                    child = node.children[key] = _PlanNode(config)
                node = child
            node.designs.append(design)

    # -- reporting ------------------------------------------------------

    @property
    def sim_count(self) -> int:
        """Distinct simulation behaviours (one per unique sim key)."""
        return self._root.design_count() + len(self._direct)

    @property
    def shared_levels(self) -> int:
        """Cache levels simulated once on behalf of >1 design."""

        def count(node: _PlanNode) -> int:
            total = 0
            for child in node.children.values():
                if child.design_count() > 1:
                    total += 1
                total += count(child)
            return total

        return count(self._root)

    def describe(self) -> str:
        """One line per prefix level with its sharing degree."""
        lines: list[str] = []

        def walk(node: _PlanNode, depth: int) -> None:
            for child in node.children.values():
                n = child.design_count()
                tag = "shared" if n > 1 else "private"
                lines.append(
                    "  " * depth
                    + f"{child.config.name} [{tag} x{n}] {child.config.describe()}"
                )
                walk(child, depth + 1)

        walk(self._root, 0)
        for design in self._direct:
            lines.append(f"{design.sim_key()} [direct]")
        return "\n".join(lines) or "(terminal memories only)"

    # -- execution ------------------------------------------------------

    def execute(
        self,
        stream: AddressStream,
        *,
        drain: bool = False,
        telemetry: Telemetry | NullTelemetry | None = None,
        workload: str = "",
    ) -> dict[str, list[LevelStats]]:
        """Simulate every design's lower levels on ``stream``.

        Shared prefixes run once; each level's output is captured and
        replayed into the subtree below it. Returns, per ``sim_key``,
        the list of lower-level statistics (cache levels in chain
        order, then terminal memory levels) ready to be appended to the
        shared upper-level statistics.

        Args:
            stream: the post-L3 request stream (block requests).
            drain: flush dirty blocks at end of stream at every level,
                in hierarchy order (see
                :class:`~repro.experiments.runner.Runner`).
            telemetry: explicit instance; None resolves the active one.
            workload: label for telemetry gauges/events.
        """
        tel = telemetry if telemetry is not None else get_active()
        results: dict[str, list[LevelStats]] = {}
        self._walk(self._root, stream, [], results, drain, tel, workload)
        for design in self._direct:
            caches = design.lower_caches(self.engine)
            memory = design.memory()
            replay_chain(stream, caches, memory, drain=drain)
            results[design.sim_key()] = [
                replace(c.stats) for c in caches
            ] + _memory_stats(memory)
        return results

    def _walk(
        self,
        node: _PlanNode,
        stream: AddressStream,
        prefix_stats: list[LevelStats],
        results: dict[str, list[LevelStats]],
        drain: bool,
        tel: Telemetry | NullTelemetry,
        workload: str,
    ) -> None:
        # Designs whose whole cache chain is the prefix: only their
        # terminal memory consumes the (already captured) stream.
        for design in node.designs:
            memory = design.memory()
            replay_chain(stream, [], memory, drain=drain)
            results[design.sim_key()] = [
                replace(s) for s in prefix_stats
            ] + _memory_stats(memory)
        for child in node.children.values():
            shared_by = child.design_count()
            if shared_by == 1:
                self._run_private(child, stream, prefix_stats, results, drain)
                continue
            cache = CapturingCache(child.config, self.engine)
            sink = _Sink()
            with tel.span(
                "simplan.prefix", level=child.config.name,
                workload=workload, designs=shared_by,
            ):
                replay_chain(stream, [cache], sink, drain=drain)
            stage = f"post_{child.config.name.lower()}"
            tel.gauge(
                "repro_captured_stream_requests", stage=stage,
                workload=workload,
            ).set(len(cache.captured))
            tel.gauge(
                "repro_captured_stream_nbytes", stage=stage,
                workload=workload,
            ).set(cache.captured.nbytes)
            tel.event(
                "prefix_captured", level=child.config.name,
                workload=workload, designs=shared_by,
                requests=len(cache.captured), nbytes=cache.captured.nbytes,
            )
            self._walk(
                child, cache.captured, prefix_stats + [cache.stats],
                results, drain, tel, workload,
            )

    def _run_private(
        self,
        node: _PlanNode,
        stream: AddressStream,
        prefix_stats: list[LevelStats],
        results: dict[str, list[LevelStats]],
        drain: bool,
    ) -> None:
        """Run an unshared suffix chain directly, without capture."""
        configs = []
        current = node
        while True:
            configs.append(current.config)
            if current.designs:
                design = current.designs[0]
                break
            current = next(iter(current.children.values()))
        caches = [SetAssociativeCache(c, self.engine) for c in configs]
        memory = design.memory()
        replay_chain(stream, caches, memory, drain=drain)
        results[design.sim_key()] = (
            [replace(s) for s in prefix_stats]
            + [c.stats for c in caches]
            + _memory_stats(memory)
        )
