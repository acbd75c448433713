"""Conservation invariants of every engine's hierarchy statistics.

Whatever engine prices a design, its statistics describe one stream
flowing down one chain of levels, so three identities must hold:

- L1 sees every program reference: ``loads + stores == references``;
- no level hits more often than it is accessed;
- what leaves level *n* (fills plus writebacks) is exactly what
  arrives at level *n + 1* (its loads plus stores).

They live in :meth:`HierarchyStats.check_conservation`, which the
runner calls on every statistics it memoizes; a violation fails the
sweep cell instead of journalling a bad number.

The reference design's statistics, which :meth:`Runner.prepare`
computes alongside the L1-L3 replay, must also equal a plain
:meth:`Runner.stats_for` evaluation of the REF design.
"""

import json

import pytest

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.deephybrid import DeepHybridDesign
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.ndm import NDMDesign
from repro.designs.nmm import NMMDesign
from repro.designs.reference import ReferenceDesign
from repro.experiments.runner import Runner
from repro.partition.ranges import AddressRange
from repro.resilience import Journal, SweepExecutor
from repro.tech.params import EDRAM, PCM
from repro.telemetry.core import Telemetry
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192
WORKLOADS = ("CG", "Hashing")

#: Runner options of every engine setup.
SETUPS = {
    "auto": {"engine": "auto"},
    "scalar": {"engine": "scalar"},
    "drain": {"drain": True},
    "sample": {"sample": "500:2000:5000"},
    "analytic": {"engine": "analytic"},
}


def family_designs(runner):
    """One member of every built-in design family, for ``runner``."""
    common = {"scale": SCALE, "reference": runner.reference}
    return [
        ReferenceDesign(**common),
        NMMDesign(PCM, N_CONFIGS["N6"], **common),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], **common),
        FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], **common),
        DeepHybridDesign(EDRAM, PCM, EH_CONFIGS["EH1"], N_CONFIGS["N6"],
                         **common),
        NDMDesign(PCM, [AddressRange(0x1000_0000, 0x2000_0000, "hot")],
                  **common),
    ]


@pytest.fixture(scope="module")
def trace_cache(tmp_path_factory):
    """One trace cache shared by every setup (traces once per workload)."""
    return str(tmp_path_factory.mktemp("conservation-traces"))


@pytest.fixture(scope="module", params=list(SETUPS))
def runner(request, trace_cache):
    return Runner(scale=SCALE, seed=0, trace_cache_dir=trace_cache,
                  **SETUPS[request.param])


@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_every_family_conserves_requests(runner, workload_name):
    workload = get_workload(workload_name)
    for design in family_designs(runner):
        stats = runner.stats_for(design, workload)
        # L1-L3 and the design's caches, then its memory level(s). The
        # identities hold exactly here, sampled setup included.
        stats.check_conservation(
            3 + len(design.lower_caches(runner.sim_engine))
        )


@pytest.mark.parametrize("setup", ["auto", "drain", "sample"])
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_prepared_ref_equals_ref_replay(trace_cache, setup, workload_name):
    runner = Runner(scale=SCALE, seed=0, trace_cache_dir=trace_cache,
                    **SETUPS[setup])
    workload = get_workload(workload_name)
    ref = family_designs(runner)[0]
    prepared = runner.stats_for(ref, workload)
    del runner._design_stats[("REF", workload_name)]
    replayed = runner.stats_for(ref, workload)
    assert replayed is not prepared
    assert replayed == prepared


def test_corrupt_lower_replay_fails_its_cell(trace_cache, tmp_path,
                                            monkeypatch):
    """A lower replay that loses one memory load fails its sweep cell,
    and is journalled as failed and announced as a ``conservation_violated``
    event; REF, priced by prepare, stays ok."""
    real_replay = Runner._replay_lower

    def lose_a_load(levels):
        levels[-1].loads -= 1
        levels[-1].load_hits -= 1
        return levels

    def corrupt_replay(self, post_l3, segments, factor, lower, memory):
        levels = real_replay(self, post_l3, segments, factor, lower, memory)
        return lose_a_load(levels) if lower else levels

    monkeypatch.setattr(Runner, "_replay_lower", corrupt_replay)
    telemetry = Telemetry(tmp_path / "telemetry")
    runner = Runner(scale=SCALE, seed=0, trace_cache_dir=trace_cache,
                    telemetry=telemetry)
    designs = family_designs(runner)[:3]  # REF, NMM-N6, 4LC-EH4
    journal = Journal(tmp_path / "campaign.jsonl")
    result = SweepExecutor(runner, journal=journal).run(
        designs, [get_workload("CG")]
    )
    telemetry.close()
    statuses = {outcome.design: outcome.status for outcome in result.outcomes}
    assert statuses == {designs[0].name: "ok", designs[1].name: "failed",
                        designs[2].name: "failed"}
    for entry in journal.load().values():
        if entry.design != designs[0].name:
            assert entry.status == "failed"
            assert entry.evaluation is None
            assert "conservation violated between" in entry.error
    events = [
        json.loads(line) for line in
        (tmp_path / "telemetry" / "events.jsonl").read_text().splitlines()
    ]
    violations = [e for e in events if e["kind"] == "conservation_violated"]
    assert {e["design"] for e in violations} == {
        designs[1].sim_key(), designs[2].sim_key()
    }
    for event in violations:
        assert event["workload"] == "CG"
        assert event["engine_class"] == "exact"
        assert event["source"] == "simulated"


def test_prefetching_level_conserves_requests():
    """A prefetching L2 counts its prefetch fills and the writebacks
    they displace, so what leaves it is what memory receives."""
    from repro.cache.config import CacheConfig
    from repro.cache.hierarchy import Hierarchy
    from repro.cache.mainmem import MainMemory
    from repro.cache.prefetch import PrefetchingCache
    from repro.cache.setassoc import SetAssociativeCache
    from repro.trace.synthetic import random_stream
    from repro.units import KiB, MiB

    l2 = PrefetchingCache(
        SetAssociativeCache(CacheConfig("L2", 8 * KiB, 4, 64)), degree=2
    )
    hierarchy = Hierarchy(
        [SetAssociativeCache(CacheConfig("L1", 1 * KiB, 2, 64)), l2],
        MainMemory("MEM"),
    )
    stats = hierarchy.run(
        random_stream(20_000, footprint_bytes=1 * MiB, seed=5), drain=True
    )
    assert l2.prefetch_stats.issued > 0
    stats.check_conservation(2)
