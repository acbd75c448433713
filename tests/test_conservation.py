"""Conservation invariants of every engine's hierarchy statistics.

Whatever engine prices a design, its statistics describe one stream
flowing down one chain of levels, so three identities must hold:

- L1 sees every program reference: ``loads + stores == references``;
- no level hits more often than it is accessed;
- what leaves level *n* (fills plus writebacks) is exactly what
  arrives at level *n + 1* (its loads plus stores).

Fills, not misses, are what leave a level: extrapolated sampled
counters are rounded field by field, so misses plus writebacks can be
off by one where fills plus writebacks are not.

The reference design's statistics, which :meth:`Runner.prepare`
computes alongside the L1-L3 replay, must also equal a plain
:meth:`Runner.stats_for` evaluation of the REF design.
"""

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
from repro.tech.params import EDRAM, PCM
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
    common = {"scale": SCALE, "reference": runner.reference,
              "engine": runner.sim_engine}
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
        label = f"{design.name} on {workload_name} ({runner.engine_class})"
        l1 = stats.levels[0]
        assert l1.loads + l1.stores == stats.references, label
        for level in stats.levels:
            assert level.load_hits <= level.loads, f"{label}: {level.name}"
            assert level.store_hits <= level.stores, f"{label}: {level.name}"
        # L1-L3 and the design's caches, then its memory level(s), which
        # together receive what the last cache sends down.
        n_caches = 3 + len(design.lower_caches())
        caches, memory = stats.levels[:n_caches], stats.levels[n_caches:]
        arrivals = [level.loads + level.stores for level in caches[1:]]
        arrivals.append(sum(level.loads + level.stores for level in memory))
        for level, arrived in zip(caches, arrivals):
            assert level.fills + level.writebacks == arrived, (
                f"{label}: below {level.name}"
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
