"""Chain-shared lower results: each distinct lower chain is priced once.

``Runner.stats_for`` prices a plain lower chain (exactly
``SetAssociativeCache`` levels over exactly a ``MainMemory``) once per
workload and hands later designs with the same chain key copies of its
lower statistics, the memory level renamed. These tests pin that the
shared results equal pricing the design on a fresh runner, field for
field, under every engine setup; that chains which must not share are
priced on their own; and that twins never alias each other's counters.
"""

from dataclasses import replace

import pytest

from repro.cache.prefetch import PrefetchingCache
from repro.cache.setassoc import SetAssociativeCache
from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.ndm import NDMDesign
from repro.designs.nmm import NMMDesign
from repro.designs.reference import ReferenceDesign
from repro.experiments.runner import Runner
from repro.experiments.simplan import SimPlan
from repro.partition.ranges import AddressRange
from repro.tech.params import EDRAM, FERAM, PCM
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


@pytest.fixture(scope="module")
def trace_cache(tmp_path_factory):
    """One trace cache shared by every runner (traces once per workload)."""
    return str(tmp_path_factory.mktemp("chain-sharing-traces"))


def make_runner(trace_cache, setup):
    return Runner(scale=SCALE, seed=0, trace_cache_dir=trace_cache,
                  **SETUPS[setup])


def count_pricings(monkeypatch):
    """Record every lower-chain pricing: exact or sampled replays and
    analytic evaluations."""
    calls = []
    for name in ("_replay_lower", "_analytic_stats_for"):
        real = getattr(Runner, name)

        def counted(self, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Runner, name, counted)
    return calls


def twin_pairs(runner):
    """(first, twin) designs whose lower chains are config-identical at
    1/8192: 4LCNVM's L4 is 4LC's at every scale, N1/N2 and EH6-EH8
    coincide only at this one."""
    common = {"scale": SCALE, "reference": runner.reference}

    def four_lc(config):
        return FourLCDesign(EDRAM, EH_CONFIGS[config], **common)

    def nvm(tech, config):
        return FourLCNVMDesign(EDRAM, tech, EH_CONFIGS[config], **common)

    def nmm(config):
        return NMMDesign(PCM, N_CONFIGS[config], **common)

    return [
        (four_lc("EH1"), nvm(PCM, "EH1")),
        (four_lc("EH1"), nvm(FERAM, "EH1")),
        (four_lc("EH4"), nvm(PCM, "EH4")),
        (four_lc("EH4"), nvm(FERAM, "EH4")),
        (nmm("N1"), nmm("N2")),
        (four_lc("EH6"), four_lc("EH7")),
        (four_lc("EH6"), four_lc("EH8")),
    ]


@pytest.mark.parametrize("setup", list(SETUPS))
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_twins_equal_their_own_pricing(trace_cache, monkeypatch, setup,
                                       workload_name):
    runner = make_runner(trace_cache, setup)
    workload = get_workload(workload_name)
    runner.prepare(workload)
    pricings = count_pricings(monkeypatch)
    pairs = twin_pairs(runner)
    for first, _ in pairs:
        runner.stats_for(first, workload)
    assert len(pricings) == 4  # EH1, EH4, N1 and EH6
    shared = [runner.stats_for(twin, workload) for _, twin in pairs]
    assert len(pricings) == 4
    for (_, twin), stats in zip(pairs, shared):
        alone = make_runner(trace_cache, setup).stats_for(twin, workload)
        assert stats.as_dict() == alone.as_dict(), twin.name


class OddCache(SetAssociativeCache):
    """A cache subclass: a design that builds one has no chain key."""


class VariantL4(FourLCDesign):
    """4LC whose L4 differs from the stock one in one config field."""

    def __init__(self, field, value, odd=False, **kwargs):
        super().__init__(EDRAM, EH_CONFIGS["EH4"], **kwargs)
        self.field, self.value, self.odd = field, value, odd

    def sim_key(self):
        return f"{super().sim_key()}-{self.field}{self.value}-odd{self.odd}"

    def l4_config(self):
        config = super().l4_config()
        if self.field is not None:
            config = replace(config, **{self.field: self.value})
        return config


class OddVariantL4(VariantL4):
    """A :class:`VariantL4` whose L4 is an :class:`OddCache`: it builds
    its own caches, so its configs do not describe its chain."""

    def __init__(self, field, value, **kwargs):
        super().__init__(field, value, odd=True, **kwargs)

    def lower_caches(self, engine):
        return [OddCache(config, engine) for config in self.lower_configs()]


@pytest.mark.parametrize("setup", list(SETUPS))
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_unshareable_chains_are_priced_alone(trace_cache, monkeypatch, setup,
                                             workload_name):
    runner = make_runner(trace_cache, setup)
    workload = get_workload(workload_name)
    runner.prepare(workload)  # REF: a plain chain of no caches
    pricings = count_pricings(monkeypatch)
    common = {"scale": SCALE, "reference": runner.reference}
    designs = [
        # Partitioned memories with different rules share nothing, not
        # even with REF's or each other's empty cache chain.
        NDMDesign(PCM, [AddressRange(0x1000_0000, 0x2000_0000, "hot")],
                  **common),
        NDMDesign(PCM, [AddressRange(0x2000_0000, 0x3000_0000, "warm")],
                  **common),
        VariantL4(None, None, **common),
        VariantL4("associativity", 4, **common),
        VariantL4("sector_size", 128, **common),
        OddVariantL4(None, None, **common),
    ]
    for count, design in enumerate(designs, start=1):
        runner.stats_for(design, workload)
        assert len(pricings) == count, design.sim_key()


def test_odd_cache_keeps_the_loop(trace_cache, monkeypatch):
    """Only exactly ``SetAssociativeCache`` is priced by counts: a
    subclass L4 takes the per-chunk loop, with the same result."""
    calls = []
    real = SetAssociativeCache.count_lru

    def counted(self, *args, **kwargs):
        calls.append(type(self).__name__)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SetAssociativeCache, "count_lru", counted)
    workload = get_workload("CG")
    stats = {}
    for odd in (True, False):
        runner = make_runner(trace_cache, "auto")
        design = (OddVariantL4 if odd else VariantL4)(
            None, None, scale=SCALE, reference=runner.reference
        )
        stats[odd] = runner.stats_for(design, workload).as_dict()
    assert calls == ["SetAssociativeCache"]
    assert stats[True] == stats[False]


def test_prefetching_chain_is_priced_alone_and_checked(trace_cache,
                                                       monkeypatch):
    """A PrefetchingCache has no chain key, so it is replayed even after
    its plain twin and never shared. Its level counts the prefetch
    fills it sends down, so the checked result conserves requests and
    is memoized: memory receives more loads than under the plain
    twin."""

    class Prefetching(FourLCDesign):
        def sim_key(self):
            return "PF-" + super().sim_key()

        def lower_caches(self, engine):
            return [PrefetchingCache(cache, degree=1)
                    for cache in super().lower_caches(engine)]

    runner = make_runner(trace_cache, "auto")
    workload = get_workload("CG")
    plain = FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE)
    plain_stats = runner.stats_for(plain, workload)
    pricings = count_pricings(monkeypatch)
    chains = dict(runner._chain_stats)
    prefetching = Prefetching(EDRAM, EH_CONFIGS["EH4"], scale=SCALE)
    stats = runner.stats_for(prefetching, workload)
    assert pricings == ["_replay_lower"]
    assert runner._design_stats[(prefetching.sim_key(), "CG")] is stats
    assert runner._chain_stats == chains
    assert stats.level("L4").fills > plain_stats.level("L4").fills
    assert stats.level("DRAM").loads > plain_stats.level("DRAM").loads


def test_twins_do_not_alias(trace_cache):
    """Mutating one design's returned lower stats changes neither its
    twin's nor the memo a later twin is copied from."""
    runner = make_runner(trace_cache, "auto")
    workload = get_workload("CG")
    first, twin = twin_pairs(runner)[2]  # 4LC-EH4, 4LCNVM-PCM-EH4
    expected = {
        design.sim_key(): make_runner(trace_cache, "auto").stats_for(
            design, workload
        ).as_dict()
        for design in (first, twin)
    }
    a = runner.stats_for(first, workload)
    for level in a.levels[3:]:
        level.loads += 5
    b = runner.stats_for(twin, workload)
    assert b.as_dict() == expected[twin.sim_key()]
    for level in b.levels[3:]:
        level.stores += 7
    assert [level.loads for level in a.levels[3:]] == [
        level["loads"] + 5 for level in expected[first.sim_key()]["levels"][3:]
    ]
    assert [level.stores for level in a.levels[3:]] == [
        level["stores"] for level in expected[first.sim_key()]["levels"][3:]
    ]
    # Same chain as 4LC-EH4 under a third sim key: copied from the memo.
    third = VariantL4(None, None, scale=SCALE, reference=runner.reference)
    assert runner.stats_for(third, workload).as_dict() == expected[
        first.sim_key()
    ]


def test_simulate_designs_plans_each_chain_once(trace_cache, monkeypatch):
    runner = make_runner(trace_cache, "auto")
    workload = get_workload("CG")
    pairs = twin_pairs(runner)
    runner.stats_for(pairs[0][0], workload)  # 4LC-EH1: its chain is priced
    planned = []
    real = SimPlan.execute

    def recording(plan, *args, **kwargs):
        planned.extend(design.sim_key() for design in plan.designs)
        return real(plan, *args, **kwargs)

    monkeypatch.setattr(SimPlan, "execute", recording)
    designs = [design for pair in pairs for design in pair]
    runner.simulate_designs(designs, workload)
    assert sorted(planned) == ["4LC-EH4", "4LC-EH6", "NMM-N1"]
    for design in designs:
        assert (design.sim_key(), "CG") in runner._design_stats
        alone = make_runner(trace_cache, "auto").stats_for(design, workload)
        assert runner.stats_for(design, workload).as_dict() == alone.as_dict()


def test_priced_from_records_only_when_nothing_would_simulate(
    tmp_path, monkeypatch
):
    """A pool imports the simulator before it forks unless every cell
    is priced from records: the cached trace, its upper record, and a
    lower record holding both the REF chain and the design's."""
    workload = get_workload("CG")
    cache = str(tmp_path)
    designs = [
        ReferenceDesign(scale=SCALE),
        NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE),
    ]

    def priced(runner, design):
        return runner.priced_from_records(design, workload)

    assert not priced(Runner(scale=SCALE, seed=0), designs[1])  # no cache
    cold = Runner(scale=SCALE, seed=0, trace_cache_dir=cache)
    assert not priced(cold, designs[0])  # nothing cached yet
    cold.trace_only(workload)
    assert not any(priced(cold, design) for design in designs)  # no upper
    for design in designs:
        cold.stats_for(design, workload)
    cold.save_lower_records()

    warm = Runner(scale=SCALE, seed=0, trace_cache_dir=cache)
    assert all(priced(warm, design) for design in designs)
    analytic = Runner(scale=SCALE, seed=0, trace_cache_dir=cache,
                      engine="analytic")
    assert not priced(analytic, designs[1])
    assert not priced(warm, OddVariantL4(None, None, scale=SCALE))  # keyless
    unrecorded = FourLCDesign(EDRAM, EH_CONFIGS["EH1"], scale=SCALE)
    assert not priced(warm, unrecorded)

    # The predicate agrees with what pricing then does.
    pricings = count_pricings(monkeypatch)
    for design in designs:
        warm.stats_for(design, workload)
    assert pricings == []
    warm.stats_for(unrecorded, workload)
    assert pricings == ["_replay_lower"]
