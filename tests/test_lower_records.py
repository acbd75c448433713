"""Lower records: each workload's priced lower chains, persisted.

With a trace cache, a runner that calls ``save_lower_records`` writes
one ``<trace>.lower-<upper key>-<engine>.json`` per workload, mapping a
digest of each keyed chain's ``chain_key`` (plain chains and NDM's
partitioned memories) to its lower statistics.
Later runners of the same exact engine price those chains — and the REF
DRAM — from the record instead of replaying them. These tests pin that
warm results equal cold ones field for field, that recorded chains are
never replayed, that a bad record is discarded and rebuilt, and which
runners never read or write records.
"""

import contextlib
import importlib.util
import io
import json
import logging
import sys
from pathlib import Path

import pytest

from repro.cache.mainmem import MainMemory
from repro.cache.partition import PartitionedMemory, RoutingRule
from repro.cache.stats import HierarchyStats
from repro.designs.base import ReferenceSystem, chain_key
from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.deephybrid import DeepHybridDesign
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.ndm import NDMDesign
from repro.designs.nmm import NMMDesign
from repro.designs.reference import ReferenceDesign
from repro.errors import SimulationError
from repro.experiments import cli
from repro.experiments.runner import (
    _LOWER_RECORD_VERSION,
    Runner,
    _chain_digest,
    _read_lower_record,
)
from repro.experiments.simplan import SimPlan
from repro.partition.profiler import select_ranges
from repro.partition.ranges import AddressRange
from repro.resilience import (
    FaultInjector,
    Journal,
    PoolTuning,
    SweepExecutor,
)
from repro.tech.params import DRAM, EDRAM, FERAM, PCM, STTRAM
from repro.tech.scaling import scaled_technology
from repro.telemetry.core import Telemetry
from repro.telemetry.observatory import aggregate_run
from repro.trace.io import _write_artifact, checksum_path, verify_artifact
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192

ROOT = Path(__file__).resolve().parents[1]

#: Runner options of the three record flavours: exact, drained and
#: sampled (each has its own upper key, so its own lower records).
MODES = {
    "exact": {},
    "drain": {"drain": True},
    "sample": {"sample": "500:2000:5000"},
}


def recordable(runner):
    """Designs whose lower chain has a ``chain_key``: REF, NMM, 4LC,
    4LCNVM (which shares 4LC's chain) and DeepHybrid."""
    common = {"scale": SCALE, "reference": runner.reference}
    return [
        ReferenceDesign(**common),
        NMMDesign(PCM, N_CONFIGS["N6"], **common),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], **common),
        FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], **common),
        DeepHybridDesign(EDRAM, PCM, EH_CONFIGS["EH1"], N_CONFIGS["N6"],
                         **common),
    ]


class OddDevice(MainMemory):
    """A memory device type the chain key does not vouch for."""


class OddNDM(NDMDesign):
    """NDM whose NVM partition is an :class:`OddDevice`."""

    def sim_key(self):
        return f"odd-{super().sim_key()}"

    def memory(self):
        memory = super().memory()
        memory.devices[1] = OddDevice(memory.devices[1].name)
        return memory


def keyless(runner):
    """A design without a ``chain_key``: it always simulates."""
    return OddNDM(PCM, [AddressRange(0x1000_0000, 0x2000_0000, "hot")],
                  scale=SCALE, reference=runner.reference)


def make_runner(cache, **options):
    return Runner(scale=SCALE, seed=4, trace_cache_dir=str(cache), **options)


def priced(runner, designs, workload, path="stats_for"):
    """Every design's statistics as plain dicts, priced along ``path``."""
    if path == "simulate_designs":
        runner.simulate_designs(designs, workload)
    return [runner.stats_for(design, workload).as_dict() for design in designs]


def spy_pricing(monkeypatch):
    """Record every lower replay and plan execution."""
    calls = []
    real_replay, real_execute = Runner._replay_lower, SimPlan.execute

    def replay(self, post_l3, segments, factor, lower, memory):
        calls.append(("replay", type(memory).__name__))
        return real_replay(self, post_l3, segments, factor, lower, memory)

    def execute(self, *args, **kwargs):
        calls.append(("plan", sorted(d.sim_key() for d in self.designs)))
        return real_execute(self, *args, **kwargs)

    monkeypatch.setattr(Runner, "_replay_lower", replay)
    monkeypatch.setattr(SimPlan, "execute", execute)
    return calls


def lower_files(cache, engine="*"):
    return sorted(cache.glob(f"CG-*.lower-*-{engine}.json"))


def cold_record(cache, **options):
    """Price every recordable design on CG cold, save, and return the
    cold results and REF evaluation."""
    workload = get_workload("CG")
    cold = make_runner(cache, **options)
    expected = priced(cold, recordable(cold), workload)
    cold.save_lower_records()
    return expected, cold.prepare(workload).ref_raw


class TestWarmEqualsCold:
    @pytest.mark.parametrize("path", ["stats_for", "simulate_designs"])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_warm_runner_prices_from_the_record(
        self, tmp_path, monkeypatch, mode, path
    ):
        expected, ref_raw = cold_record(tmp_path, **MODES[mode])
        (record,) = lower_files(tmp_path)
        assert record.name.endswith("-auto.json")
        assert checksum_path(record).exists()

        calls = spy_pricing(monkeypatch)
        warm = make_runner(tmp_path, **MODES[mode])
        workload = get_workload("CG")
        trace = warm.prepare(workload)
        assert trace.upper_cached
        assert trace.ref_raw == ref_raw  # REF DRAM from the record
        assert priced(warm, recordable(warm), workload, path) == expected
        assert calls == []

    def test_chains_without_a_key_still_simulate(self, tmp_path, monkeypatch):
        workload = get_workload("CG")
        cold = make_runner(tmp_path)
        expected = priced(cold, [keyless(cold)], workload)
        cold.save_lower_records()
        calls = spy_pricing(monkeypatch)
        warm = make_runner(tmp_path)
        assert priced(warm, [keyless(warm)], workload) == expected
        assert calls == [("replay", "PartitionedMemory")]

    def test_record_hits_are_counted_and_add_no_windows(self, tmp_path):
        cold_record(tmp_path / "cache")
        telemetry = Telemetry(tmp_path / "telemetry")
        warm = make_runner(tmp_path / "cache", telemetry=telemetry)
        workload = get_workload("CG")
        priced(warm, recordable(warm), workload)
        # REF in prepare, then NMM, 4LC and DeepHybrid (4LCNVM shares
        # 4LC's chain in-process, REF's stats_for is memoized).
        hits = telemetry.counter(
            "repro_lower_record_hits_total", workload="CG"
        ).value
        telemetry.close()
        assert hits == 4
        events = [
            json.loads(line) for line in
            (tmp_path / "telemetry" / "events.jsonl").read_text().splitlines()
        ]
        assert not [
            e for e in events
            if e["kind"] == "window" and e["context"].startswith("design-")
        ]
        (prepared,) = [e for e in events if e["kind"] == "workload_prepared"]
        assert prepared["lower_records"] == 4


class TestSelfHeal:
    def _truncated(self, path):
        path.write_bytes(path.read_bytes()[:40])

    def _sidecar_mismatch(self, path):
        checksum_path(path).write_text(f"{'0' * 64}  {path.name}\n")

    def _foreign_version(self, path):
        record = json.loads(path.read_bytes())
        record["version"] = _LOWER_RECORD_VERSION + 1
        _write_artifact(path, json.dumps(record).encode())

    def _garbled_entry(self, path):
        record = json.loads(path.read_bytes())
        digest = next(iter(record["chains"]))
        record["chains"][digest][0]["loads"] = "many"
        _write_artifact(path, json.dumps(record).encode())

    @pytest.mark.parametrize(
        "corruption",
        ["truncated", "sidecar_mismatch", "foreign_version", "garbled_entry"],
    )
    def test_bad_record_is_discarded_resimulated_and_rewritten(
        self, tmp_path, monkeypatch, caplog, corruption
    ):
        expected, _ = cold_record(tmp_path)
        (record,) = lower_files(tmp_path)
        getattr(self, f"_{corruption}")(record)

        workload = get_workload("CG")
        healed = make_runner(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro"):
            healed.prepare(workload)
        assert "discarded lower record" in caplog.text
        assert not record.exists()
        assert priced(healed, recordable(healed), workload) == expected
        healed.save_lower_records()
        assert lower_files(tmp_path) == [record]

        calls = spy_pricing(monkeypatch)
        again = make_runner(tmp_path)
        assert priced(again, recordable(again), workload) == expected
        assert calls == []


class TestWhoReadsAndWrites:
    def test_scalar_never_reads_auto_records(self, tmp_path, monkeypatch):
        expected, _ = cold_record(tmp_path)
        (auto_record,) = lower_files(tmp_path, "auto")
        before = auto_record.read_bytes()
        calls = spy_pricing(monkeypatch)
        scalar = make_runner(tmp_path, engine="scalar")
        assert priced(scalar, recordable(scalar), get_workload("CG")) == expected
        assert ("replay", "MainMemory") in calls  # REF DRAM, at least
        scalar.save_lower_records()
        assert auto_record.read_bytes() == before
        assert len(lower_files(tmp_path, "scalar")) == 1

    def test_analytic_runner_keeps_no_records(self, tmp_path):
        cold_record(tmp_path)
        (record,) = lower_files(tmp_path)
        before = record.read_bytes()
        analytic = make_runner(tmp_path, engine="analytic")
        workload = get_workload("CG")
        priced(analytic, recordable(analytic), workload)
        assert analytic.prepare(workload).upper_cached
        analytic.save_lower_records()
        assert lower_files(tmp_path) == [record]
        assert record.read_bytes() == before

    def test_analytic_runner_writes_none(self, tmp_path):
        analytic = make_runner(tmp_path, engine="analytic")
        priced(analytic, recordable(analytic), get_workload("CG"))
        analytic.save_lower_records()
        assert not list(tmp_path.glob("*.lower-*"))

    def test_a_runner_that_never_saves_writes_nothing(self, tmp_path):
        runner = make_runner(tmp_path)
        priced(runner, recordable(runner), get_workload("CG"))
        assert not list(tmp_path.glob("*.lower-*"))

    def test_no_records_without_a_trace_cache(self):
        runner = Runner(scale=SCALE, seed=4)
        priced(runner, recordable(runner)[:2], get_workload("CG"))
        runner.save_lower_records()
        assert runner._lower_records == {}

    def test_two_savers_merge(self, tmp_path, monkeypatch):
        workload = get_workload("CG")
        first, second = make_runner(tmp_path), make_runner(tmp_path)
        nmm, fourlc = recordable(first)[1], recordable(second)[2]
        first.prepare(workload)
        second.prepare(workload)  # loads nothing: first has not saved
        expected = priced(first, [nmm], workload) + priced(
            second, [fourlc], workload
        )
        first.save_lower_records()
        second.save_lower_records()

        calls = spy_pricing(monkeypatch)
        merged = make_runner(tmp_path)
        assert priced(merged, [nmm, fourlc], workload) == expected
        assert calls == []
        (record,) = lower_files(tmp_path)
        chains = json.loads(record.read_bytes())["chains"]
        assert len(chains) == 3  # REF DRAM, NMM and 4LC

    def test_acked_chains_saved_by_another_runner(
        self, tmp_path, monkeypatch
    ):
        """A pool worker's acks, replayed in-process: each chain goes
        out once, and the absorbing runner keeps it across its own
        ``prepare``."""
        workload = get_workload("CG")
        worker, parent = make_runner(tmp_path), make_runner(tmp_path)
        expected = priced(worker, recordable(worker), workload)
        chains = worker.unsent_lower_chains("CG")
        assert len(chains) == 4  # REF DRAM, NMM, 4LC (= 4LCNVM), DeepHybrid
        assert worker.unsent_lower_chains("CG") == {}
        parent.absorb_lower_chains(workload, chains)
        parent.prepare(workload)
        parent.save_lower_records()

        calls = spy_pricing(monkeypatch)
        warm = make_runner(tmp_path)
        assert priced(warm, recordable(warm), workload) == expected
        assert calls == []


class TestConservation:
    def _lose_a_load(self, tmp_path, design):
        """Rewrite ``design``'s recorded chain with one memory load
        fewer (a well-formed record with a valid sidecar)."""
        (record,) = lower_files(tmp_path)
        payload = json.loads(record.read_bytes())
        digest = _chain_digest(design.chain_key())
        memory = payload["chains"][digest][-1]
        memory["loads"] -= 1
        memory["load_hits"] -= 1
        _write_artifact(record, json.dumps(payload).encode())
        return record

    def test_violating_record_fails_its_cell_memoizing_nothing(
        self, tmp_path
    ):
        expected, _ = cold_record(tmp_path / "cache")
        cache = tmp_path / "cache"
        telemetry = Telemetry(tmp_path / "telemetry")
        runner = make_runner(cache, telemetry=telemetry)
        workload = get_workload("CG")
        nmm = recordable(runner)[1]
        record = self._lose_a_load(cache, nmm)
        chain = nmm.chain_key()

        with pytest.raises(SimulationError, match="conservation violated"):
            runner.stats_for(nmm, workload)
        assert (nmm.sim_key(), "CG") not in runner._design_stats
        assert (chain, "CG") not in runner._chain_stats
        assert not record.exists()  # the whole record is suspect
        # Asking again re-simulates and prices the design correctly.
        assert runner.stats_for(nmm, workload).as_dict() == expected[1]
        telemetry.close()
        events = [
            json.loads(line) for line in
            (tmp_path / "telemetry" / "events.jsonl").read_text().splitlines()
        ]
        (violation,) = [
            e for e in events if e["kind"] == "conservation_violated"
        ]
        assert violation["workload"] == "CG"
        assert violation["design"] == nmm.sim_key()
        assert violation["engine_class"] == "exact"
        assert violation["source"] == "record"

    @pytest.mark.parametrize("reruns", [0, 1], ids=lambda n: f"retry{n}")
    def test_violating_record_fails_its_sweep_cell(self, tmp_path, reruns):
        """The cell fails; retrying it by resuming the journal
        re-simulates it, since the violating record was discarded."""
        cold_record(tmp_path)
        runner = make_runner(tmp_path)
        nmm = recordable(runner)[1]
        self._lose_a_load(tmp_path, nmm)
        journal = Journal(tmp_path / "campaign.jsonl")
        workloads = [get_workload("CG")]
        result = SweepExecutor(runner, journal=journal).run([nmm], workloads)
        ((design, status),) = [(o.design, o.status) for o in result.outcomes]
        assert (design, status) == (nmm.name, "failed")
        (entry,) = journal.load().values()
        assert entry.evaluation is None
        assert "conservation violated" in entry.error
        if not reruns:
            return

        resumed = SweepExecutor(
            make_runner(tmp_path), journal=journal, resume=True
        ).run([nmm], workloads)
        (outcome,) = resumed.outcomes
        assert outcome.status == "ok" and not outcome.from_journal
        assert journal.load()[outcome.key].status == "ok"

    def test_violating_ref_record_fails_prepare(self, tmp_path):
        cold_record(tmp_path)
        runner = make_runner(tmp_path)
        self._lose_a_load(tmp_path, recordable(runner)[0])
        workload = get_workload("CG")
        with pytest.raises(SimulationError, match="conservation violated"):
            runner.prepare(workload)
        assert ("REF", "CG") not in runner._design_stats
        assert not lower_files(tmp_path)
        runner.prepare(workload)  # re-simulates the REF DRAM


def ndm_designs(runner, tech=PCM):
    """NDM designs placing each of CG's candidate ranges in NVM, then
    all of them, as the oracle does."""
    trace = runner.prepare(get_workload("CG"))
    candidates = [
        p.range
        for p in select_ranges(trace.result.tracer, trace.region_traffic)
    ]
    placements = [[r] for r in candidates] + [candidates]
    return [
        NDMDesign(tech, ranges, scale=SCALE, reference=runner.reference)
        for ranges in placements
    ]


def partitioned(rules, default=0, names=("DRAMpart", "NVMpart")):
    return PartitionedMemory(
        [MainMemory(name) for name in names],
        [RoutingRule(*rule) for rule in rules],
        default_device=default,
    )


class TestPartitionedChains:
    """NDM's partitioned memories have a content chain key — device
    names, routing rules in order, default device — so NDM chains are
    shared and recorded like plain ones."""

    def test_nvm_technology_is_not_in_the_key(self):
        ranges = [AddressRange(0x1000, 0x2000, "hot"),
                  AddressRange(0x8000, 0x9000, "warm")]
        keys = {
            chain_key([], NDMDesign(tech, ranges, scale=SCALE).memory())
            for tech in (PCM, STTRAM, FERAM)
        }
        assert len(keys) == 1
        assert keys != {chain_key([], MainMemory("DRAMpart"))}

    def test_every_rule_field_order_and_default_enter_the_key(self):
        rules = [(0x1000, 0x2000, 1), (0x1800, 0x3000, 0)]
        base = chain_key([], partitioned(rules))
        variants = [
            partitioned([(0x1001, 0x2000, 1), rules[1]]),
            partitioned([(0x1000, 0x2001, 1), rules[1]]),
            partitioned([(0x1000, 0x2000, 0), rules[1]]),
            partitioned(rules[::-1]),  # first match wins: order matters
            partitioned(rules[:1]),
            partitioned(rules, default=1),
            partitioned(rules, names=("DRAMpart", "NVM")),
        ]
        keys = [chain_key([], memory) for memory in variants]
        assert base == chain_key([], partitioned(rules))
        assert base not in keys
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_warm_runner_prices_every_ndm_design_from_the_record(
        self, tmp_path, monkeypatch, mode
    ):
        workload = get_workload("CG")
        cold = make_runner(tmp_path / "cache", **MODES[mode])
        expected = priced(cold, ndm_designs(cold), workload)
        cold.save_lower_records()

        calls = spy_pricing(monkeypatch)
        telemetry = Telemetry(tmp_path / "telemetry")
        warm = make_runner(tmp_path / "cache", telemetry=telemetry,
                           **MODES[mode])
        designs = ndm_designs(warm) + ndm_designs(warm, STTRAM)
        assert priced(warm, designs, workload) == expected * 2
        hits = telemetry.counter(
            "repro_lower_record_hits_total", workload="CG"
        ).value
        telemetry.close()
        assert calls == []
        # The REF DRAM, then each placement once: the STTRAM designs
        # share the PCM ones' sim keys.
        assert hits == 1 + len(expected)

    def test_violating_ndm_record_discards_the_whole_record(self, tmp_path):
        workload = get_workload("CG")
        cold = make_runner(tmp_path)
        hot = ndm_designs(cold)[0]
        expected = priced(cold, [hot, recordable(cold)[1]], workload)
        cold.save_lower_records()
        record = TestConservation()._lose_a_load(tmp_path, hot)

        runner = make_runner(tmp_path)
        with pytest.raises(SimulationError, match="conservation violated"):
            runner.stats_for(ndm_designs(runner)[0], workload)
        assert not record.exists()
        assert priced(
            runner, [ndm_designs(runner)[0], recordable(runner)[1]], workload
        ) == expected


#: The pool sweeps' grid: REF, one NMM and one 4LC design (three
#: distinct lower chains per workload, the REF DRAM among them).
POOL_DESIGNS = "REF,NMM:PCM:N6,4LC:EDRAM:EH4"
POOL_WORKLOADS = ("CG", "Hashing")


#: ``_chain_digest`` of every chain the figures and the benchmark's
#: sweep grids price at its scale (1/8192), by sim key, taken before
#: designs described their chains by configs. A changed digest turns
#: every lower record into misses.
PINNED_DIGESTS = {
    "REF": "4f53cda18c2baa0c",
    "NMM-N1": "31df642c15b5b4f7",
    "NMM-N2": "31df642c15b5b4f7",
    "NMM-N3": "1c8c2fe0643a5f5a",
    "NMM-N4": "0322843d76d91069",
    "NMM-N5": "d50b13128a267bf8",
    "NMM-N6": "5f56d0480088d944",
    "NMM-N7": "79b7558f5199fc38",
    "NMM-N8": "0c1907b10de2839a",
    "NMM-N9": "f4481836719f2b83",
    "4LC-EH1": "3519da71ede98d0d",
    "4LC-EH2": "81ead3a938efe98e",
    "4LC-EH3": "b463087e346bd1e1",
    "4LC-EH4": "637ed02e397f85c7",
    "4LC-EH5": "d1ff353518857900",
    "4LC-EH6": "70304dd064c3e4df",
    "4LC-EH7": "70304dd064c3e4df",
    "4LC-EH8": "70304dd064c3e4df",
    "4LCNVM-EH1": "3519da71ede98d0d",
    "4LCNVM-EH2": "81ead3a938efe98e",
    "4LCNVM-EH3": "b463087e346bd1e1",
    "4LCNVM-EH4": "637ed02e397f85c7",
    "4LCNVM-EH5": "d1ff353518857900",
    "4LCNVM-EH6": "70304dd064c3e4df",
    "4LCNVM-EH7": "70304dd064c3e4df",
    "4LCNVM-EH8": "70304dd064c3e4df",
    "NDM[0x10000000-0x10040000]": "95d4bb8bddc1d412",
    "NDM[0x10080000-0x10100000,0x10000000-0x10040000]": "f3f03d83dc090ed6",
}


class TestChainDigestsArePinned:
    def test_figure_and_benchmark_grid_digests(self):
        harness_path = ROOT / "benchmarks" / "e2e" / "harness.py"
        spec = importlib.util.spec_from_file_location("e2e_harness", harness_path)
        harness = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = harness
        try:
            spec.loader.exec_module(harness)
        finally:
            del sys.modules[spec.name]
        scale = harness.SCALE
        reference = ReferenceSystem.sandy_bridge()
        designs = cli._parse_designs(
            ",".join(harness.SCREEN_GRID + harness.POOL_GRID), scale, reference
        )
        # Figure 9-10's heat-map points: NMM-N6 over scaled technologies.
        designs.append(NMMDesign(
            scaled_technology(DRAM, read_latency_x=5.0, write_latency_x=2.0),
            N_CONFIGS["N6"], scale=scale,
        ))
        hot = AddressRange(0x1000_0000, 0x1004_0000, "a")
        designs += [
            NDMDesign(PCM, [hot], scale=scale),
            NDMDesign(STTRAM, [AddressRange(0x1008_0000, 0x1010_0000, "b"), hot],
                      scale=scale),
        ]
        digests = {}
        for design in designs:
            digest = _chain_digest(design.chain_key())
            assert digests.setdefault(design.sim_key(), digest) == digest
        assert digests == PINNED_DIGESTS


def cli_sweep(journal, *, cache=None, workers=2, telemetry=None):
    """The CLI's ``sweep`` of ``POOL_DESIGNS`` on CG and Hashing."""
    argv = ["--scale", repr(SCALE), "--seed", "4",
            "--workloads", ",".join(POOL_WORKLOADS)]
    if cache is not None:
        argv += ["--trace-cache", str(cache)]
    if telemetry is not None:
        argv += ["--telemetry", str(telemetry)]
    argv += ["sweep", "--designs", POOL_DESIGNS, "--workers", str(workers),
             "--journal", str(journal)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def journal_cells(path):
    """A journal's cells, without run ids and timings."""
    return sorted(
        json.dumps([r["key"], r["status"], r.get("engine_class", "exact"),
                    r.get("evaluation")], sort_keys=True)
        for r in map(json.loads, path.read_text().splitlines())
    )


def records_by_workload(cache):
    """``{workload: chains}`` of every auto lower record in ``cache``."""
    records = {}
    for path in sorted(cache.glob("*.lower-*-auto.json")):
        verify_artifact(path)  # the sidecar matches
        workload = path.name.split("-")[0]
        assert workload not in records, f"two records for {workload}"
        records[workload] = _read_lower_record(path)
    return records


class TestPoolSweeps:
    def test_pool_writes_one_record_per_workload_and_hits_it_warm(
        self, tmp_path
    ):
        cache = tmp_path / "cache"
        cli_sweep(tmp_path / "cold.jsonl", cache=cache)
        records = records_by_workload(cache)
        assert sorted(records) == sorted(POOL_WORKLOADS)
        assert all(len(chains) == 3 for chains in records.values())

        telemetry = tmp_path / "telemetry"
        cli_sweep(tmp_path / "warm.jsonl", cache=cache, telemetry=telemetry)
        assert records_by_workload(cache) == records  # nothing new
        cli_sweep(tmp_path / "serial.jsonl", workers=1)
        cold = journal_cells(tmp_path / "cold.jsonl")
        assert journal_cells(tmp_path / "warm.jsonl") == cold
        assert journal_cells(tmp_path / "serial.jsonl") == cold

        run = aggregate_run(telemetry)
        assert any(source.startswith("worker-") for source in run.sources)
        hits = run.metrics["repro_lower_record_hits_total"]
        for workload in POOL_WORKLOADS:
            prepared = [
                e for e in run.events
                if e["kind"] == "workload_prepared"
                and e["workload"] == workload
            ]
            assert prepared
            assert all(e["lower_records"] == 3 for e in prepared)
            # Each worker that prepared the workload priced its REF
            # DRAM from the record, then each NMM and 4LC cell its
            # chain: every priced chain is a hit.
            counted = sum(
                value for labels, value in hits.items()
                if dict(labels).get("workload") == workload
            )
            assert counted == len(prepared) + 2
        spans = {e["name"] for e in run.events if e["kind"] == "span"}
        assert "runner.design_sim" not in spans
        assert not [
            e for e in run.events
            if e["kind"] == "window" and e["context"].startswith("design-")
        ]


#: Fast supervision for the killed-worker campaigns.
FAST_TUNING = PoolTuning(
    heartbeat_interval_s=0.05, heartbeat_timeout_s=10.0, tick_s=0.02,
    shutdown_grace_s=5.0,
)


@pytest.mark.resilience
class TestKilledWorkers:
    """Only acked cells reach the record: a SIGKILLed worker's ack
    never arrives, and the parent saves what the acks carried."""

    def _campaign(self, cache, journal, faults=None, **options):
        """A pool sweep through :class:`SweepExecutor`, saved the way
        the CLI saves; returns its result and designs."""
        runner = make_runner(cache)
        designs = recordable(runner)[:3]
        result = SweepExecutor(
            runner, journal=Journal(journal), workers=2,
            worker_faults=faults, pool_tuning=FAST_TUNING, **options,
        ).run(designs, [get_workload(name) for name in POOL_WORKLOADS])
        runner.save_lower_records()
        return result, designs

    @pytest.mark.parametrize("latch", [True, False],
                             ids=["requeued", "poisoned"])
    def test_record_holds_acked_chains_and_warm_equals_cold(
        self, tmp_path, latch
    ):
        cache = tmp_path / "cache"
        killed = "NMM-PCM-N6"  # on CG
        if latch:
            # One SIGKILL; the requeued cell completes on the respawn.
            faults = FaultInjector().worker_kill_cell(
                killed, "CG", latch=tmp_path / "kill.latch"
            )
            options = {}
        else:
            # The cell kills every worker it lands on and is quarantined.
            faults = FaultInjector().worker_kill_cell(killed, "CG")
            options = {"poison_threshold": 2, "max_worker_restarts": 4}
        result, designs = self._campaign(
            cache, tmp_path / "faulted.jsonl", faults, **options
        )
        assert result.restarts >= 1
        statuses = {(o.design, o.workload): o.status for o in result.outcomes}
        assert statuses.pop((killed, "CG")) == ("ok" if latch else "poisoned")
        assert set(statuses.values()) == {"ok"}

        digest_of = {
            d.name: _chain_digest(d.chain_key()) for d in designs
        }
        n_lower = {
            digest_of[d.name]: len(d.lower_configs()) for d in designs
        }
        records = records_by_workload(cache)
        assert {
            (workload, digest)
            for workload, chains in records.items() for digest in chains
        } == {
            (o.workload, digest_of[o.design])
            for o in result.outcomes if o.status == "ok"
        }

        checker = make_runner(cache)
        for workload, chains in records.items():
            trace = checker.prepare(get_workload(workload))
            for digest, levels in chains.items():
                HierarchyStats(
                    levels=trace.upper_stats + levels,
                    references=trace.references,
                ).check_conservation(len(trace.upper_stats) + n_lower[digest])

        warm, _ = self._campaign(cache, tmp_path / "warm.jsonl")
        unfaulted, _ = self._campaign(
            tmp_path / "fresh", tmp_path / "unfaulted.jsonl"
        )
        assert all(o.ok for o in warm.outcomes + unfaulted.outcomes)
        assert journal_cells(tmp_path / "warm.jsonl") == journal_cells(
            tmp_path / "unfaulted.jsonl"
        )
