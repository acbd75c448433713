"""Experiment runner tests: caching, shared-prefix correctness, oracle."""

import pytest

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.fourlc import FourLCDesign
from repro.designs.nmm import NMMDesign
from repro.designs.reference import ReferenceDesign
from repro.experiments.runner import CapturingMemory, Runner
from repro.tech.params import EDRAM, PCM, STTRAM
from repro.trace.events import AccessBatch
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192


@pytest.fixture(scope="module")
def shared_runner():
    """One runner reused across this module (tracing is the slow part)."""
    return Runner(scale=SCALE, seed=5)


@pytest.fixture(scope="module")
def cg():
    return get_workload("CG")


class TestCapturingMemory:
    def test_captures_requests(self):
        mem = CapturingMemory()
        mem.process(AccessBatch.from_lists([0, 64], 64, [0, 1]))
        assert len(mem.captured) == 2
        assert mem.stats.loads == 1


class TestPrepare:
    def test_cached_per_workload(self, shared_runner, cg):
        a = shared_runner.prepare(cg)
        b = shared_runner.prepare(cg)
        assert a is b

    def test_local_factor_dilutes_references(self, cg):
        with_locals = Runner(scale=SCALE, seed=5, local_factor=4.0)
        without = Runner(scale=SCALE, seed=5, local_factor=0.0)
        tw = with_locals.prepare(cg)
        to = without.prepare(cg)
        assert tw.references == to.references * 5
        # The injected traffic is all L1 load hits.
        assert tw.upper_stats[0].load_hits - to.upper_stats[0].load_hits == (
            tw.references - to.references
        )

    def test_invalid_local_factor(self):
        with pytest.raises(ValueError):
            Runner(local_factor=-1.0)

    def test_reference_amat_positive(self, shared_runner, cg):
        trace = shared_runner.prepare(cg)
        assert trace.ref_raw.amat_ns > 0

    def test_post_l3_smaller_than_trace(self, shared_runner, cg):
        trace = shared_runner.prepare(cg)
        assert 0 < len(trace.post_l3) < len(trace.result.stream)


class TestEvaluate:
    def test_reference_normalizes_to_unity(self, shared_runner, cg):
        ref = ReferenceDesign(scale=SCALE, reference=shared_runner.reference)
        ev = shared_runner.evaluate(ref, cg)
        assert ev.time_norm == pytest.approx(1.0)
        assert ev.energy_norm == pytest.approx(1.0)

    def test_split_equals_full_hierarchy_run(self, shared_runner, cg):
        """The shared-prefix optimization must be exact: running the
        design's full hierarchy end-to-end gives identical stats."""
        design = NMMDesign(
            PCM, N_CONFIGS["N6"], scale=SCALE, reference=shared_runner.reference
        )
        split = shared_runner.stats_for(design, cg)
        trace = shared_runner.prepare(cg)
        full = design.build("auto").run(trace.result.stream)
        for split_level, full_level in zip(split.levels, full.levels):
            if split_level.name == "L1":
                continue  # locals injection intentionally differs
            assert split_level.as_dict() == full_level.as_dict(), split_level.name

    def test_sim_shared_across_technologies(self, shared_runner, cg):
        a = NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE,
                      reference=shared_runner.reference)
        b = NMMDesign(STTRAM, N_CONFIGS["N6"], scale=SCALE,
                      reference=shared_runner.reference)
        stats_a = shared_runner.stats_for(a, cg)
        stats_b = shared_runner.stats_for(b, cg)
        assert stats_a is stats_b  # one simulation, two bindings

    def test_nvm_write_asymmetry_visible(self, shared_runner, cg):
        """PCM (100 ns writes) must cost more time than STT-RAM (35 ns)
        whenever any writebacks reach NVM."""
        pcm = shared_runner.evaluate(
            NMMDesign(PCM, N_CONFIGS["N9"], scale=SCALE,
                      reference=shared_runner.reference), cg
        )
        stt = shared_runner.evaluate(
            NMMDesign(STTRAM, N_CONFIGS["N9"], scale=SCALE,
                      reference=shared_runner.reference), cg
        )
        stats = shared_runner.stats_for(
            NMMDesign(PCM, N_CONFIGS["N9"], scale=SCALE,
                      reference=shared_runner.reference), cg
        )
        if stats.level("NVM").stores > stats.level("NVM").loads:
            assert pcm.time_norm > stt.time_norm

    def test_fourlc_design_evaluates(self, shared_runner, cg):
        design = FourLCDesign(
            EDRAM, EH_CONFIGS["EH1"], scale=SCALE,
            reference=shared_runner.reference,
        )
        ev = shared_runner.evaluate(design, cg)
        assert 0.5 < ev.time_norm < 2.0
        assert ev.energy_j > 0


class TestNdmOracle:
    def test_oracle_returns_placements(self, shared_runner, cg):
        results = shared_runner.ndm_oracle(cg, PCM)
        assert results
        best = results[0]
        assert best.evaluation.time_s > 0
        assert best.nvm_ranges

    def test_oracle_objective_ranking(self, shared_runner, cg):
        results = shared_runner.ndm_oracle(cg, PCM, objective="time")
        feasible = [r for r in results if r.feasible]
        if len(feasible) >= 2:
            times = [r.evaluation.time_s for r in feasible]
            assert times == sorted(times)
