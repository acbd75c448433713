"""Workload kernel tests: every benchmark must do verifiably real work
and emit a well-formed, deterministic address stream."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workloads.amg import AMGWorkload
from repro.workloads.bt import BTWorkload
from repro.workloads.cg import CGWorkload
from repro.workloads.graph500 import (
    Graph500Workload,
    edges_to_csr,
    rmat_edges,
)
from repro.workloads.hashing import HashingWorkload
from repro.workloads.lu import LUWorkload
from repro.workloads.registry import SUITE, get_workload, workload_names
from repro.workloads.sp import SPWorkload
from repro.workloads.velvet import VelvetWorkload

#: Scale used in these tests (small and fast).
S = 1.0 / 8192


class TestRegistry:
    def test_eight_workloads(self):
        assert len(SUITE) == 8

    def test_names(self):
        assert set(workload_names()) == {
            "BT", "SP", "LU", "CG", "AMG2013", "Graph500", "Hashing", "Velvet",
        }

    def test_get_workload(self):
        assert get_workload("CG").name == "CG"
        with pytest.raises(KeyError):
            get_workload("HPL")

    def test_kernels_take_their_row_from_the_registry(self):
        kernels = [BTWorkload, SPWorkload, LUWorkload, CGWorkload,
                   AMGWorkload, Graph500Workload, HashingWorkload,
                   VelvetWorkload]
        assert [k.info for k in kernels] == list(SUITE.values())
        assert all(get_workload(k.info.name).info is k.info for k in kernels)

    def test_table4_metadata(self):
        graph = get_workload("Graph500").info
        assert graph.footprint_gb == 4.0
        assert graph.t_ref_s == 157.0
        assert graph.inputs == "-s 22 -e 4"
        bt = get_workload("BT").info
        assert bt.footprint_gb == 1.69
        assert bt.t_ref_s == 36.0

    def test_meta_conversion(self):
        meta = get_workload("CG").info.meta()
        assert meta.footprint_bytes == int(1.5 * 1024**3)
        assert meta.t_ref_s == 54.8

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigError):
            get_workload("CG").scaled_footprint_bytes(0)


class TestAlgorithmCorrectness:
    """Each kernel's own verification must hold — the traces come from
    real algorithm executions, not address synthesis."""

    def test_cg_converges(self):
        res = CGWorkload(iterations=2).trace(scale=S, seed=1)
        assert res.checks["converging"]
        residuals = res.checks["residuals"]
        assert residuals[-1] < residuals[0]

    def test_bt_solves_block_systems(self):
        res = BTWorkload().trace(scale=S, seed=1)
        assert res.checks["solved"]
        assert res.checks["max_residual"] < 1e-8

    def test_sp_solves_penta_systems(self):
        res = SPWorkload().trace(scale=S, seed=1)
        assert res.checks["solved"]

    def test_lu_relaxation_converges(self):
        res = LUWorkload(iterations=1).trace(scale=S, seed=1)
        assert res.checks["residual_after"] < res.checks["residual_before"]

    def test_amg_vcycle_reduces_residual(self):
        res = AMGWorkload(cycles=1).trace(scale=S, seed=1)
        assert res.checks["converging"]
        assert res.checks["levels"] >= 2  # a real multigrid hierarchy

    def test_graph500_tree_valid(self):
        res = Graph500Workload().trace(scale=S, seed=1)
        assert res.checks["tree_valid"]
        assert res.checks["reached"][0] > 0

    def test_hashing_lookups_match_ground_truth(self):
        res = HashingWorkload().trace(scale=S, seed=1)
        assert res.checks["correct"]
        assert res.checks["found"] == res.checks["expected_found"]

    def test_velvet_kmer_table_exact(self):
        res = VelvetWorkload().trace(scale=S, seed=1)
        assert res.checks["kmers_correct"]
        assert res.checks["contigs"] > 0


class TestStreamProperties:
    @pytest.mark.parametrize("name", list(SUITE))
    def test_stream_nonempty_and_in_regions(self, name):
        res = get_workload(name).trace(scale=S, seed=2)
        assert len(res.stream) > 1000
        stats = res.stream.stats()
        lo = min(r.base for r in res.tracer.regions)
        hi = max(r.end for r in res.tracer.regions)
        assert lo <= stats.min_address <= stats.max_address < hi

    @pytest.mark.parametrize("name", list(SUITE))
    def test_deterministic_given_seed(self, name):
        a = get_workload(name).trace(scale=S, seed=3)
        b = get_workload(name).trace(scale=S, seed=3)
        assert len(a.stream) == len(b.stream)
        batch_a = a.stream.head(500).as_batch()
        batch_b = b.stream.head(500).as_batch()
        # Addresses are identical modulo the (identical) region layout.
        assert np.array_equal(batch_a.addresses, batch_b.addresses)
        assert np.array_equal(batch_a.is_store, batch_b.is_store)

    @pytest.mark.parametrize("name", list(SUITE))
    def test_has_loads_and_stores(self, name):
        res = get_workload(name).trace(scale=S, seed=2)
        stats = res.stream.stats()
        assert stats.loads > 0
        assert stats.stores > 0

    def test_footprint_tracks_scale(self):
        small = get_workload("CG").trace(scale=S, seed=1).stream.stats()
        large = get_workload("CG").trace(scale=S * 4, seed=1).stream.stats()
        ratio = large.footprint_bytes / small.footprint_bytes
        assert 2.0 < ratio < 8.0  # roughly linear in scale

    def test_setup_is_untraced(self):
        """The first recorded access must come from the solve phase, not
        matrix construction (construction writes would appear as stores
        to the matrix region at the very start)."""
        res = CGWorkload(iterations=1).trace(scale=S, seed=1)
        head = res.stream.head(10).as_batch()
        assert head.is_store.sum() == 0  # CG starts with rho = r.r loads


class TestGraph500Internals:
    def test_rmat_shape(self):
        edges = rmat_edges(8, 4, np.random.default_rng(0))
        assert edges.shape == (256 * 4, 2)
        assert edges.max() < 256

    def test_rmat_skew(self):
        """R-MAT graphs are scale-free: max degree >> mean degree."""
        edges = rmat_edges(12, 8, np.random.default_rng(0))
        xoff, _ = edges_to_csr(edges, 1 << 12)
        degrees = np.diff(xoff)
        assert degrees.max() > 5 * degrees.mean()

    def test_csr_undirected(self):
        edges = np.array([[0, 1], [2, 3]])
        xoff, xadj = edges_to_csr(edges, 4)
        assert len(xadj) == 4  # both directions
        assert 0 in xadj[xoff[1] : xoff[2]]

    def test_csr_removes_self_loops(self):
        edges = np.array([[1, 1], [0, 1]])
        _, xadj = edges_to_csr(edges, 2)
        assert len(xadj) == 2


class TestBTRhsPhase:
    def test_rhs_phase_adds_traffic_and_still_solves(self):
        from repro.workloads.bt import BTWorkload

        without = BTWorkload(sweeps=(0,)).trace(scale=S, seed=4)
        with_rhs = BTWorkload(sweeps=(0,), rhs_phase=True).trace(scale=S, seed=4)
        assert len(with_rhs.stream) > len(without.stream)
        assert with_rhs.checks["solved"]

    def test_rhs_phase_changes_the_system_solved(self):
        """With the stencil phase, the solves target the computed flux
        divergence, not the synthetic rhs — and still verify."""
        from repro.workloads.bt import BTWorkload

        res = BTWorkload(rhs_phase=True).trace(scale=S, seed=4)
        assert res.checks["max_residual"] < 1e-8


class TestSPRhsPhase:
    def test_rhs_phase_adds_traffic_and_still_solves(self):
        from repro.workloads.sp import SPWorkload

        without = SPWorkload(sweeps=(0,)).trace(scale=S, seed=4)
        with_rhs = SPWorkload(sweeps=(0,), rhs_phase=True).trace(scale=S, seed=4)
        assert len(with_rhs.stream) > len(without.stream)
        assert with_rhs.checks["solved"]


class TestVelvetErrors:
    def test_errors_inflate_distinct_kmers_and_stay_exact(self):
        clean = VelvetWorkload().trace(scale=S, seed=5)
        noisy = VelvetWorkload(error_rate=0.02).trace(scale=S, seed=5)
        assert noisy.checks["kmers_correct"]  # still exact vs ground truth
        assert noisy.checks["distinct_kmers"] > clean.checks["distinct_kmers"]

    def test_error_rate_validation(self):
        with pytest.raises(ConfigError):
            VelvetWorkload(error_rate=1.0)
