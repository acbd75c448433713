"""NPB class-scaling tests."""

import pytest

from repro.errors import ConfigError
from repro.workloads.cg import CGWorkload
from repro.workloads.hashing import HashingWorkload
from repro.workloads.lu import LUWorkload
from repro.workloads.npb_classes import CLASS_FACTORS, at_npb_class, class_factor
from repro.workloads.registry import get_workload


class TestClassFactor:
    def test_growth_direction(self):
        assert class_factor("C", "D") == pytest.approx(16.0)
        assert class_factor("D", "C") == pytest.approx(1 / 16)

    def test_identity(self):
        assert class_factor("B", "B") == 1.0

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            class_factor("D", "Z")

    def test_ordering(self):
        letters = ["S", "W", "A", "B", "C", "D", "E"]
        factors = [CLASS_FACTORS[letter] for letter in letters]
        assert factors == sorted(factors)


class TestAtNpbClass:
    def test_downsizes_class_d_cg(self):
        cg_c = at_npb_class(CGWorkload(), "C")
        assert cg_c.info.footprint_gb == pytest.approx(1.5 / 16)
        assert cg_c.info.t_ref_s == pytest.approx(54.8 / 16)
        assert cg_c.info.inputs == "Class: C"

    def test_upsizes_class_c_lu(self):
        lu_d = at_npb_class(LUWorkload(), "D")
        assert lu_d.info.footprint_gb == pytest.approx(0.8 * 16)

    def test_original_untouched(self):
        cg = CGWorkload()
        at_npb_class(cg, "A")
        assert cg.info.footprint_gb == 1.5

    def test_traced_footprint_follows_class(self):
        scale = 1.0 / 512
        small = at_npb_class(CGWorkload(), "C").trace(scale=scale, seed=1)
        big = CGWorkload().trace(scale=scale / 16, seed=1)
        # Class C at scale s ≈ class D at scale s/16.
        ratio = (
            small.stream.stats().footprint_bytes
            / big.stream.stats().footprint_bytes
        )
        assert 0.5 < ratio < 2.0

    def test_suite_workload_traces_at_its_class(self):
        """A registry workload builds its kernel when traced; a re-sized
        copy traces at its own class, as the kernel itself does."""
        scale = 1.0 / 8192
        suite = at_npb_class(get_workload("CG"), "C").trace(scale=scale, seed=1)
        kernel = at_npb_class(CGWorkload(), "C").trace(scale=scale, seed=1)
        assert suite.stream.stats() == kernel.stream.stats()
        assert suite.stream.stats() != CGWorkload().trace(
            scale=scale, seed=1
        ).stream.stats()

    def test_non_npb_inputs_rejected(self):
        with pytest.raises(ConfigError):
            at_npb_class(HashingWorkload(), "C")
