"""Report generator tests."""

import pytest

from repro.experiments.figures import FigureSeries
from repro.experiments.heatmap import HeatMap
from repro.experiments.report import (
    ClaimCheck,
    ReproductionReport,
    check_claims,
    generate_report,
    render_markdown,
)
from repro.experiments.runner import Runner
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192


def fig(figure, metric, series, categories):
    return FigureSeries(
        figure=figure, title="t", metric=metric,
        categories=categories, series=series,
    )


class TestCheckClaims:
    def test_fig1_claim_positive(self):
        report = ReproductionReport(
            figures={
                "Figure 1": fig(
                    "Figure 1", "time_norm",
                    {"PCM": {"N1": 1.3, "N3": 1.1}}, ["N1", "N3"],
                )
            }
        )
        claims = check_claims(report)
        assert claims[0].holds

    def test_fig1_claim_negative(self):
        report = ReproductionReport(
            figures={
                "Figure 1": fig(
                    "Figure 1", "time_norm",
                    {"PCM": {"N1": 1.0, "N3": 1.2}}, ["N1", "N3"],
                )
            }
        )
        assert not check_claims(report)[0].holds

    def test_fig7_overhead_claim(self):
        report = ReproductionReport(
            figures={
                "Figure 7": fig(
                    "Figure 7", "time_norm",
                    {"PCM": {"CG": 1.2, "BT": 1.5}}, ["CG", "BT"],
                )
            }
        )
        claim = check_claims(report)[0]
        assert claim.holds
        assert "1.200" in claim.detail

    def test_heatmap_claims(self):
        hm9 = HeatMap(
            figure="Figure 9", title="t", metric="time_norm",
            read_factors=[1, 5], write_factors=[1, 5],
            values=[[1.0, 1.05], [1.1, 1.15]],
        )
        hm10 = HeatMap(
            figure="Figure 10", title="t", metric="energy_norm",
            read_factors=[1, 5], write_factors=[1, 5],
            values=[[0.8, 0.9], [0.9, 1.2]],
        )
        report = ReproductionReport(heatmaps={"Figure 9": hm9, "Figure 10": hm10})
        claims = {c.claim: c for c in check_claims(report)}
        assert any("5x read" in c for c in claims)
        assert all(c.holds for c in claims.values())

    def test_empty_report_no_claims(self):
        assert check_claims(ReproductionReport()) == []


class TestRenderMarkdown:
    def test_contains_all_sections(self):
        report = ReproductionReport(
            figures={
                "Figure 1": fig(
                    "Figure 1", "time_norm", {"PCM": {"N1": 1.2}}, ["N1"]
                )
            },
            claims=[ClaimCheck(claim="demo", holds=True, detail="d")],
        )
        text = render_markdown(report, 1 / 256)
        assert "# Reproduction report" in text
        assert "### Table 1" in text
        assert "Figure 1" in text
        assert "Claim scorecard" in text
        assert "✓" in text

    def test_tables_always_present(self):
        text = render_markdown(ReproductionReport(), 1.0)
        for number in (1, 2, 3, 4):
            assert f"### Table {number}" in text


class TestGenerateReport:
    @pytest.mark.slow
    def test_end_to_end_small(self):
        runner = Runner(scale=SCALE, seed=5)
        workloads = [get_workload("CG"), get_workload("Hashing")]
        report = generate_report(runner, workloads, heatmap_factors=(1, 5))
        assert len(report.figures) == 8
        assert len(report.heatmaps) == 2
        assert report.claims
        text = render_markdown(report, SCALE)
        assert text.count("###") >= 14

    def test_paper_claims_hold_on_the_full_suite(self):
        """Every claim of the scorecard holds on the full suite at
        1/8192, seed 0 (the scale of the committed reference output)."""
        report = generate_report(Runner(scale=SCALE, seed=0))
        verdicts = {claim.claim: claim.holds for claim in report.claims}
        details = {claim.claim: claim.detail for claim in report.claims}
        assert verdicts == {
            "NMM: larger DRAM cache reduces runtime (N1 -> N3)": True,
            "NMM: sub-4KB pages minimize energy with net savings": True,
            "4LC: energy grows with page size (EH1 best region)": True,
            "4LCNVM: 64B pages reach deep energy savings": True,
            "NDM: every workload pays a runtime overhead": True,
            "Heat map: 5x read latency costs single-digit % runtime": True,
            "Heat map: energy-saving cells despite costlier ops": True,
        }, details
