"""Tests for the [14] baseline and the spatial-overlay comparison point."""

import pytest

from repro.api import default_toolchain
from repro.baseline.li2016 import evaluate_baseline, expected_ii
from repro.baseline.spatial import evaluate_spatial
from repro.kernels import get_kernel
from repro.specs import OverlaySpec


def _evaluate(dfg, variant):
    return default_toolchain().evaluate(dfg, OverlaySpec(variant))


class TestLi2016Baseline:
    def test_overlay_uses_the_baseline_fu(self, gradient):
        overlay = OverlaySpec("baseline").build_overlay(gradient)
        assert overlay.variant.name == "baseline"
        assert overlay.depth == 4

    def test_equation_1_helper(self):
        assert expected_ii(5, 4) == 11

    def test_gradient_ii_matches_the_paper(self, gradient):
        result = evaluate_baseline(gradient)
        assert result.ii == pytest.approx(11)

    def test_baseline_is_slower_than_v1_everywhere(self, benchmarks):
        for name, dfg in benchmarks.items():
            baseline = evaluate_baseline(dfg)
            v1 = _evaluate(dfg, "v1")
            assert baseline.ii >= v1.ii, name
            assert baseline.throughput_gops <= v1.throughput_gops, name

    def test_simulated_baseline_matches_reference(self, gradient):
        result = evaluate_baseline(gradient, simulate=True)
        assert result.reference_match is True


class TestSpatialOverlay:
    def test_spatial_has_unit_ii_and_one_fu_per_op(self, gradient):
        estimate = evaluate_spatial(gradient)
        assert estimate.ii == 1
        assert estimate.num_fus == gradient.num_operations == 11

    def test_spatial_throughput_higher_but_area_larger(self, qspline):
        spatial = evaluate_spatial(qspline)
        tm = _evaluate(qspline, "v1")
        assert spatial.throughput_gops > tm.throughput_gops
        assert spatial.dsp_blocks > tm.dsp_blocks

    def test_gradient_spatial_vs_tm_tradeoff_from_section_iii(self, gradient):
        """Section III: spatial needs 11 FUs at II 1, the TM overlay 4 FUs."""
        spatial = evaluate_spatial(gradient)
        tm = _evaluate(gradient, "v1")
        assert spatial.num_fus == 11
        assert tm.overlay_depth == 4
        assert spatial.dsp_blocks / tm.dsp_blocks == pytest.approx(11 / 4)
