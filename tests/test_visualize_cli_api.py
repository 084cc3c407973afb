"""Tests for visualisation helpers, the CLI and the top-level API."""

import pytest

import repro
from repro import OverlaySpec, SimSpec, Toolchain
from repro.cli import build_parser, main
from repro.kernels import get_kernel
from repro.overlay.architecture import LinearOverlay
from repro.schedule import schedule_kernel
from repro.visualize import (
    ascii_overlay,
    clusters_to_dot,
    dfg_to_dot,
    level_histogram,
    schedule_listing,
)


class TestVisualize:
    def test_dfg_to_dot(self, gradient):
        dot = dfg_to_dot(gradient)
        assert dot.startswith("digraph") and "->" in dot

    def test_clusters_to_dot_groups_fus(self, poly7):
        schedule = schedule_kernel(poly7, LinearOverlay.fixed("v3", 8))
        dot = clusters_to_dot(poly7, schedule.assignment)
        assert dot.count("subgraph cluster_") == 8
        assert "style=dashed" in dot

    def test_ascii_overlay_sketch(self):
        art = ascii_overlay(3)
        assert art.count("FU") == 3
        assert "input FIFO" in art and "output FIFO" in art

    def test_schedule_listing_shows_loads_and_slots(self, gradient):
        schedule = schedule_kernel(gradient, LinearOverlay.for_kernel("v1", gradient))
        listing = schedule_listing(schedule)
        assert "loads (5)" in listing
        assert "SUB" in listing

    def test_level_histogram(self, gradient):
        text = level_histogram(gradient)
        assert "depth 4" in text
        assert text.count("level") == 4


class TestCLI:
    def test_parser_lists_subcommands(self):
        parser = build_parser()
        assert parser.prog == "repro-overlay"

    def test_kernels_command(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "gradient" in out and "qspline" in out

    def test_variants_command(self, capsys):
        assert main(["variants"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_map_command(self, capsys):
        assert main(["map", "--kernel", "gradient", "--variant", "v1", "--program"]) == 0
        out = capsys.readouterr().out
        assert "analytic II: 6" in out
        assert "FU0" in out

    def test_simulate_command(self, capsys):
        assert main(["simulate", "--kernel", "chebyshev", "--variant", "v1", "--blocks", "6"]) == 0
        out = capsys.readouterr().out
        assert "reference OK" in out

    def test_simulate_with_trace(self, capsys):
        code = main(
            ["simulate", "--kernel", "gradient", "--variant", "v1", "--trace",
             "--trace-cycles", "8", "--blocks", "4"]
        )
        assert code == 0
        assert "cyc" in capsys.readouterr().out

    def test_evaluate_command(self, capsys):
        assert main(["evaluate", "--kernel", "mibench"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "v4" in out

    def test_scalability_command(self, capsys):
        assert main(["scalability", "--variant", "v2", "--max-depth", "8"]) == 0
        assert "Fig. 5" in capsys.readouterr().out

    def test_dot_command(self, capsys):
        assert main(["dot", "--kernel", "qspline", "--clusters", "--depth", "4"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert repro.__version__ in capsys.readouterr().out


class TestTopLevelAPI:
    def test_toolchain_by_name(self):
        tc = Toolchain()
        handle = tc.compile("gradient", OverlaySpec("v1"))
        assert tc.evaluate(handle).ii == pytest.approx(6)
        assert tc.simulate(handle, SimSpec(num_blocks=6)).matches_reference
        assert handle.configuration.size_bytes > 0

    def test_toolchain_with_custom_dfg(self):
        from repro.frontend import trace_kernel

        dfg = trace_kernel(lambda a, b: (a + b) * (a - b), name="custom")
        tc = Toolchain()
        handle = tc.compile(dfg, OverlaySpec("v1"))
        assert tc.simulate(handle, SimSpec(num_blocks=4)).matches_reference

    def test_toolchain_depth_override(self):
        handle = Toolchain().compile("qspline", OverlaySpec("v3", depth=4))
        assert handle.overlay.depth == 4
        assert handle.schedule.scheduler == "greedy"

    def test_toolchain_default_fixed_depth_for_writeback(self):
        handle = Toolchain().compile("poly6", OverlaySpec("v4"))
        assert handle.overlay.depth == 8
        assert handle.overlay.fixed_depth
