"""Tests for the overlay runtime manager."""

import pytest

from repro.errors import ConfigurationError, KernelError
from repro.kernels.reference import evaluate_dfg, random_input_blocks
from repro.runtime import OverlayRuntime
from repro.specs import OverlaySpec


class TestRegistration:
    def test_register_benchmark_kernel_by_name(self):
        runtime = OverlayRuntime(OverlaySpec("v3", depth=8))
        handle = runtime.register("gradient")
        assert handle.name == "gradient"
        assert handle.ii == pytest.approx(6)
        assert runtime.registered_kernels() == ["gradient"]

    def test_register_custom_dfg(self):
        from repro.frontend import trace_kernel

        runtime = OverlayRuntime(OverlaySpec("v1", depth=4))
        dfg = trace_kernel(lambda a, b: a * b + a, name="fma")
        handle = runtime.register(dfg)
        assert handle.name == "fma"
        assert handle.configuration.size_bytes > 0

    def test_unregistered_kernel_rejected(self):
        runtime = OverlayRuntime(OverlaySpec("v3"))
        with pytest.raises(KernelError):
            runtime.handle("ghost")

    def test_invalid_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            OverlayRuntime(OverlaySpec("v1", depth=0))


class TestContextSwitching:
    def test_fixed_depth_runtime_never_reconfigures(self):
        runtime = OverlayRuntime(OverlaySpec("v3", depth=8))
        for name in ("gradient", "poly7", "qspline"):
            runtime.register(name)
            runtime.load(name)
        assert runtime.stats.context_switches == 3
        assert runtime.stats.partial_reconfigurations == 0
        assert runtime.stats.reconfiguration_time_s == 0.0

    def test_critical_path_runtime_reconfigures_on_depth_change(self):
        runtime = OverlayRuntime(OverlaySpec("v1", depth=4))
        runtime.register("gradient")   # depth 4
        runtime.register("qspline")    # depth 8
        runtime.load("gradient")
        assert runtime.stats.partial_reconfigurations == 0  # depth already 4
        runtime.load("qspline")
        assert runtime.stats.partial_reconfigurations == 1
        assert runtime.overlay.depth == 8
        # Loading the same kernel again costs nothing.
        switches_before = runtime.stats.context_switches
        runtime.load("qspline")
        assert runtime.stats.context_switches == switches_before

    def test_switch_overhead_is_much_smaller_on_fixed_overlay(self):
        v1 = OverlayRuntime(OverlaySpec("v1", depth=4))
        v3 = OverlayRuntime(OverlaySpec("v3", depth=8))
        for runtime in (v1, v3):
            runtime.register("gradient")
            runtime.register("qspline")
            runtime.load("gradient")
            runtime.load("qspline")
            runtime.load("gradient")
        assert v3.stats.overhead_time_s < v1.stats.overhead_time_s / 100


class TestExecution:
    def test_execute_verifies_against_reference(self, gradient):
        runtime = OverlayRuntime(OverlaySpec("v1", depth=4))
        runtime.register("gradient")
        blocks = [[1, 2, 3, 4, 5], [9, 8, 7, 6, 5]]
        result = runtime.execute("gradient", blocks)
        assert result.outputs == [evaluate_dfg(gradient, b) for b in blocks]
        assert runtime.stats.blocks_processed == 2
        assert runtime.stats.execution_time_s > 0

    def test_execute_loads_kernel_implicitly(self):
        runtime = OverlayRuntime(OverlaySpec("v3", depth=8))
        runtime.register("chebyshev")
        runtime.execute_random("chebyshev", num_blocks=4)
        assert runtime.loaded_kernel == "chebyshev"
        assert runtime.stats.context_switches == 1

    def test_run_workload_round_robin(self):
        runtime = OverlayRuntime(OverlaySpec("v3", depth=8))
        stats = runtime.run_workload(
            ["gradient", "qspline", ("gradient", 3)], blocks_per_kernel=4
        )
        assert stats.executions == 3
        assert stats.blocks_processed == 4 + 4 + 3
        assert stats.per_kernel_blocks["gradient"] == 7
        assert stats.context_switches == 3  # gradient -> qspline -> gradient
        assert 0 <= stats.overhead_fraction < 1
        assert "context switches" in stats.summary()

    def test_workload_on_critical_path_overlay_accumulates_pcap_time(self):
        runtime = OverlayRuntime(OverlaySpec("v1", depth=4))
        runtime.run_workload(["gradient", "qspline", "gradient"], blocks_per_kernel=3)
        assert runtime.stats.partial_reconfigurations >= 2
        assert runtime.stats.reconfiguration_time_s > 1e-3
