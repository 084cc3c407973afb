"""End-to-end compile cache: source → AST → DFG → schedule → binary.

Exercises the backend half of the compile-path overhaul: the source fast
path of :meth:`repro.engine.cache.ScheduleCache.get_or_compile_source`, its
interaction with the frontend cache, invalidation on source edits, and the
wiring through :class:`repro.runtime.manager.OverlayRuntime` and
:meth:`repro.api.Toolchain.evaluate`.
"""

import pytest

from repro.engine.cache import ScheduleCache, default_cache
from repro.frontend.cache import FrontendCache, default_frontend_cache
from repro.kernels.library import CHEBYSHEV_C_SOURCE, GRADIENT_C_SOURCE, get_kernel_source
from repro.errors import KernelError
from repro.api import default_toolchain
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import get_variant
from repro.runtime.manager import OverlayRuntime
from repro.specs import OverlaySpec

SOURCE = "int triple(int a) { return a + a + a; }"
#: Same structure, one constant-free edit that keeps depth and I/O intact.
EDITED = "int triple(int a) { return a + a - a; }"


def _v1(depth=2):
    return LinearOverlay(variant=get_variant("v1"), depth=depth)


class TestSourceFastPath:
    def test_cold_then_warm(self):
        cache = ScheduleCache()
        first = cache.get_or_compile_source(SOURCE, _v1())
        assert cache.stats.misses == 1 and cache.stats.source_hits == 0
        second = cache.get_or_compile_source(SOURCE, _v1())
        assert second is first
        assert cache.stats.source_hits == 1
        # Warm hit bypasses the DFG-keyed layer entirely.
        assert cache.stats.hits == 0

    def test_distinct_overlays_are_distinct_entries(self):
        cache = ScheduleCache()
        a = cache.get_or_compile_source(SOURCE, _v1(2))
        b = cache.get_or_compile_source(SOURCE, _v1(3))
        assert a is not b
        assert cache.stats.misses == 2

    def test_invalidation_on_source_change(self):
        cache = ScheduleCache()
        before = cache.get_or_compile_source(SOURCE, _v1())
        after = cache.get_or_compile_source(EDITED, _v1())
        assert after is not before
        assert cache.stats.misses == 2
        # And the recompiled artefacts reflect the edit.
        assert before.schedule.dfg.num_operations != 0
        assert cache.get_or_compile_source(EDITED, _v1()) is after

    def test_name_override_is_part_of_the_key(self):
        cache = ScheduleCache()
        cache.get_or_compile_source(SOURCE, _v1(), name="one")
        cache.get_or_compile_source(SOURCE, _v1(), name="two")
        assert cache.stats.misses == 2

    def test_source_path_reuses_dfg_layer_after_clear_of_index(self):
        """A DFG-identical source still hits the DFG-keyed layer."""
        cache = ScheduleCache()
        cache.get_or_compile_source(SOURCE, _v1())
        # Different text, same lowered DFG (comment only) -> source index
        # misses but the DFG content hash matches the existing entry.
        commented = "// cosmetic\n" + SOURCE
        cache.get_or_compile_source(commented, _v1())
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_clear_also_drops_the_source_index(self):
        cache = ScheduleCache()
        cache.get_or_compile_source(SOURCE, _v1())
        cache.clear()
        cache.get_or_compile_source(SOURCE, _v1())
        assert cache.stats.source_hits == 0
        assert cache.stats.misses == 1

    def test_disk_layer_shared_between_instances(self, tmp_path):
        writer = ScheduleCache(disk_dir=str(tmp_path))
        writer.get_or_compile_source(SOURCE, _v1())
        reader = ScheduleCache(disk_dir=str(tmp_path))
        reader.get_or_compile_source(SOURCE, _v1())
        assert reader.stats.disk_hits == 1
        assert reader.stats.misses == 0


class TestRuntimeWiring:
    def test_register_source_compiles_and_executes(self):
        runtime = OverlayRuntime(OverlaySpec("v1", depth=8), cache=ScheduleCache())
        handle = runtime.register_source(GRADIENT_C_SOURCE)
        assert handle.name == "gradient"
        result = runtime.execute_random("gradient", num_blocks=4)
        assert result.matches_reference

    def test_register_source_shares_compilations_across_runtimes(self):
        cache = ScheduleCache()
        first = OverlayRuntime(OverlaySpec("v1", depth=8), cache=cache)
        second = OverlayRuntime(OverlaySpec("v1", depth=8), cache=cache)
        a = first.register_source(CHEBYSHEV_C_SOURCE)
        b = second.register_source(CHEBYSHEV_C_SOURCE)
        assert a.schedule is b.schedule
        assert cache.stats.misses == 1

    def test_register_source_matches_register_of_library_kernel(self):
        cache = ScheduleCache()
        runtime = OverlayRuntime(OverlaySpec("v1", depth=8), cache=cache)
        from_source = runtime.register_source(GRADIENT_C_SOURCE)
        from_library = runtime.register("gradient")
        # The library's gradient is parsed from the same source, so the
        # compiled schedule is literally the same cached object.
        assert from_source.schedule is from_library.schedule
        assert cache.stats.misses == 1


class TestMetricsWiring:
    def test_default_session_evaluate_uses_the_default_cache(self, gradient):
        cache = default_cache()
        cache.clear()
        default_toolchain().evaluate(gradient, OverlaySpec("v1"))
        misses_after_first = cache.stats.misses
        default_toolchain().evaluate(gradient, OverlaySpec("v1"))
        assert cache.stats.misses == misses_after_first
        assert cache.stats.hits >= 1

    def test_evaluate_survives_regalloc_overflow(self):
        """Analytic evaluation must not fail on kernels that schedule but
        exceed the register file (the full compile is cache-only bonus)."""
        from repro.dfg.builder import DFGBuilder
        from repro.dfg.opcodes import OpCode

        builder = DFGBuilder("wide")
        inputs = [builder.input(f"i{k}") for k in range(20)]
        products = [builder.mul(inputs[k], inputs[(k + 1) % 20]) for k in range(20)]
        builder.output(builder.reduce(OpCode.ADD, products), "o")
        wide = builder.build()
        # 20 loads > V1's 16-entry window
        result = default_toolchain().evaluate(wide, OverlaySpec("v1"))
        assert result.ii > 0

    def test_compile_evaluate_warm_path_is_fully_cached(self):
        tc = default_toolchain()
        default_cache().clear()
        tc.evaluate(tc.compile("gradient", OverlaySpec("v1")))
        misses = default_cache().stats.misses
        for _ in range(3):
            tc.evaluate(tc.compile("gradient", OverlaySpec("v1")))
        assert default_cache().stats.misses == misses


class TestKernelSources:
    def test_get_kernel_source_roundtrip(self):
        assert "gradient" in get_kernel_source("gradient")
        assert "chebyshev" in get_kernel_source("chebyshev")

    def test_get_kernel_source_rejects_non_c_kernels(self):
        with pytest.raises(KernelError, match="not defined from C source"):
            get_kernel_source("qspline")
        with pytest.raises(KernelError, match="unknown kernel"):
            get_kernel_source("nope")
