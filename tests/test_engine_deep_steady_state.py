"""Deep kernels on fixed-depth overlays: the occupancy detector's home turf.

The backpressure-heavy region — deep kernels folded onto fixed-depth V3-V5
overlays at small FIFO depths — is where the legacy steady-state detector
needs O(fifo_depth x depth) warm-up blocks before its fingerprint recurs.
This suite pins down the occupancy detector's guarantees there:

* bit-identical results against the cycle-accurate golden reference across
  the *whole* kernel library on V3/V4/V5 at fifo_depth in {2, 4, 8, 32},
  including FIFO high-water marks and the measured II;
* the occupancy detector locks onto the periodic regime much earlier than
  the legacy detector (and within the analytic warm-up bound
  ``W(depth, fifo_depth, II)``, the cross-check oracle);
* the ``detector`` knob is plumbed through ``simulate_schedule``, sweep
  points and the CLI;
* the satellite fixes: the schedule-only compile-cache path is memoised,
  and runs too short to measure an II report ``None`` instead of crashing
  the sweep.
"""

import json

import pytest

from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import (
    FastSimulator,
    steady_state_warmup_bound,
    warmup_bound_blocks,
)
from repro.engine.sweep import (
    SweepPoint,
    build_grid,
    render_sweep_table,
    run_point,
    run_sweep,
)
from repro.errors import CodegenError, ConfigurationError
from repro.kernels import BENCHMARK_NAMES, get_kernel
from repro.kernels.generators import dfg_from_level_profile
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import V3, V4, V5
from repro.schedule import schedule_kernel
from repro.sim.overlay import OverlaySimulator, simulate_schedule
from repro.specs import OverlaySpec, SimSpec

#: Everything the engines must agree on exactly (same list as the main
#: equivalence suite; repeated here so this file stands alone).
COMPARED_FIELDS = (
    "kernel_name",
    "overlay_name",
    "num_blocks",
    "outputs",
    "completion_cycles",
    "total_cycles",
    "measured_ii",
    "latency_cycles",
    "fu_stats",
    "fifo_high_water",
    "rf_high_water",
    "rf_per_block_high_water",
)

#: The deepest library kernels — the ones that keep filling inter-stage
#: FIFOs for many blocks when folded onto a depth-8 overlay.
DEEP_KERNELS = ("poly7", "poly8", "poly6", "qspline")

WRITE_BACK_VARIANTS = [V3, V4, V5]
FIFO_DEPTHS = (2, 4, 8, 32)


def _fixed_schedule(name, variant, fifo_depth, depth=8):
    dfg = get_kernel(name)
    overlay = LinearOverlay.fixed(variant, depth, fifo_depth=fifo_depth)
    return schedule_kernel(dfg, overlay)


def assert_engines_identical(schedule, num_blocks, seed=3, detector="occupancy"):
    blocks = random_input_blocks(schedule.dfg, num_blocks, seed=seed)
    cycle = OverlaySimulator(schedule).run(blocks)
    fast = FastSimulator(schedule, detector=detector).run(blocks)
    for field in COMPARED_FIELDS:
        assert getattr(fast, field) == getattr(cycle, field), (
            f"{schedule.kernel_name} on {schedule.overlay.name} "
            f"(fifo {schedule.overlay.fifo_depth}): field {field!r} diverges"
        )
    return fast


class TestFixedDepthLibraryEquivalence:
    """Whole library x V3/V4/V5 x fifo_depth in {2,4,8,32}: exact equality."""

    @pytest.mark.parametrize("fifo_depth", FIFO_DEPTHS)
    @pytest.mark.parametrize("variant", WRITE_BACK_VARIANTS, ids=["v3", "v4", "v5"])
    @pytest.mark.parametrize("name", list(BENCHMARK_NAMES))
    def test_library_matches_cycle_engine(self, name, variant, fifo_depth):
        schedule = _fixed_schedule(name, variant, fifo_depth)
        assert_engines_identical(schedule, num_blocks=20)

    @pytest.mark.parametrize("fifo_depth", (2, 8))
    @pytest.mark.parametrize("name", DEEP_KERNELS[:2])
    def test_deep_kernels_long_stream_with_backpressure(self, name, fifo_depth):
        """64-block streams cross the detection window several times over."""
        schedule = _fixed_schedule(name, V3, fifo_depth)
        fast = assert_engines_identical(schedule, num_blocks=64, seed=11)
        # The small-FIFO region really is backpressure-heavy.
        assert any(s.backpressure_stall_cycles for s in fast.fu_stats)

    def test_fifo_high_water_tracks_the_fill_exactly(self):
        """High-water marks are the part a sloppy ramp skip would corrupt."""
        schedule = _fixed_schedule("poly7", V3, 32)
        blocks = random_input_blocks(schedule.dfg, 300, seed=5)
        cycle = OverlaySimulator(schedule).run(blocks)
        fast = FastSimulator(schedule).run(blocks)
        assert fast.fifo_high_water == cycle.fifo_high_water
        assert fast.measured_ii == cycle.measured_ii


class TestDetectorAgreement:
    """occupancy == legacy == no-fast-forward, field by field."""

    @pytest.mark.parametrize("variant", WRITE_BACK_VARIANTS, ids=["v3", "v4", "v5"])
    def test_all_detectors_agree_on_deep_kernel(self, variant):
        schedule = _fixed_schedule("poly7", variant, 8)
        blocks = random_input_blocks(schedule.dfg, 80, seed=7)
        results = {
            mode: FastSimulator(schedule, detector=mode).run(blocks)
            for mode in ("occupancy", "legacy")
        }
        results["off"] = FastSimulator(schedule, fast_forward=False).run(blocks)
        for field in COMPARED_FIELDS:
            values = {mode: getattr(r, field) for mode, r in results.items()}
            assert values["occupancy"] == values["legacy"] == values["off"], field

    def test_unknown_detector_rejected(self):
        schedule = _fixed_schedule("qspline", V3, 8)
        with pytest.raises(ConfigurationError):
            FastSimulator(schedule, detector="psychic")
        with pytest.raises(ConfigurationError):
            run_sweep([SweepPoint("qspline", OverlaySpec("v3"), SimSpec(detector="psychic"))])


class TestEarlySteadyStateSkip:
    """The tentpole claim: the occupancy detector locks before the FIFOs fill."""

    def test_occupancy_locks_long_before_legacy_on_deep_fill(self):
        schedule = _fixed_schedule("poly7", V3, 32)
        blocks = random_input_blocks(schedule.dfg, 400, seed=3)
        occupancy = FastSimulator(schedule)
        occupancy.run(blocks)
        legacy = FastSimulator(schedule, detector="legacy")
        legacy.run(blocks)
        assert occupancy.fast_forward_events, "occupancy detector never engaged"
        assert legacy.fast_forward_events, "legacy detector never engaged"
        first_occupancy = occupancy.fast_forward_events[0]["completed"]
        first_legacy = legacy.fast_forward_events[0]["completed"]
        # The legacy fingerprint cannot recur until the ~fifo_depth x depth
        # block fill transient ends; the occupancy detector skips within a
        # couple of dozen completions.
        assert first_occupancy * 4 <= first_legacy
        assert any(e["kind"] == "ramp" for e in occupancy.fast_forward_events)

    def test_occupancy_skips_where_legacy_cannot(self):
        """poly7 on V4/fifo32 never reaches full steady state in 600 blocks."""
        schedule = _fixed_schedule("poly7", V4, 32)
        blocks = random_input_blocks(schedule.dfg, 600, seed=3)
        occupancy = FastSimulator(schedule)
        result = occupancy.run(blocks)
        legacy = FastSimulator(schedule, detector="legacy")
        legacy_result = legacy.run(blocks)
        assert occupancy.fast_forward_events
        assert not legacy.fast_forward_events
        for field in COMPARED_FIELDS:
            assert getattr(result, field) == getattr(legacy_result, field), field

    @pytest.mark.parametrize("fifo_depth", (8, 32))
    @pytest.mark.parametrize("variant", WRITE_BACK_VARIANTS, ids=["v3", "v4", "v5"])
    @pytest.mark.parametrize("name", DEEP_KERNELS)
    def test_warmup_bound_is_a_true_oracle(self, name, variant, fifo_depth):
        """The first skip must land inside W(depth, fifo_depth, II)."""
        schedule = _fixed_schedule(name, variant, fifo_depth)
        bound_cycles = steady_state_warmup_bound(schedule)
        bound_blocks = warmup_bound_blocks(schedule)
        num_blocks = bound_blocks + 40
        blocks = random_input_blocks(schedule.dfg, num_blocks, seed=13)
        simulator = FastSimulator(schedule)
        simulator.run(blocks)
        assert simulator.fast_forward_events, (
            f"no skip within {num_blocks} blocks on {schedule.overlay.name}"
        )
        first = simulator.fast_forward_events[0]
        assert first["completed"] <= bound_blocks
        assert first["cycle"] <= bound_cycles

    def test_compiled_kernel_carries_warmup_bound(self):
        cache = ScheduleCache()
        dfg = get_kernel("poly7")
        overlay = LinearOverlay.fixed(V3, 8)
        compiled = cache.get_or_compile(dfg, overlay)
        assert compiled.warmup_bound_cycles == steady_state_warmup_bound(
            compiled.schedule
        )
        assert compiled.warmup_bound_cycles > 0


class TestDetectorPlumbing:
    def test_simulate_schedule_accepts_detector(self):
        schedule = _fixed_schedule("poly6", V3, 8)
        fast = simulate_schedule(schedule, num_blocks=32, engine="fast",
                                 detector="occupancy")
        legacy = simulate_schedule(schedule, num_blocks=32, engine="fast",
                                   detector="legacy")
        assert fast.matches_reference and legacy.matches_reference
        assert fast.completion_cycles == legacy.completion_cycles

    def test_sweep_point_detector_flows_into_result(self):
        point = SweepPoint(
            "qspline",
            OverlaySpec("v3", depth=8),
            SimSpec(engine="fast", num_blocks=24, detector="legacy"),
        )
        result = run_point(point)
        assert result.detector == "legacy"
        assert result.matches_reference

    def test_build_grid_propagates_detector(self):
        grid = build_grid(
            ["qspline"], overlays=[OverlaySpec("v3")], sim=SimSpec(detector="legacy")
        )
        assert all(point.sim.detector == "legacy" for point in grid)

    def test_cli_sweep_detector_smoke(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--kernels", "qspline,poly7", "--variants", "v3",
            "--depths", "8", "--blocks", "24", "--detector", "legacy",
            "--jobs", "1", "--json",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(row["detector"] == "legacy" for row in rows)
        assert all(row["matches_reference"] for row in rows)


# ---------------------------------------------------------------------------
# satellite fixes
# ---------------------------------------------------------------------------
def _fat_kernel():
    """A synthetic kernel whose schedule is fine but whose register pressure
    exceeds every variant's rotating register file (codegen fails)."""
    return dfg_from_level_profile(
        [24, 20, 16, 12, 8, 4, 2, 1], num_inputs=8, name="fat"
    )


class TestScheduleOnlyMemoisation:
    def test_codegen_failure_path_is_memoised(self):
        cache = ScheduleCache()
        overlay = LinearOverlay.fixed(V3, 8)
        with pytest.raises(CodegenError):
            cache.get_or_compile(_fat_kernel(), overlay)
        first = cache.get_schedule(_fat_kernel(), overlay)
        second = cache.get_schedule(_fat_kernel(), overlay)
        # Same object: the second call hit the schedule-only index instead of
        # rescheduling a fresh DFG copy.
        assert first is second
        assert cache.stats.schedule_hits == 1

    def test_evaluate_keeps_working_for_codegen_failures(self):
        from repro.api import Toolchain

        result = Toolchain(cache=ScheduleCache()).evaluate(_fat_kernel(), OverlaySpec("v3"))
        assert result.ii > 0
        assert result.throughput_gops > 0

    def test_full_compile_still_preferred_when_it_succeeds(self):
        cache = ScheduleCache()
        overlay = LinearOverlay.fixed(V3, 8)
        compiled = cache.get_or_compile(get_kernel("qspline"), overlay)
        schedule = cache.get_schedule(get_kernel("qspline"), overlay)
        assert schedule is compiled.schedule


class TestUnmeasurableII:
    def test_single_block_has_no_measured_ii(self):
        schedule = _fixed_schedule("qspline", V3, 8)
        for engine in ("cycle", "fast"):
            result = simulate_schedule(schedule, num_blocks=1, engine=engine)
            assert result.measured_ii is None
            assert result.matches_reference

    def test_run_point_reports_none_and_falls_back_to_analytic(self):
        point = SweepPoint("qspline", OverlaySpec("v3", depth=8), SimSpec(engine="fast", num_blocks=1))
        result = run_point(point)
        assert result.measured_ii is None
        assert result.latency_cycles > 0
        # Throughput falls back to the analytic II instead of crashing.
        expected = result.analytic_ii
        assert result.throughput_gops == pytest.approx(
            get_kernel("qspline").num_operations * result.fmax_mhz * 1e6
            / expected / 1e9
        )
        table = render_sweep_table([result])
        assert " - " in table or " -\n" in table or "- " in table

    def test_two_blocks_measure_again(self):
        point = SweepPoint("qspline", OverlaySpec("v3", depth=8), SimSpec(engine="fast", num_blocks=2))
        assert run_point(point).measured_ii is not None
