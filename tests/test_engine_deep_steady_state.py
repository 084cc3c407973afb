"""Deep kernels on fixed-depth overlays: the steady-state detector's home turf.

The backpressure-heavy region — deep kernels folded onto fixed-depth V3-V5
overlays at small FIFO depths — is where a whole-machine fingerprint would
need O(fifo_depth x depth) warm-up blocks before it recurs.  This suite pins
down the occupancy detector's guarantees there:

* bit-identical results against the cycle-accurate golden reference across
  the *whole* kernel library on V3/V4/V5 at fifo_depth in {2, 4, 8, 32},
  including FIFO high-water marks and the measured II;
* the detector locks onto the periodic regime within the analytic warm-up
  bound ``W(depth, fifo_depth, II)`` (the cross-check oracle), skipping
  during the FIFO fill, and its skips change nothing a full run measures;
* the removed ``detector`` knob is rejected everywhere it used to travel:
  spec dicts, ``simulate_schedule``, sweep rows, the CLI and the wire;
* the satellite fixes: a codegen overflow is one schedule-only cache entry
  and an infeasible schedule one infeasible entry (scheduled once, raised
  fresh, coalesced, persisted), and runs too short to measure an II report
  ``None`` instead of crashing the sweep.
"""

import json

import pytest

from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import (
    FastSimulator,
    steady_state_warmup_bound,
    warmup_bound_blocks,
)
from repro.engine.sweep import SweepPoint, render_sweep_table, run_point
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


def assert_engines_identical(schedule, num_blocks, seed=3):
    blocks = random_input_blocks(schedule.dfg, num_blocks, seed=seed)
    cycle = OverlaySimulator(schedule).run(blocks)
    fast = FastSimulator(schedule).run(blocks)
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


class TestFastForwardAgreement:
    """The skipping run equals the run that simulates every cycle."""

    @pytest.mark.parametrize("variant", WRITE_BACK_VARIANTS, ids=["v3", "v4", "v5"])
    def test_skip_agrees_with_full_run_on_deep_kernel(self, variant):
        schedule = _fixed_schedule("poly7", variant, 8)
        blocks = random_input_blocks(schedule.dfg, 80, seed=7)
        skipping = FastSimulator(schedule)
        result = skipping.run(blocks)
        full = FastSimulator(schedule, fast_forward=False).run(blocks)
        assert skipping.fast_forward_events
        for field in COMPARED_FIELDS:
            assert getattr(result, field) == getattr(full, field), field


class TestEarlySteadyStateSkip:
    """The detector locks before the FIFOs fill, within the warm-up bound."""

    def test_locks_within_warmup_bound_on_deep_fill(self):
        schedule = _fixed_schedule("poly7", V3, 32)
        blocks = random_input_blocks(schedule.dfg, 400, seed=3)
        simulator = FastSimulator(schedule)
        simulator.run(blocks)
        assert simulator.fast_forward_events, "the detector never engaged"
        first = simulator.fast_forward_events[0]
        assert first["completed"] <= warmup_bound_blocks(schedule)
        assert first["cycle"] <= steady_state_warmup_bound(schedule)
        # It skips while the inter-stage FIFOs are still filling.
        assert any(e["kind"] == "ramp" for e in simulator.fast_forward_events)

    def test_skips_during_a_fill_that_outlasts_the_stream(self):
        """poly7 on V4/fifo32 never reaches full steady state in 600 blocks."""
        schedule = _fixed_schedule("poly7", V4, 32)
        blocks = random_input_blocks(schedule.dfg, 600, seed=3)
        skipping = FastSimulator(schedule)
        result = skipping.run(blocks)
        full = FastSimulator(schedule, fast_forward=False).run(blocks)
        assert skipping.fast_forward_events
        for field in COMPARED_FIELDS:
            assert getattr(result, field) == getattr(full, field), field

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


class TestDetectorKnobRemoved:
    """``detector`` is not a knob: every layer rejects it as an unknown
    field or keyword."""

    def test_sim_spec_rejects_detector_field(self):
        with pytest.raises(ConfigurationError, match="detector"):
            SimSpec.from_dict({"engine": "fast", "detector": "occupancy"})
        with pytest.raises(TypeError):
            SimSpec(engine="fast", detector="occupancy")

    def test_engine_entry_points_take_no_detector(self):
        schedule = _fixed_schedule("poly6", V3, 8)
        with pytest.raises(TypeError):
            FastSimulator(schedule, detector="occupancy")
        with pytest.raises(TypeError):
            simulate_schedule(schedule, num_blocks=8, engine="fast", detector="occupancy")

    def test_sweep_rows_have_no_detector_column(self):
        point = SweepPoint(
            "qspline", OverlaySpec("v3", depth=8), SimSpec(engine="fast", num_blocks=24)
        )
        result = run_point(point)
        assert result.matches_reference
        assert "detector" not in result.as_row()
        assert "detector" not in render_sweep_table([result])

    def test_cli_rejects_detector_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--kernels", "qspline", "--detector", "occupancy"])
        assert exit_info.value.code == 2
        assert "--detector" in capsys.readouterr().err
        code = main([
            "sweep", "--kernels", "qspline,poly7", "--variants", "v3",
            "--depths", "8", "--blocks", "24", "--jobs", "1", "--json",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all("detector" not in row for row in rows)
        assert all(row["matches_reference"] for row in rows)

    def test_wire_detector_is_E_PARAMS(self):
        from repro.service.client import InProcessClient
        from repro.service.protocol import E_PARAMS, ServiceError
        from repro.service.server import OverlayService

        client = InProcessClient(OverlayService(capacity=8))
        with pytest.raises(ServiceError) as err:
            client.request(
                "simulate",
                {
                    "kernel": "qspline",
                    "overlay": {"variant": "v3"},
                    "sim": {"engine": "fast", "detector": "legacy"},
                },
            )
        assert err.value.code == E_PARAMS


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
        first = cache.get_or_compile(_fat_kernel(), overlay)
        second = cache.get_or_compile(_fat_kernel(), overlay)
        # One schedule-only entry: the second call is a plain hit on it.
        assert first is second
        assert isinstance(first.error, CodegenError)
        assert first.program is None and first.configuration is None
        assert first.warmup_bound_cycles == steady_state_warmup_bound(first.schedule) > 0
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_evaluate_keeps_working_for_codegen_failures(self):
        from repro.api import Toolchain

        result = Toolchain(cache=ScheduleCache()).evaluate(_fat_kernel(), OverlaySpec("v3"))
        assert result.ii > 0
        assert result.throughput_gops > 0

    def test_full_compile_still_preferred_when_it_succeeds(self):
        cache = ScheduleCache()
        compiled = cache.get_or_compile(get_kernel("qspline"), LinearOverlay.fixed(V3, 8))
        assert compiled.error is None
        assert compiled.program is not None and compiled.configuration is not None


class _PipelineCounter:
    """Counts scheduler and codegen runs behind the compile cache."""

    def __init__(self, monkeypatch, delay_s=0.0):
        import time

        import repro.engine.cache as cache_module

        self.schedules = 0
        self.codegens = 0
        schedule, codegen = cache_module.schedule_kernel, cache_module.generate_program

        def counted_schedule(*args, **kwargs):
            self.schedules += 1
            time.sleep(delay_s)
            return schedule(*args, **kwargs)

        def counted_codegen(*args, **kwargs):
            self.codegens += 1
            return codegen(*args, **kwargs)

        monkeypatch.setattr(cache_module, "schedule_kernel", counted_schedule)
        monkeypatch.setattr(cache_module, "generate_program", counted_codegen)


class TestOneEntryPerKey:
    """A codegen overflow is one cache entry: scheduled once, raised fresh."""

    SPEC = OverlaySpec("v3", depth=8)

    def _session(self, **kwargs):
        from repro.api import Toolchain

        return Toolchain(cache=ScheduleCache(**kwargs))

    def test_cold_schedule_only_compile_runs_each_stage_once(self, monkeypatch):
        counter = _PipelineCounter(monkeypatch)
        tc = self._session()
        handle = tc.compile(_fat_kernel(), self.SPEC, allow_schedule_only=True)
        assert handle.schedule_only
        assert handle.warmup_bound_cycles == steady_state_warmup_bound(handle.schedule)
        assert (counter.schedules, counter.codegens) == (1, 1)
        assert tc.cache.stats.misses == 1

    def test_strict_compile_raises_a_fresh_error_without_rescheduling(self, monkeypatch):
        import traceback

        counter = _PipelineCounter(monkeypatch)
        tc = self._session()
        handle = tc.compile(_fat_kernel(), self.SPEC, allow_schedule_only=True)
        stored = tc.cache.peek(handle.key).error
        raised = []
        for _ in range(2):
            with pytest.raises(CodegenError) as info:
                tc.compile(_fat_kernel(), self.SPEC)
            raised.append(info.value)
        assert (counter.schedules, counter.codegens) == (1, 1)
        for error in raised:
            assert type(error) is type(stored) and str(error) == str(stored)
            assert error is not stored
        assert raised[0] is not raised[1]
        depths = [len(traceback.extract_tb(e.__traceback__)) for e in raised]
        assert depths[0] == depths[1]
        assert stored.__traceback__ is None

    def test_concurrent_compiles_coalesce_onto_one_pipeline_run(self, monkeypatch):
        import threading

        K = 6
        counter = _PipelineCounter(monkeypatch, delay_s=0.2)
        tc = self._session()
        barrier = threading.Barrier(K)
        handles = [None] * K

        def worker(index):
            barrier.wait()
            handles[index] = tc.compile(_fat_kernel(), self.SPEC, allow_schedule_only=True)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert (counter.schedules, counter.codegens) == (1, 1)
        assert all(handle.schedule_only for handle in handles)
        assert len({id(handle.schedule) for handle in handles}) == 1
        stats = tc.cache.stats
        assert stats.misses == 1 and stats.hits + stats.coalesced == K - 1

    def test_schedule_only_entry_survives_a_disk_round_trip(self, monkeypatch, tmp_path):
        writer = self._session(disk_dir=str(tmp_path))
        with pytest.raises(CodegenError) as original:
            writer.compile(_fat_kernel(), self.SPEC)
        counter = _PipelineCounter(monkeypatch)
        reader = self._session(disk_dir=str(tmp_path))
        with pytest.raises(CodegenError) as reloaded:
            reader.compile(_fat_kernel(), self.SPEC)
        assert type(reloaded.value) is type(original.value)
        assert str(reloaded.value) == str(original.value)
        handle = reader.compile(_fat_kernel(), self.SPEC, allow_schedule_only=True)
        assert handle.schedule_only
        assert handle.warmup_bound_cycles == steady_state_warmup_bound(handle.schedule)
        assert (counter.schedules, counter.codegens) == (0, 0)
        assert reader.cache.stats.disk_hits == 1 and reader.cache.stats.misses == 0

    def test_pickle_from_an_older_layout_is_a_miss(self, monkeypatch, tmp_path):
        import hashlib
        import pickle

        from repro.engine.cache import CacheKey

        dfg = get_kernel("qspline")
        overlay = LinearOverlay.fixed(V3, 8)
        entry = ScheduleCache().get_or_compile(dfg, overlay)
        key = CacheKey.for_mapping(dfg, overlay)
        # The filename pickles had before it carried a layout version.
        digest = hashlib.sha256(
            f"{key.kernel_name}|{key.dfg_hash}|{key.variant_name}|{key.depth}|"
            f"{key.fixed_depth}|{key.fifo_depth}|{key.scheduler}".encode("utf-8")
        ).hexdigest()[:32]
        with open(tmp_path / f"{key.kernel_name}-{key.variant_name}-{digest}.pkl", "wb") as handle:
            pickle.dump(entry, handle)
        counter = _PipelineCounter(monkeypatch)
        reader = self._session(disk_dir=str(tmp_path))
        handle = reader.compile(dfg, OverlaySpec("v3", depth=8))
        assert not handle.schedule_only
        assert reader.cache.stats.disk_hits == 0 and reader.cache.stats.misses == 1
        assert counter.schedules == 1


class TestInfeasibleEntries:
    """An infeasible schedule is one cache entry too: scheduled once per key."""

    SPEC = OverlaySpec("v1", depth=8, scheduler="linear")  # poly7 needs 13 stages

    def _session(self, **kwargs):
        from repro.api import Toolchain

        return Toolchain(cache=ScheduleCache(**kwargs))

    def _key(self):
        from repro.engine.cache import CacheKey

        dfg = get_kernel("poly7")
        return CacheKey.for_mapping(dfg, self.SPEC.build_overlay(dfg), self.SPEC.scheduler)

    def _raised(self, tc):
        from repro.errors import InfeasibleScheduleError

        with pytest.raises(InfeasibleScheduleError) as info:
            tc.compile("poly7", self.SPEC, allow_schedule_only=True)
        return info.value

    def test_repeat_compile_raises_a_fresh_error_without_rescheduling(self, monkeypatch):
        counter = _PipelineCounter(monkeypatch)
        tc = self._session()
        first = self._raised(tc)
        assert counter.schedules == 1
        entry = tc.cache.peek(self._key())
        assert entry.schedule is None and entry.program is None
        assert entry.error.__traceback__ is None
        again = [self._raised(tc) for _ in range(2)]
        assert counter.schedules == 1
        for error in again:
            assert type(error) is type(first) and str(error) == str(first)
            assert error is not entry.error and error is not first
        assert again[0] is not again[1]
        assert tc.cache.get_batch_plan(self._key()) is None

    def test_cache_stats_count_the_key_lookups(self):
        tc = self._session()
        for _ in range(3):
            self._raised(tc)
        stats = tc.cache_stats()
        assert (stats["lookups"], stats["misses"], stats["hits"]) == (3, 1, 2)
        assert stats["entries"] == 1

    def test_concurrent_compiles_run_the_scheduler_once(self, monkeypatch):
        import threading

        K = 6
        counter = _PipelineCounter(monkeypatch, delay_s=0.2)
        tc = self._session()
        barrier = threading.Barrier(K)
        errors = [None] * K

        def worker(index):
            barrier.wait()
            errors[index] = self._raised(tc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert counter.schedules == 1
        assert len({str(error) for error in errors}) == 1
        assert len({id(error) for error in errors}) == K  # no shared object
        stats = tc.cache.stats
        assert stats.misses == 1 and stats.hits + stats.coalesced == K - 1

    def test_infeasible_entry_survives_a_disk_round_trip(self, monkeypatch, tmp_path):
        original = self._raised(self._session(disk_dir=str(tmp_path)))
        counter = _PipelineCounter(monkeypatch)
        reader = self._session(disk_dir=str(tmp_path))
        reloaded = self._raised(reader)
        assert type(reloaded) is type(original) and str(reloaded) == str(original)
        assert counter.schedules == 0
        assert reader.cache.stats.disk_hits == 1 and reader.cache.stats.misses == 0

    def test_other_scheduler_errors_are_not_stored(self):
        from repro.schedule.registry import register_scheduler, unregister_scheduler

        calls = []

        def broken(dfg, overlay):
            calls.append(dfg.name)
            raise ConfigurationError("broken strategy")

        register_scheduler("test-broken", broken)
        try:
            tc = self._session()
            for _ in range(2):
                with pytest.raises(ConfigurationError, match="broken strategy"):
                    tc.compile("poly7", OverlaySpec("v1", scheduler="test-broken"))
            assert len(calls) == 2 and len(tc.cache) == 0
        finally:
            unregister_scheduler("test-broken")

    def test_warm_tune_runs_no_scheduler(self, monkeypatch):
        tc = self._session()
        first = tc.tune("poly7", budget=2)
        assert any(candidate.error for candidate in first.candidates)
        counter = _PipelineCounter(monkeypatch)
        again = tc.tune("poly7", budget=2)
        assert counter.schedules == 0
        assert [c.error for c in again.candidates] == [c.error for c in first.candidates]

    def test_sweep_reports_the_entry_error_as_a_row(self, monkeypatch):
        tc = self._session()
        message = str(self._raised(tc))
        counter = _PipelineCounter(monkeypatch)
        point = SweepPoint("poly7", self.SPEC, SimSpec(engine="fast", num_blocks=4))
        row = run_point(point, cache=tc.cache)
        assert counter.schedules == 0
        assert row.error == message and row.attempts == 1 and not row.quarantined
        assert (row.variant, row.overlay_depth) == ("v1", 8)


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

    def test_one_block_per_lane_has_no_measured_ii(self):
        # Two blocks on V2's two lanes complete side by side: no spacing to
        # measure (this used to be II 0.0, which crashed the sweep row).
        for engine in ("cycle", "fast"):
            point = SweepPoint("gradient", OverlaySpec("v2"), SimSpec(engine=engine, num_blocks=2))
            result = run_point(point)
            assert result.error is None and result.measured_ii is None
            assert result.throughput_gops > 0

    def test_two_blocks_measure_again(self):
        point = SweepPoint("qspline", OverlaySpec("v3", depth=8), SimSpec(engine="fast", num_blocks=2))
        assert run_point(point).measured_ii is not None
