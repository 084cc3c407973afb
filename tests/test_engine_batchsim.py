"""The ``batched`` spelling and the value plane of the fast engine.

``engine="batched"`` runs the fast engine
(:class:`~repro.engine.batchsim.BatchSimulator` is
:class:`~repro.engine.fastsim.FastSimulator` under its own class name), and
:mod:`repro.engine.batchsim` holds the fast engine's vectorized value
plane.  Five layers of guarantees:

* **bit-identity** — ``batched`` results equal ``fast`` results across the
  whole kernel library on V3/V4/V5 at fifo_depth in {2, 4, 8, 32} and on
  the critical-path overlays (baseline/V1/V2), including FU stats,
  high-water marks and the measured II, under every knob (fast_forward, RF
  enforcement);
* **multi-lane aggregation** — merged stats are per-lane sums and
  high-water marks lane maxima, for both spellings, with the cycle engine's
  per-lane runs as the oracle (lanes of one length share one timing run);
* **plan artifacts** — the per-schedule value-plane plan is memoised,
  built on first simulate (never at compile time), reachable through
  ``ScheduleCache.get_batch_plan``, and never part of a pickled entry;
* **optional dependency** — with numpy absent (``sys.modules`` stub in a
  subprocess) the library imports and both the ``fast`` and ``batched``
  spellings run on the scalar value plane with the numpy-present results;
* **ride-alongs** — the service ``simulate`` op accepts
  ``SimSpec(engine="batched")`` on the wire (unknown engines and the removed
  ``detector`` field are ``E_PARAMS``) and ``TuneSpec`` can pin the
  measurement engine with identical measured results.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
from functools import lru_cache

import pytest

from repro.api import Toolchain
from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import FastSimulator
from repro.errors import ConfigurationError
from repro.kernels import BENCHMARK_NAMES, get_kernel
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import BASELINE, V1, V2, V3, V4, V5
from repro.schedule import schedule_kernel
from repro.sim.overlay import OverlaySimulator, simulate_schedule
from repro.specs import OverlaySpec, SimSpec, TuneSpec

try:
    import numpy  # noqa: F401 - availability probe only
except ImportError:
    numpy = None

needs_numpy = pytest.mark.skipif(
    numpy is None, reason="the vectorized value plane needs the numpy [batch] extra"
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: Everything the engines must agree on exactly (same list as the fast-engine
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

VARIANTS = {v.name.lower(): v for v in (BASELINE, V1, V2, V3, V4, V5)}
WRITE_BACK_VARIANTS = ("v3", "v4", "v5")
CRITICAL_PATH_VARIANTS = ("baseline", "v1", "v2")
FIFO_DEPTHS = (2, 4, 8, 32)


@lru_cache(maxsize=None)
def _fixed_schedule(name, variant_name, fifo_depth, depth=8):
    dfg = get_kernel(name)
    overlay = LinearOverlay.fixed(VARIANTS[variant_name], depth, fifo_depth=fifo_depth)
    return schedule_kernel(dfg, overlay)


@lru_cache(maxsize=None)
def _auto_schedule(name, variant_name):
    dfg = get_kernel(name)
    overlay = LinearOverlay.for_kernel(VARIANTS[variant_name], dfg)
    return schedule_kernel(dfg, overlay)


def _result_fields(result):
    data = {}
    for field in COMPARED_FIELDS:
        value = getattr(result, field)
        if field == "fu_stats":
            value = [stats.__dict__ for stats in value]
        data[field] = value
    return data


def assert_batched_identical(schedule, num_blocks, seed=3, **knobs):
    """Run both engines on the same stream; assert exact equality."""
    from repro.engine.batchsim import BatchSimulator

    blocks = random_input_blocks(schedule.dfg, num_blocks, seed=seed)
    fast = FastSimulator(schedule, **knobs).run(blocks)
    batched = BatchSimulator(schedule, **knobs).run(blocks)
    assert _result_fields(batched) == _result_fields(fast)
    return fast, batched


# ---------------------------------------------------------------------------
# bit-identity with the fast engine
# ---------------------------------------------------------------------------
class TestLibraryBitIdentity:
    """Exact equality against the fast engine, library-wide."""

    @pytest.mark.parametrize("fifo_depth", FIFO_DEPTHS)
    @pytest.mark.parametrize("variant_name", WRITE_BACK_VARIANTS)
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_fixed_depth_library(self, name, variant_name, fifo_depth):
        schedule = _fixed_schedule(name, variant_name, fifo_depth)
        assert_batched_identical(schedule, num_blocks=20)

    @pytest.mark.parametrize("variant_name", CRITICAL_PATH_VARIANTS)
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_critical_path_library(self, name, variant_name):
        schedule = _auto_schedule(name, variant_name)
        assert_batched_identical(schedule, num_blocks=20)

    def test_no_fast_forward(self):
        schedule = _fixed_schedule("poly6", "v3", 4)
        assert_batched_identical(schedule, num_blocks=16, fast_forward=False)

    def test_rf_capacity_enforcement_off(self):
        schedule = _fixed_schedule("poly5", "v5", 2)
        assert_batched_identical(schedule, num_blocks=16, enforce_rf_capacity=False)

    def test_long_stream_deep_backpressure(self):
        schedule = _fixed_schedule("poly7", "v4", 8)
        assert_batched_identical(schedule, num_blocks=400)

    @pytest.mark.parametrize("num_blocks", [1, 2, 3, 9])
    def test_multilane_odd_splits(self, num_blocks):
        # V2 is dual-lane: block streams deal round-robin across lanes, so
        # odd counts exercise the unequal-lane-length timing dedup.
        schedule = _auto_schedule("qspline", "v2")
        assert schedule.overlay.variant.lanes == 2
        assert_batched_identical(schedule, num_blocks=num_blocks)

    def test_engine_knob_selects_batched(self):
        schedule = _auto_schedule("gradient", "v1")
        batched = simulate_schedule(schedule, num_blocks=10, engine="batched")
        fast = simulate_schedule(schedule, num_blocks=10, engine="fast")
        assert batched.matches_reference
        assert _result_fields(batched) == _result_fields(fast)

    def test_unknown_engine_rejected(self):
        schedule = _auto_schedule("gradient", "v1")
        with pytest.raises(ConfigurationError):
            simulate_schedule(schedule, num_blocks=4, engine="warp")

    def test_detector_is_no_longer_a_knob(self):
        from repro.engine.batchsim import BatchSimulator

        schedule = _auto_schedule("gradient", "v1")
        with pytest.raises(TypeError):
            BatchSimulator(schedule, detector="occupancy")
        with pytest.raises(ConfigurationError, match="detector"):
            SimSpec.from_dict({"engine": "batched", "detector": "occupancy"})

    def test_batched_spelling_is_the_fast_engine(self):
        from repro.engine.batchsim import BatchSimulator

        assert issubclass(BatchSimulator, FastSimulator)
        # Its own ``run`` entry, so a class-level patch of one spelling
        # never reaches the other.
        assert BatchSimulator.__dict__["run"] is FastSimulator.__dict__["run"]
        assert SimSpec(engine="batched").engine == "batched"


# ---------------------------------------------------------------------------
# multi-lane stats aggregation: shared contract for both spellings
# ---------------------------------------------------------------------------
class TestMultilaneAggregationContract:
    """Merged stats are per-lane sums and high-water marks are lane maxima,
    with the cycle-accurate per-lane runs as the oracle."""

    @staticmethod
    def _merged(schedule, blocks, engine):
        if engine == "fast":
            return FastSimulator(schedule).run(blocks)
        from repro.engine.batchsim import BatchSimulator

        return BatchSimulator(schedule).run(blocks)

    @pytest.mark.parametrize("engine", ["fast", "batched"])
    def test_stats_aggregate_across_lanes(self, engine):
        schedule = _auto_schedule("qspline", "v2")
        blocks = random_input_blocks(schedule.dfg, 16, seed=0)
        merged = self._merged(schedule, blocks, engine)
        lane0 = OverlaySimulator(schedule)._run_single_lane(blocks[0::2])
        lane1 = OverlaySimulator(schedule)._run_single_lane(blocks[1::2])
        for k in range(schedule.depth):
            assert (
                merged.fu_stats[k].loads_issued
                == lane0.fu_stats[k].loads_issued + lane1.fu_stats[k].loads_issued
            )
            assert (
                merged.fu_stats[k].instructions_issued
                == lane0.fu_stats[k].instructions_issued
                + lane1.fu_stats[k].instructions_issued
            )

    @pytest.mark.parametrize("num_blocks,lengths", [(8, [4]), (9, [5, 4]), (1, [1])])
    def test_one_timing_run_per_distinct_lane_length(self, num_blocks, lengths):
        schedule = _auto_schedule("qspline", "v2")
        blocks = random_input_blocks(schedule.dfg, num_blocks, seed=0)
        simulator = FastSimulator(schedule)
        run_single_lane = simulator._run_single_lane
        runs = []

        def counted(count):
            runs.append(count)
            return run_single_lane(count)

        simulator._run_single_lane = counted
        result = simulator.run(blocks)
        assert runs == lengths
        assert result == OverlaySimulator(schedule).run(blocks)

    @pytest.mark.parametrize("engine", ["fast", "batched"])
    def test_high_water_marks_take_lane_maximum(self, engine):
        schedule = _auto_schedule("qspline", "v2")
        blocks = random_input_blocks(schedule.dfg, 9, seed=0)  # uneven lanes
        merged = self._merged(schedule, blocks, engine)
        lane0 = OverlaySimulator(schedule)._run_single_lane(blocks[0::2])
        lane1 = OverlaySimulator(schedule)._run_single_lane(blocks[1::2])
        for i in range(len(merged.fifo_high_water)):
            assert merged.fifo_high_water[i] == max(
                lane0.fifo_high_water[i], lane1.fifo_high_water[i]
            )
        for i in range(len(merged.rf_high_water)):
            assert merged.rf_high_water[i] == max(
                lane0.rf_high_water[i], lane1.rf_high_water[i]
            )


# ---------------------------------------------------------------------------
# plan artifacts: memoisation, lazy build, cache access, pickling
# ---------------------------------------------------------------------------
class _PlanBuildCounter:
    """Counts ``BatchPlan`` constructions while installed."""

    def __init__(self, monkeypatch):
        from repro.engine import batchsim

        self.builds = 0
        original = batchsim.BatchPlan.__init__

        def counting(plan, schedule):
            self.builds += 1
            original(plan, schedule)

        monkeypatch.setattr(batchsim.BatchPlan, "__init__", counting)


class TestPlanArtifacts:
    def test_plans_are_memoised_per_schedule_object(self):
        from repro.engine.batchsim import plan_for

        a = _fixed_schedule("gradient", "v3", 8)
        b = _fixed_schedule("chebyshev", "v3", 8)
        assert plan_for(a) is plan_for(a)
        assert plan_for(a) is not plan_for(b)

    def test_plan_holds_only_the_vector_evaluator(self):
        from repro.engine.batchsim import VectorBlockEvaluator, plan_for

        plan = plan_for(_fixed_schedule("gradient", "v3", 8))
        assert isinstance(plan.vector_evaluator, VectorBlockEvaluator)
        assert "def _vplan" in plan.vector_evaluator.plan_source
        assert not hasattr(plan, "loop")

    @needs_numpy
    def test_fast_engine_evaluates_through_the_memoised_plan(self):
        from repro.engine.batchsim import BatchSimulator, plan_for

        schedule = _fixed_schedule("mibench", "v4", 4)
        evaluator = plan_for(schedule).vector_evaluator
        calls = []
        original = evaluator.evaluate

        def spy(blocks):
            rows = original(blocks)
            calls.append(rows is not None)
            return rows

        evaluator.evaluate = spy
        try:
            blocks = random_input_blocks(schedule.dfg, 12, seed=1)
            fast = FastSimulator(schedule).run(blocks)
            batched = BatchSimulator(schedule).run(blocks)
        finally:
            del evaluator.evaluate
        # One vectorized pass per run, never a scalar fallback.
        assert calls == [True, True]
        assert _result_fields(batched) == _result_fields(fast)

    def test_cache_hands_out_the_memoised_plan(self):
        from repro.engine.batchsim import plan_for

        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v3"))
        first = tc.cache.get_batch_plan(handle.key)
        assert first is not None
        assert tc.cache.get_batch_plan(handle.key) is first
        assert plan_for(handle.schedule) is first

    def test_unknown_key_yields_no_plan(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v3"))
        assert ScheduleCache().get_batch_plan(handle.key) is None

    def test_compile_builds_no_plan_and_simulate_builds_one(self, monkeypatch):
        counter = _PlanBuildCounter(monkeypatch)
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v3"))
        assert counter.builds == 0
        for engine in ("fast", "batched"):
            result = tc.simulate(handle, SimSpec(engine=engine, num_blocks=8))
            assert result.matches_reference
        assert counter.builds == 1
        tc.cache.get_batch_plan(handle.key)
        assert counter.builds == 1

    def test_cache_entries_carry_no_plan(self):
        tc = Toolchain(cache=ScheduleCache())
        handle = tc.compile("gradient", OverlaySpec("v3"))
        tc.simulate(handle, SimSpec(engine="batched", num_blocks=8))
        entry = tc.cache.peek(handle.key)
        assert "batch_plan" not in vars(entry)
        revived = pickle.loads(pickle.dumps(entry))
        assert "batch_plan" not in vars(revived)
        assert revived.schedule.kernel_name == entry.schedule.kernel_name


# ---------------------------------------------------------------------------
# optional dependency: the library must not need numpy
# ---------------------------------------------------------------------------
#: Runs fast and batched simulations of a few artifacts and prints their
#: timing and outputs as JSON.  The first argument blocks numpy when "1".
_PLANE_SCRIPT = textwrap.dedent(
    """
    import json
    import sys
    if sys.argv[1] == "1":
        sys.modules["numpy"] = None  # import numpy -> ImportError
    sys.path.insert(0, {src!r})

    from repro import Toolchain
    from repro.engine import batchsim
    from repro.specs import OverlaySpec, SimSpec

    rows = {{"numpy": batchsim.np is not None}}
    tc = Toolchain()
    for kernel, spec in (("gradient", OverlaySpec("v1")),
                         ("qspline", OverlaySpec("v2")),
                         ("poly7", OverlaySpec("v4", depth=8, fifo_depth=4))):
        handle = tc.compile(kernel, spec)
        for engine in ("fast", "batched"):
            result = tc.simulate(handle, SimSpec(engine=engine, num_blocks=9, seed=4))
            assert result.matches_reference, (kernel, engine)
            rows[kernel + "/" + engine] = [
                result.outputs, result.completion_cycles, result.total_cycles,
                result.measured_ii, result.latency_cycles,
                [list(vars(stats).values()) for stats in result.fu_stats],
                result.fifo_high_water, result.rf_high_water,
                result.rf_per_block_high_water,
            ]
    print(json.dumps(rows))
    """
).format(src=SRC_DIR)


def _plane_run(block_numpy):
    proc = subprocess.run(
        [sys.executable, "-c", _PLANE_SCRIPT, "1" if block_numpy else "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestNumpyAbsent:
    """With numpy stubbed out of sys.modules, both engine spellings run on
    the scalar value plane and reproduce the numpy-present results."""

    def test_both_spellings_run_on_the_scalar_plane(self):
        absent = _plane_run(block_numpy=True)
        assert absent.pop("numpy") is False
        for kernel in ("gradient", "qspline", "poly7"):
            assert absent[kernel + "/batched"] == absent[kernel + "/fast"]
        if numpy is not None:
            present = _plane_run(block_numpy=False)
            assert present.pop("numpy") is True
            assert absent == present


# ---------------------------------------------------------------------------
# service ride-along: engine selection over the wire
# ---------------------------------------------------------------------------
class TestServiceEngineSelection:
    @pytest.fixture()
    def client(self):
        from repro.service.client import InProcessClient
        from repro.service.server import OverlayService

        return InProcessClient(OverlayService(capacity=64))

    def test_batched_row_matches_fast_row(self, client):
        fast = client.simulate(
            "gradient", OverlaySpec(variant="v3"), sim=SimSpec(engine="fast")
        )
        batched = client.simulate(
            "gradient", OverlaySpec(variant="v3"), sim=SimSpec(engine="batched")
        )
        assert batched == fast
        assert batched["matches_reference"]

    def test_unknown_engine_is_E_PARAMS(self, client):
        from repro.service.protocol import E_PARAMS, ServiceError

        with pytest.raises(ServiceError) as err:
            client.request(
                "simulate",
                {
                    "kernel": "gradient",
                    "overlay": {"variant": "v3"},
                    "sim": {"engine": "warp"},
                },
            )
        assert err.value.code == E_PARAMS

    def test_detector_field_is_E_PARAMS(self, client):
        from repro.service.protocol import E_PARAMS, ServiceError

        with pytest.raises(ServiceError) as err:
            client.request(
                "simulate",
                {
                    "kernel": "gradient",
                    "overlay": {"variant": "v3"},
                    "sim": {"engine": "batched", "detector": "occupancy"},
                },
            )
        assert err.value.code == E_PARAMS
        assert "detector" in str(err.value)


# ---------------------------------------------------------------------------
# tuner ride-along: pinning the measurement engine
# ---------------------------------------------------------------------------
class TestTuneEnginePin:
    def test_batched_measurements_match_fast(self):
        from repro.tune import tune

        def _tune(engine):
            spec = TuneSpec(
                kernel="gradient",
                variants=("v1", "v3"),
                schedulers=("clustered",),
                budget=2,
                jobs=1,
                sim=SimSpec(engine=engine, num_blocks=12),
            )
            return tune(spec, toolchain=Toolchain(cache=ScheduleCache()))

        fast, batched = _tune("fast"), _tune("batched")
        assert batched.spec.sim.engine == "batched"
        measured = [
            (
                c.overlay.variant,
                c.simulated,
                c.measured_ii,
                c.measured_cycles,
                c.measured_latency_cycles,
                c.measured_gops,
            )
            for c in batched.candidates
        ]
        assert measured == [
            (
                c.overlay.variant,
                c.simulated,
                c.measured_ii,
                c.measured_cycles,
                c.measured_latency_cycles,
                c.measured_gops,
            )
            for c in fast.candidates
        ]
        assert batched.best.overlay == fast.best.overlay
