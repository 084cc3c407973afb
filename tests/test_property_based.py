"""Property-based tests (hypothesis) over randomly generated kernels.

The hand-written benchmark kernels only exercise a handful of DFG shapes, so
these tests generate random straight-line kernels and check the invariants the
tool flow must uphold for *any* legal kernel:

* schedulers respect data dependences and the IWP spacing;
* the analytic II equals the simulator's steady-state measurement;
* the generated instruction streams round-trip through the binary encoding;
* the simulated overlay computes exactly what the reference model computes,
  on every FU variant;
* the engines agree bit for bit on generated kernels: the fast engine's full
  ``SimulationResult`` equals the cycle engine's on V1-V5 at every FIFO
  depth, and the ``batched`` spelling equals ``fast`` (a fast subset runs in
  tier-1, the full grid under ``--runslow``);
* every registered scheduler keeps the compile contract on generated
  kernels: an infeasible key raises the same error again from its cache
  entry without rescheduling, full artifacts verify clean, and the analytic
  II never exceeds the fast engine's measured II;
* the auto-tuner is a pure function of its spec and its result store — the
  same :class:`~repro.specs.TuneSpec` against the same store reproduces the
  identical :class:`~repro.specs.TuneResult`, and a resumed tune never
  re-simulates a stored frontier point.
"""

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Toolchain
from repro.dfg.analysis import asap_stage_assignment, dfg_depth, stage_traffic
from repro.dfg.transforms import optimize
from repro.dfg.validate import collect_validation_errors
from repro.engine.batchsim import BatchSimulator
from repro.engine.cache import ScheduleCache
from repro.engine.fastsim import FastSimulator
from repro.errors import InfeasibleScheduleError, SimulationError
from repro.kernels.generators import random_dfg
from repro.kernels.reference import evaluate_dfg, random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import FU_VARIANTS, V1, V3
from repro.overlay.isa import decode_instruction, encode_instruction
from repro.program.codegen import generate_program
from repro.schedule import analytic_ii, schedule_kernel
from repro.schedule.ordering import verify_ordering
from repro.schedule.registry import scheduler_names
from repro.schedule.types import SlotKind
from repro.sim.overlay import OverlaySimulator, simulate_schedule
from repro.specs import OverlaySpec, SimSpec

#: Strategy for seeded random kernels that stay small enough to simulate fast.
kernel_strategy = st.builds(
    random_dfg,
    num_inputs=st.integers(min_value=1, max_value=5),
    num_operations=st.integers(min_value=3, max_value=28),
    seed=st.integers(min_value=0, max_value=10_000),
)

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDFGInvariants:
    @given(dfg=kernel_strategy)
    @settings(**_SETTINGS)
    def test_random_kernels_are_structurally_sound(self, dfg):
        errors = [
            e
            for e in collect_validation_errors(dfg, require_live=False)
            if "unused" not in e
        ]
        assert errors == []

    @given(dfg=kernel_strategy)
    @settings(**_SETTINGS)
    def test_optimizer_preserves_semantics(self, dfg):
        optimized = optimize(dfg)
        block = [7 * (i + 1) for i in range(dfg.num_inputs)]
        assert evaluate_dfg(optimized, block) == evaluate_dfg(dfg, block)

    @given(dfg=kernel_strategy)
    @settings(**_SETTINGS)
    def test_stage_traffic_is_conservative(self, dfg):
        assignment = asap_stage_assignment(dfg)
        traffic = stage_traffic(dfg, assignment)
        # Every stage's loads equal the previous stage's emissions.
        for previous, current in zip(traffic, traffic[1:]):
            assert set(previous.emits) == set(current.loads)
        # The final stage emits every output-feeding value.
        outputs = {o.operands[0] for o in dfg.outputs()}
        assert outputs <= set(traffic[-1].emits) | {
            v for t in traffic for v in t.computes
        }


class TestSchedulingInvariants:
    @given(dfg=kernel_strategy)
    @settings(**_SETTINGS)
    def test_asap_schedule_covers_all_ops_without_nops(self, dfg):
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
        computed = [
            s.value_id
            for stage in schedule.stages
            for s in stage.slots
            if s.kind is SlotKind.COMPUTE
        ]
        assert sorted(computed) == sorted(n.node_id for n in dfg.operations())
        assert schedule.total_nops == 0

    @given(dfg=kernel_strategy, depth=st.integers(min_value=2, max_value=6))
    @settings(**_SETTINGS)
    def test_fixed_depth_schedule_respects_precedence_and_iwp(self, dfg, depth):
        overlay = LinearOverlay.fixed(V3, depth)
        schedule = schedule_kernel(dfg, overlay)
        assignment = schedule.assignment
        for node in dfg.operations():
            for operand in node.operands:
                if operand in assignment:
                    assert assignment[operand] <= assignment[node.node_id]
        for stage in schedule.stages:
            assert verify_ordering(dfg, stage.slots, V3.iwp) == []

    @given(dfg=kernel_strategy)
    @settings(**_SETTINGS)
    def test_encoded_programs_roundtrip(self, dfg):
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(V1, dfg))
        program = generate_program(schedule)
        for fu_program in program.fu_programs:
            for word, instruction in zip(
                fu_program.encoded_words(), fu_program.instructions
            ):
                assert decode_instruction(word) == instruction


class TestSimulationInvariants:
    @given(
        dfg=kernel_strategy,
        variant_name=st.sampled_from(["baseline", "v1", "v2"]),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_simulation_matches_reference_on_asap_overlays(self, dfg, variant_name):
        variant = FU_VARIANTS[variant_name]
        schedule = schedule_kernel(dfg, LinearOverlay.for_kernel(variant, dfg))
        result = simulate_schedule(schedule, num_blocks=5, seed=3)
        assert result.matches_reference
        assert result.measured_ii == pytest.approx(analytic_ii(schedule), abs=0.01)

    @given(dfg=kernel_strategy, depth=st.integers(min_value=3, max_value=8))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_simulation_matches_reference_on_fixed_depth_overlays(self, dfg, depth):
        schedule = schedule_kernel(dfg, LinearOverlay.fixed(V3, depth))
        result = simulate_schedule(schedule, num_blocks=4, seed=5)
        assert result.matches_reference

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_input_block_generator_respects_kernel_shape(self, seed):
        dfg = random_dfg(3, 10, seed=seed)
        blocks = random_input_blocks(dfg, 4, seed=seed)
        assert all(len(b) == dfg.num_inputs for b in blocks)


def _run_engine(simulator, blocks):
    """A run's full result, or the type of the error it raised."""
    try:
        return simulator.run(blocks)
    except SimulationError as error:
        return type(error)


def _assert_engines_agree(dfg, variant_name, fifo_depth, depth, num_blocks):
    variant = FU_VARIANTS[variant_name]
    if variant.write_back:
        overlay = LinearOverlay.fixed(variant, depth, fifo_depth=fifo_depth)
    else:
        overlay = LinearOverlay.for_kernel(variant, dfg, fifo_depth=fifo_depth)
    schedule = schedule_kernel(dfg, overlay)
    blocks = random_input_blocks(dfg, num_blocks, seed=num_blocks)
    cycle = _run_engine(OverlaySimulator(schedule), blocks)
    fast = _run_engine(FastSimulator(schedule), blocks)
    batched = _run_engine(BatchSimulator(schedule), blocks)
    # SimulationResult is a dataclass: == compares every field, including
    # outputs, completion cycles, FU stats and every high-water mark.
    assert fast == cycle
    assert batched == fast


#: Stream lengths: short runs, odd counts (unequal 2-lane splits on V2)
#: and runs long enough for the steady-state skip.
_STREAM_LENGTHS = st.sampled_from([1, 2, 3, 5, 8, 13, 24])
_ORACLE_STRATEGY = dict(
    dfg=kernel_strategy,
    variant_name=st.sampled_from(["v1", "v2", "v3", "v4", "v5"]),
    fifo_depth=st.sampled_from([2, 4, 8, 32]),
    depth=st.integers(min_value=3, max_value=8),
)


class TestEngineDifferentialOracle:
    """fast == cycle and batched == fast on generated kernels."""

    @given(num_blocks=_STREAM_LENGTHS, **_ORACLE_STRATEGY)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_engines_agree_on_generated_kernels(
        self, dfg, variant_name, fifo_depth, depth, num_blocks
    ):
        _assert_engines_agree(dfg, variant_name, fifo_depth, depth, num_blocks)

    @pytest.mark.slow
    @given(
        num_blocks=st.one_of(_STREAM_LENGTHS, st.integers(min_value=1, max_value=96)),
        **_ORACLE_STRATEGY,
    )
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_engines_agree_on_the_full_grid(
        self, dfg, variant_name, fifo_depth, depth, num_blocks
    ):
        _assert_engines_agree(dfg, variant_name, fifo_depth, depth, num_blocks)


def _assert_compile_contract(dfg, scheduler, variant_name, fifo_depth, depth, num_blocks):
    spec = OverlaySpec(variant_name, depth=depth, fifo_depth=fifo_depth, scheduler=scheduler)
    tc = Toolchain(cache=ScheduleCache())
    try:
        handle = tc.compile(dfg, spec, allow_schedule_only=True)
    except InfeasibleScheduleError as first:
        with pytest.raises(InfeasibleScheduleError) as again:
            tc.compile(dfg, spec, allow_schedule_only=True)
        assert type(again.value) is type(first) and str(again.value) == str(first)
        # The repeat was a hit on the infeasible entry: no scheduler ran.
        assert (tc.cache.stats.misses, tc.cache.stats.hits) == (1, 1)
        return
    if not handle.schedule_only:
        report = tc.verify(handle)
        assert report.ok, report.summary()
    sim = SimSpec(engine="fast", num_blocks=num_blocks)
    measured = tc.simulate(handle, sim).measured_ii
    if measured is not None:
        assert tc.evaluate(handle).ii <= measured


class TestSchedulerCompileOracle:
    """Every registered scheduler x V1-V5 x fifo depth on generated kernels."""

    @given(
        scheduler=st.sampled_from(scheduler_names()),
        depth=st.one_of(st.none(), st.integers(min_value=3, max_value=8)),
        dfg=kernel_strategy,
        variant_name=_ORACLE_STRATEGY["variant_name"],
        fifo_depth=_ORACLE_STRATEGY["fifo_depth"],
        num_blocks=_STREAM_LENGTHS,
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_compile_contract_on_generated_kernels(
        self, dfg, scheduler, variant_name, fifo_depth, depth, num_blocks
    ):
        _assert_compile_contract(dfg, scheduler, variant_name, fifo_depth, depth, num_blocks)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(12))
    def test_compile_contract_on_the_full_grid(self, seed):
        import itertools
        import random

        rng = random.Random(seed)
        dfg = random_dfg(1 + seed % 5, 3 + (seed * 7) % 26, seed=rng.randrange(10_000))
        lengths = itertools.cycle([1, 2, 3, 5, 8, 13, 24])
        grid = itertools.product(
            scheduler_names(), ("v1", "v2", "v3", "v4", "v5"), (2, 4, 8, 32)
        )
        for scheduler, variant_name, fifo_depth in grid:
            # Odd seeds size V1/V2 to the kernel's critical path.
            depth = None if seed % 2 and variant_name in ("v1", "v2") else 3 + seed % 6
            _assert_compile_contract(
                dfg, scheduler, variant_name, fifo_depth, depth, next(lengths)
            )


class TestTunerInvariants:
    """The auto-tuner is deterministic and resume never re-simulates.

    One session-scoped toolchain amortises compilation across examples; a
    fresh store directory per example keeps the resume accounting exact.
    Temp dirs are managed inline because hypothesis re-runs the function
    body many times per test (function-scoped fixtures would be shared).
    """

    _toolchain = None

    @classmethod
    def _session(cls):
        from repro.api import Toolchain
        from repro.engine.cache import ScheduleCache

        if cls._toolchain is None:
            cls._toolchain = Toolchain(cache=ScheduleCache())
        return cls._toolchain

    @given(
        budget=st.integers(min_value=1, max_value=3),
        objective=st.sampled_from(["ii", "gops", "latency"]),
        model=st.sampled_from(["analytic", "warmup-aware"]),
        variants=st.sets(
            st.sampled_from(["v1", "v2", "v3"]), min_size=1, max_size=3
        ),
        schedulers=st.sets(
            st.sampled_from(["linear", "clustered"]), min_size=1, max_size=2
        ),
    )
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_same_spec_and_store_reproduce_the_identical_result(
        self, budget, objective, model, variants, schedulers
    ):
        from repro.engine.store import ResultStore
        from repro.specs import TuneSpec
        from repro.tune import tune

        root = tempfile.mkdtemp(prefix="tune-prop-")
        try:
            spec = TuneSpec(
                kernel="gradient",
                variants=tuple(sorted(variants)),
                schedulers=tuple(sorted(schedulers)),
                model=model,
                objective=objective,
                budget=budget,
                jobs=1,
                store_dir=root,
            )
            first = tune(spec, toolchain=self._session())
            probe = ResultStore(root)
            second = tune(spec, toolchain=self._session(), store=probe)
            assert second == first
            # Resume contract: every frontier point was served from the
            # store — nothing was re-simulated, nothing re-written.
            assert probe.stats.writes == 0
            assert probe.stats.hits == first.num_simulated
            assert probe.stats.misses == 0
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @given(budget=st.integers(min_value=1, max_value=3))
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_enlarged_budget_only_simulates_the_new_frontier_points(self, budget):
        from repro.engine.store import ResultStore
        from repro.specs import TuneSpec
        from repro.tune import tune

        root = tempfile.mkdtemp(prefix="tune-grow-")
        try:
            base = TuneSpec(
                kernel="gradient",
                variants=("v1", "v2", "v3"),
                schedulers=("linear", "clustered"),
                budget=budget,
                jobs=1,
                store_dir=root,
            )
            small = tune(base, toolchain=self._session())
            probe = ResultStore(root)
            import dataclasses

            grown = tune(
                dataclasses.replace(base, budget=budget + 1),
                toolchain=self._session(),
                store=probe,
            )
            # The triage ranking is deterministic, so the larger frontier is
            # a superset: exactly one new point simulates, the rest resume.
            assert probe.stats.hits == small.num_simulated
            assert probe.stats.writes == grown.num_simulated - small.num_simulated
            assert grown.num_simulated == min(
                budget + 1, grown.num_feasible
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_calibrated_tuner_is_deterministic_once_the_store_is_fixed(self):
        from repro.engine.store import ResultStore
        from repro.specs import TuneSpec
        from repro.tune import tune

        root = tempfile.mkdtemp(prefix="tune-cal-")
        try:
            spec = TuneSpec(
                kernel="gradient",
                variants=("v1", "v2"),
                schedulers=("linear",),
                model="calibrated",
                budget=2,
                jobs=1,
                store_dir=root,
            )
            tune(spec, toolchain=self._session())  # seeds the store + fit rows
            second = tune(spec, toolchain=self._session())
            third = tune(spec, toolchain=self._session(), store=ResultStore(root))
            assert third == second
        finally:
            shutil.rmtree(root, ignore_errors=True)
