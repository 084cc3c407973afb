"""Batched-execution gate: the fast engine vs the cycle engine on multi-lane
long streams.

The fast engine's two per-stream paths pay off on long multi-lane runs:
timing is value-independent, so a lane-parallel overlay needs only one
timing run per *distinct lane length* (round-robin dealing yields at most
two), and the value plane evaluates the whole stream as vectorized numpy
columns.  This harness runs exactly that — deep kernels on dual-lane
V3/V4/V5 at depth 8 — with the fast engine and the cycle-accurate reference
and **gates a >= 30x aggregate speedup** over the cycle engine, recording
the ratio as ``batch_engine_speedup_vs_cycle`` into ``BENCH_results.json``
next to the wall-clock timings.

The bound comes from measurement on one x86-64 core (Python 3.11, numpy
2.4): with both paths the fast engine is 48-64x the cycle engine; without
lane sharing it drops to 24x, and the engine before the paths were added
managed 20x.  The ratio moves with the host, so both paths are also checked
directly: each simulate makes one timing run (both lanes get the same block
count), and the vectorized evaluator, not the scalar fallback, serves every
point.

Both spellings must produce results bit-identical to the cycle engine's —
the gate is only meaningful if the shortcuts change nothing observable.
(Requires numpy, the ``[batch]`` extra; the harness skips without it.)
"""

import dataclasses
import time

import pytest

pytest.importorskip("numpy")

from repro.engine.batchsim import BatchSimulator, plan_for
from repro.engine.cache import default_cache
from repro.engine.fastsim import FastSimulator
from repro.kernels import get_kernel
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay
from repro.overlay.fu import get_variant
from repro.sim.overlay import OverlaySimulator

#: kernel x variant points of the multi-lane sweep: deep kernels where the
#: write-back overlays keep inter-stage FIFOs busy for thousands of cycles.
POINTS = (
    ("poly7", "v3"),
    ("poly7", "v4"),
    ("qspline", "v5"),
)
OVERLAY_DEPTH = 8
FIFO_DEPTH = 8
LANES = 2
#: Long-stream regime (the service/sweep workload the engine targets).
NUM_BLOCKS = 2000
#: The gate: the fast engine must beat the cycle engine by this factor.
MIN_SPEEDUP = 30.0
ROUNDS = 3

COMPARED_FIELDS = (
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


def _cases():
    cases = []
    for name, variant_name in POINTS:
        # Only stock V2 is dual-lane; the sweep's lane axis widens the
        # write-back variants the same way the paper scales throughput.
        variant = dataclasses.replace(get_variant(variant_name), lanes=LANES)
        dfg = get_kernel(name)
        overlay = LinearOverlay.fixed(variant, OVERLAY_DEPTH, fifo_depth=FIFO_DEPTH)
        schedule = default_cache().get_or_compile(dfg, overlay).schedule
        blocks = random_input_blocks(schedule.dfg, NUM_BLOCKS, seed=17)
        cases.append((name, variant_name, schedule, blocks))
    return cases


def _timing_runs(schedule, blocks):
    """Lane lengths of the timing runs one fast-engine simulate makes."""
    simulator = FastSimulator(schedule)
    lengths = []
    run_single_lane = simulator._run_single_lane

    def counted(num_blocks):
        lengths.append(num_blocks)
        return run_single_lane(num_blocks)

    simulator._run_single_lane = counted
    simulator.run(blocks)
    return lengths


def _time_point(schedule, blocks, make_simulator, rounds):
    """Best-of-``rounds`` wall clock for one point (noise hits rounds, not sums)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        simulator = make_simulator(schedule)
        started = time.perf_counter()
        result = simulator.run(blocks)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_batch_engine_speedup_gate(save_result, record_metric):
    cases = _cases()
    # Warm the fast engine once (value-plane plan included), then take the
    # per-point best of a few rounds; the cycle engine runs once per point
    # (it is ~50x slower, so its noise is relatively small).  The timed
    # results double as the bit-identity cross-check.
    fast_s = 0.0
    cycle_s = 0.0
    for name, variant, schedule, blocks in cases:
        assert plan_for(schedule).vector_evaluator.evaluate(blocks) is not None, (
            f"{name}/{variant}: the value plane fell back to the scalar evaluator"
        )
        assert _timing_runs(schedule, blocks) == [NUM_BLOCKS // LANES], (
            f"{name}/{variant}: lanes of equal length did not share one timing run"
        )
        FastSimulator(schedule).run(blocks)
        point_fast_s, fast = _time_point(schedule, blocks, FastSimulator, ROUNDS)
        point_cycle_s, cycle = _time_point(schedule, blocks, OverlaySimulator, 1)
        batched = BatchSimulator(schedule).run(blocks)
        fast_s += point_fast_s
        cycle_s += point_cycle_s
        for field in COMPARED_FIELDS:
            assert getattr(fast, field) == getattr(cycle, field), (
                f"{name}/{variant}: fast and cycle engines disagree on {field}"
            )
            assert getattr(batched, field) == getattr(fast, field), (
                f"{name}/{variant}: batched and fast disagree on {field}"
            )

    speedup = cycle_s / fast_s
    lines = [
        f"long-stream multi-lane sweep: depth-{OVERLAY_DEPTH} V3-V5, "
        f"lanes={LANES}, fifo_depth={FIFO_DEPTH}, "
        f"{NUM_BLOCKS} blocks/point, {len(cases)} points",
        f"  cycle engine: {cycle_s:8.4f} s",
        f"  fast engine : {fast_s:8.4f} s",
        f"  speedup     : {speedup:8.2f}x (gate: >= {MIN_SPEEDUP}x)",
    ]
    save_result("batch_engine", "\n".join(lines))
    record_metric("batch_engine_speedup_vs_cycle", speedup)
    assert speedup >= MIN_SPEEDUP, (
        f"fast engine only {speedup:.2f}x faster than the cycle engine "
        f"(gate {MIN_SPEEDUP}x) on the long-stream multi-lane sweep"
    )
