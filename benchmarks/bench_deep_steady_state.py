"""Deep-kernel steady-state gate: the occupancy detector vs no fast-forward.

The paper's fixed-depth write-back overlays (V3-V5, Fig. 6 deep kernels,
Table III) are exactly where a whole-machine fingerprint needs
O(fifo_depth x depth) warm-up blocks before it can fast-forward.  This
harness runs depth-8 sweeps of the deepest library kernels on V3/V4/V5 at
the default FIFO depth (32, the worst fill transient) with the steady-state
skip on and off (``FastSimulator(fast_forward=False)`` simulates every
cycle) and **gates a >= 4x speedup** of the skipping run, recording the
ratio into ``BENCH_results.json`` next to the wall-clock timings.

The bound comes from measurement on one x86-64 core (Python 3.11): the
skipping engine runs this grid 5.5-6.3x faster than the full run, while a
whole-machine detector (which waits for every FIFO to fill) managed only
1.4x, so 4x fails on a lost or late skip.

The two runs must also produce bit-identical measurements — the gate is
only meaningful if the skip changes nothing observable.
"""

import time

from repro.engine.cache import default_cache
from repro.engine.fastsim import FastSimulator
from repro.kernels import get_kernel
from repro.kernels.reference import random_input_blocks
from repro.overlay.architecture import LinearOverlay

#: The deepest library kernels (13 and 11 DFG levels folded onto 8 FUs).
DEEP_KERNELS = ("poly7", "poly8")
VARIANTS = ("v3", "v4", "v5")
OVERLAY_DEPTH = 8
FIFO_DEPTH = 32
#: Longer than the fill transient of every case (the detector's
#: cycle-accurate work saturates well below this); matches the scale of the
#: Fig. 5 simulated sweep (512/point).
NUM_BLOCKS = 768
#: The gate: the skipping run must beat the full run by at least this factor.
MIN_SPEEDUP = 4.0
ROUNDS = 3

COMPARED_FIELDS = (
    "completion_cycles",
    "total_cycles",
    "measured_ii",
    "fu_stats",
    "fifo_high_water",
)


def _cases():
    cases = []
    for name in DEEP_KERNELS:
        for variant in VARIANTS:
            dfg = get_kernel(name)
            overlay = LinearOverlay.fixed(variant, OVERLAY_DEPTH, fifo_depth=FIFO_DEPTH)
            schedule = default_cache().get_or_compile(dfg, overlay).schedule
            blocks = random_input_blocks(schedule.dfg, NUM_BLOCKS, seed=17)
            cases.append((name, variant, schedule, blocks))
    return cases


def _run_grid(cases, fast_forward):
    elapsed = 0.0
    results = []
    for _name, _variant, schedule, blocks in cases:
        simulator = FastSimulator(schedule, fast_forward=fast_forward)
        started = time.perf_counter()
        results.append(simulator.run(blocks))
        elapsed += time.perf_counter() - started
    return elapsed, results


def test_deep_steady_state_speedup_gate(save_result, record_metric):
    cases = _cases()
    # Warm both code paths once, then take the best of a few rounds so the
    # gate measures the skip, not scheduler noise; the last round's results
    # double as the equivalence cross-check.
    _run_grid(cases, True)
    _run_grid(cases, False)
    skipping_s = float("inf")
    full_s = float("inf")
    for _ in range(ROUNDS):
        elapsed, skipping_results = _run_grid(cases, True)
        skipping_s = min(skipping_s, elapsed)
    for _ in range(ROUNDS):
        elapsed, full_results = _run_grid(cases, False)
        full_s = min(full_s, elapsed)

    for (name, variant, _schedule, _blocks), skipped, full in zip(
        cases, skipping_results, full_results
    ):
        for field in COMPARED_FIELDS:
            assert getattr(skipped, field) == getattr(full, field), (
                f"{name}/{variant}: skipping and full runs disagree on {field}"
            )

    speedup = full_s / skipping_s
    lines = [
        f"deep-kernel depth-{OVERLAY_DEPTH} V3-V5 sweep, fifo_depth={FIFO_DEPTH}, "
        f"{NUM_BLOCKS} blocks/point, {len(cases)} points",
        f"  no fast-forward   : {full_s:8.4f} s",
        f"  occupancy detector: {skipping_s:8.4f} s",
        f"  speedup           : {speedup:8.2f}x (gate: >= {MIN_SPEEDUP}x)",
    ]
    save_result("deep_steady_state", "\n".join(lines))
    record_metric("deep_steady_state::speedup_vs_no_fast_forward", speedup)
    assert speedup >= MIN_SPEEDUP, (
        f"steady-state skip only {speedup:.2f}x faster than the full run "
        f"(gate {MIN_SPEEDUP}x) on the deep fixed-depth sweep"
    )
