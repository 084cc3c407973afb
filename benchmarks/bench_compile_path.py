"""Cold-vs-warm benchmark of the compile path (the PR 2 acceptance gate).

The scenario is the one every sweep and table harness repeats: ``get_kernel``
followed by ``Toolchain.compile`` + ``Toolchain.evaluate`` for every library
kernel on a critical-path V1 overlay and a fixed-depth V3 overlay.  Cold means every cache layer cleared —
the kernel library's built-DFG cache, the frontend cache (tokens/ASTs/DFGs)
and the compiled-schedule cache; warm means all of them populated by a prior
identical pass.

Three tests land in ``BENCH_results.json``:

* ``test_compile_path_cold``   — one full pass from cleared caches;
* ``test_compile_path_warm``   — ``WARM_ROUNDS`` passes on warm caches;
* ``test_compile_path_speedup`` — measures both itself, asserts the
  acceptance criterion (warm ≥ 5x faster than cold) and writes the
  cold/warm/speedup table to ``results/compile_path.txt``.
"""

import time

import pytest

from repro.api import default_toolchain
from repro.engine.cache import default_cache
from repro.frontend.cache import default_frontend_cache
from repro.kernels.library import clear_kernel_cache, kernel_names
from repro.specs import OverlaySpec

#: The compile grid: every library kernel on one critical-path-depth overlay
#: and one fixed-depth write-back overlay (the two scheduler families).
VARIANTS = ("v1", "v3")

#: Warm passes per measurement (averaged), so dictionary-lookup-fast warm
#: times are measured above timer resolution.
WARM_ROUNDS = 5


@pytest.fixture(autouse=True)
def _no_disk_layer():
    """Measure in-memory compile cost only: a populated ``REPRO_CACHE_DIR``
    would serve the "cold" pass from disk pickles and corrupt the gate."""
    cache = default_cache()
    saved = cache.disk_dir
    cache.disk_dir = None
    try:
        yield
    finally:
        cache.disk_dir = saved


def _clear_all_caches():
    """Cold start: drop the library, frontend and compiled-schedule layers."""
    clear_kernel_cache()
    default_frontend_cache().clear()
    default_cache().clear()


def _compile_pass():
    """One full ``get_kernel`` + compile + evaluate sweep over the grid."""
    toolchain = default_toolchain()
    for name in kernel_names():
        for variant in VARIANTS:
            handle = toolchain.compile(name, OverlaySpec(variant))
            assert toolchain.evaluate(handle).ii > 0


def _timed_pass():
    start = time.perf_counter()
    _compile_pass()
    return time.perf_counter() - start


def _measure_cold_and_warm():
    _clear_all_caches()
    cold = _timed_pass()
    warm = min(_timed_pass() for _ in range(WARM_ROUNDS))
    return cold, warm


def test_compile_path_cold():
    """One full compile pass from completely cold caches."""
    _clear_all_caches()
    _compile_pass()
    stats = default_cache().stats
    assert stats.misses == len(kernel_names()) * len(VARIANTS)


def test_compile_path_warm():
    """WARM_ROUNDS passes on warm caches (duration ~ WARM_ROUNDS+1 passes)."""
    _compile_pass()  # self-sufficient warm-up when run in isolation
    for _ in range(WARM_ROUNDS):
        _compile_pass()
    assert default_cache().stats.hit_rate > 0.5


def test_compile_path_speedup(save_result):
    """The acceptance criterion: warm ≥ 5x faster than cold, recorded."""
    cold, warm = _measure_cold_and_warm()
    speedup = cold / warm if warm > 0 else float("inf")

    frontend = default_frontend_cache().stats
    backend = default_cache().stats
    lines = [
        "compile path: get_kernel + compile + evaluate over "
        f"{len(kernel_names())} kernels x {len(VARIANTS)} variants",
        f"  cold (all caches cleared) : {cold * 1e3:8.2f} ms",
        f"  warm (best of {WARM_ROUNDS})         : {warm * 1e3:8.2f} ms",
        f"  speedup                   : {speedup:8.1f}x  (gate: >= 5x)",
        f"  backend cache             : {backend.hits} hits, "
        f"{backend.misses} misses, {backend.hit_rate * 100:.1f}% hit rate",
        f"  frontend cache            : {frontend.summary()}",
    ]
    save_result("compile_path", "\n".join(lines))
    assert speedup >= 5.0, (
        f"warm compile path only {speedup:.1f}x faster than cold "
        f"(cold {cold * 1e3:.2f} ms, warm {warm * 1e3:.2f} ms)"
    )
