"""Concurrent Toolchain / cache contract suite (the service PR's backbone).

The overlay service hands one shared compile cache to many worker threads,
so this file pins the guarantees that make that safe:

* **shared cache, many threads** — N threads compiling a grid of
  ``(kernel, variant)`` points through one :class:`ScheduleCache` produce
  bit-identical artifacts per point and run the mapping pipeline exactly
  once per distinct key, never per thread;
* **coalescing** — concurrent identical compiles block on the in-flight
  leader instead of duplicating work, and a failing leader propagates its
  exception to every waiter without poisoning the key;
* **isolation** — concurrently driven isolated sessions still share
  nothing (the ``tests/test_api_toolchain.py`` semantics, under threads);
* **derived results** — racing ``evaluate``/``verify`` calls on one key
  all get the same analytic result and verdict, kept on the one entry;
* **disk-layer discipline** — concurrent writers sharing one ``disk_dir``
  (the temp+rename pattern of ``engine/store.py``) never let a reader see
  a truncated artifact;
* **shared-cache mechanics** — deterministic hits on a second pass, the
  capacity bound, the source memo, ``clear()``.
"""

import pickle
import threading

import pytest

from repro.api import Toolchain
from repro.engine.cache import ScheduleCache
from repro.errors import CodegenError
from repro.kernels import get_kernel
from repro.specs import OverlaySpec

GRID = [
    ("gradient", "v1"),
    ("gradient", "v3"),
    ("chebyshev", "v2"),
    ("qspline", "v3"),
]


def _compile_grid_concurrently(cache, threads_per_point=4):
    """Drive one shared cache from many threads; return digests per point."""
    points = GRID * threads_per_point
    barrier = threading.Barrier(len(points))
    results = {}
    lock = threading.Lock()
    errors = []

    def worker(kernel, variant):
        toolchain = Toolchain(cache=cache)  # sessions share the injected cache
        barrier.wait()
        try:
            handle = toolchain.compile(kernel, OverlaySpec(variant=variant))
            image = handle.configuration.to_bytes()
            with lock:
                results.setdefault((kernel, variant), set()).add(image)
        except BaseException as error:  # pragma: no cover - diagnostic
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=point) for point in points
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    return results


class TestSharedCacheConcurrency:
    @pytest.mark.parametrize(
        "make_cache",
        [
            lambda tmp_path: ScheduleCache(capacity=64),
            lambda tmp_path: ScheduleCache(capacity=64, disk_dir=str(tmp_path)),
        ],
        ids=["flat", "disk"],
    )
    def test_grid_compiles_bit_identically_with_one_run_per_key(
        self, make_cache, tmp_path
    ):
        cache = make_cache(tmp_path)
        results = _compile_grid_concurrently(cache, threads_per_point=4)
        # Bit-identical artifacts: every thread of a point saw one image.
        assert set(results) == set(GRID)
        for point, images in results.items():
            assert len(images) == 1, f"{point} produced divergent artifacts"
        # One pipeline run per distinct key, never per thread.
        stats = cache.stats
        assert stats.misses == len(GRID)
        assert stats.hits + stats.coalesced == len(GRID) * 3

    def test_concurrent_isolated_sessions_share_nothing(self):
        K = 4
        barrier = threading.Barrier(K)
        sessions = [Toolchain(cache=ScheduleCache(capacity=8)) for _ in range(K)]
        handles = [None] * K

        def worker(index):
            barrier.wait()
            handles[index] = sessions[index].compile(
                "gradient", OverlaySpec(variant="v3")
            )

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        # Each isolated session ran its own pipeline on its own cache ...
        for session in sessions:
            assert session.cache.stats.misses == 1
            assert session.cache.stats.hits == 0
            assert session.cache.stats.coalesced == 0
        # ... but determinism still makes the artifacts bit-identical.
        images = {h.configuration.to_bytes() for h in handles}
        assert len(images) == 1
        schedules = {id(h.schedule) for h in handles}
        assert len(schedules) == K  # distinct objects: nothing was shared


class TestCoalescingAtTheCacheLayer:
    def test_waiters_block_on_the_leader_not_the_pipeline(self, monkeypatch):
        K = 6
        runs = []
        original = ScheduleCache._compile_miss

        def slow_compile(self, key, dfg, overlay):
            runs.append(key)
            import time

            time.sleep(0.2)
            return original(self, key, dfg, overlay)

        monkeypatch.setattr(ScheduleCache, "_compile_miss", slow_compile)
        cache = ScheduleCache(capacity=8)
        dfg = get_kernel("gradient")
        spec = OverlaySpec(variant="v3")
        barrier = threading.Barrier(K)
        handles = [None] * K

        def worker(index):
            barrier.wait()
            handles[index] = Toolchain(cache=cache).compile(dfg, spec)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(runs) == 1
        assert cache.stats.misses == 1
        assert cache.stats.coalesced >= 1
        assert cache.stats.hits + cache.stats.coalesced == K - 1
        # Coalesced waiters receive the *same* compiled object.
        assert len({id(h.schedule) for h in handles}) == 1

    def test_leader_failure_reaches_every_waiter_without_poisoning(self, monkeypatch):
        K = 4
        attempts = []

        def failing_compile(self, key, dfg, overlay):
            attempts.append(key)
            import time

            time.sleep(0.1)
            raise CodegenError("transient pipeline failure")

        original = ScheduleCache._compile_miss
        monkeypatch.setattr(ScheduleCache, "_compile_miss", failing_compile)
        cache = ScheduleCache(capacity=8)
        dfg = get_kernel("gradient")
        spec = OverlaySpec(variant="v3")
        barrier = threading.Barrier(K)
        outcomes = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                Toolchain(cache=cache).compile(dfg, spec)
            except CodegenError as error:
                with lock:
                    outcomes.append(str(error))

        threads = [threading.Thread(target=worker) for _ in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert outcomes == ["transient pipeline failure"] * K
        assert len(attempts) == 1  # one shared failure, not K pipeline runs
        # The failed key is not poisoned: a later compile succeeds.
        monkeypatch.setattr(ScheduleCache, "_compile_miss", original)
        handle = Toolchain(cache=cache).compile(dfg, spec)
        assert handle.configuration is not None


class TestDerivedResultsOnTheEntry:
    def test_racing_evaluates_and_verifies_agree(self):
        import sys

        K = 8
        cache = ScheduleCache(capacity=8)
        barrier = threading.Barrier(K)
        results = [None] * K

        def worker(index):
            toolchain = Toolchain(cache=cache)
            barrier.wait()
            handle = toolchain.compile("gradient", OverlaySpec(variant="v3"))
            verdict = toolchain.verify(handle).to_dict()
            results[index] = (toolchain.evaluate(handle), verdict, handle.entry)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(K)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        performance, verdict, entry = results[0]
        assert all(result[2] is entry for result in results)
        assert all(result[:2] == (performance, verdict) for result in results)
        assert entry.analytic == performance
        assert entry.verdict.to_dict() == verdict


class TestDiskLayerRaces:
    def test_concurrent_writers_sharing_a_disk_dir_never_corrupt_it(self, tmp_path):
        """Separate caches racing on one disk_dir: readers see whole files.

        Each worker uses its *own* in-memory cache, so every one of them
        writes the artifact to the shared directory — the temp+rename
        discipline must make those writes atomic.
        """
        K = 8
        disk = str(tmp_path / "cachedir")
        barrier = threading.Barrier(K)
        errors = []

        def worker(index):
            cache = ScheduleCache(capacity=4, disk_dir=disk)
            barrier.wait()
            try:
                for kernel, variant in GRID:
                    Toolchain(cache=cache).compile(
                        kernel, OverlaySpec(variant=variant)
                    )
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        # No temp droppings survive, and every artifact unpickles whole.
        leftovers = list(tmp_path.joinpath("cachedir").glob("*.tmp"))
        assert leftovers == []
        artifacts = list(tmp_path.joinpath("cachedir").glob("*.pkl"))
        assert len(artifacts) == len(GRID)
        for path in artifacts:
            with open(path, "rb") as handle:
                compiled = pickle.load(handle)  # truncated pickles raise here
            assert compiled.schedule is not None

    def test_cold_cache_reads_the_racy_directory_back(self, tmp_path):
        disk = str(tmp_path / "cachedir")
        warm = ScheduleCache(capacity=8, disk_dir=disk)
        for kernel, variant in GRID:
            Toolchain(cache=warm).compile(kernel, OverlaySpec(variant=variant))
        cold = ScheduleCache(capacity=8, disk_dir=disk)
        for kernel, variant in GRID:
            Toolchain(cache=cold).compile(kernel, OverlaySpec(variant=variant))
        assert cold.stats.disk_hits == len(GRID)
        assert cold.stats.misses == 0


class TestSharedCacheMechanics:
    def test_second_pass_is_all_hits(self):
        cache = ScheduleCache(capacity=32)
        for kernel, variant in GRID:
            Toolchain(cache=cache).compile(kernel, OverlaySpec(variant=variant))
        assert len(cache) == len(GRID)
        # A second pass is all hits: key derivation is deterministic.
        for kernel, variant in GRID:
            Toolchain(cache=cache).compile(kernel, OverlaySpec(variant=variant))
        assert cache.stats.hits == len(GRID)
        assert cache.stats.misses == len(GRID)

    def test_capacity_bounds_the_entries(self):
        cache = ScheduleCache(capacity=2)
        for kernel, variant in GRID:
            Toolchain(cache=cache).compile(kernel, OverlaySpec(variant=variant))
        assert cache.capacity == 2
        assert len(cache) == 2
        assert cache.stats.evictions == len(GRID) - 2

    def test_source_fast_path_compiles_once(self):
        source = """
void grad(int a, int b, int c, int *out) {
    *out = (b - a) + (c - b);
}
"""
        cache = ScheduleCache(capacity=32)
        toolchain = Toolchain(cache=cache)
        first = toolchain.compile(source=source, overlay=OverlaySpec())
        second = toolchain.compile(source=source, overlay=OverlaySpec())
        assert first.schedule is second.schedule
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_clear_empties_everything(self):
        cache = ScheduleCache(capacity=32)
        for kernel, variant in GRID:
            Toolchain(cache=cache).compile(kernel, OverlaySpec(variant=variant))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0
        # Nothing survives: the same grid compiles from scratch again.
        for kernel, variant in GRID:
            Toolchain(cache=cache).compile(kernel, OverlaySpec(variant=variant))
        assert cache.stats.misses == len(GRID)
        assert cache.stats.hits == 0
