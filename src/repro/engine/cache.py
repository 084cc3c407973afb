"""Compiled-schedule cache: compile once, run many.

The mapping flow (scheduling, register allocation, instruction generation,
configuration-image assembly) is deterministic in its inputs: the kernel DFG
and the overlay configuration.  Sweeps and multi-kernel runtimes repeat the
same (kernel, overlay) pairs constantly — Fig. 5/6/Table III regenerate the
same nine kernels on the same five variants over and over — so this module
memoises the compiled artifacts:

* the **key** is ``(kernel name, DFG content hash, FU variant, depth,
  fixed-depth flag, FIFO depth, scheduler strategy)``.  The DFG hash
  (:func:`repro.dfg.serialize.dfg_fingerprint`) covers the full node list
  (ids, opcodes, operands, names, constant values) via the canonical JSON
  serialization, so two structurally identical DFG copies hit the same entry
  while any edit — even to a constant — misses;
* the **value** is a :class:`CompiledKernel` bundling the schedule, the FU
  programs and the configuration image, exactly what
  :meth:`repro.runtime.manager.OverlayRuntime.register` produces;
* storage is a bounded in-memory **LRU** with an optional on-disk pickle
  layer (``disk_dir=...`` or the ``REPRO_CACHE_DIR`` environment variable)
  so the worker processes of a parallel sweep can share compilations across
  runs.  Disk writes are atomic (temp file + rename — the same discipline
  :mod:`repro.engine.store` uses — so a concurrent reader never observes a
  truncated artifact, even with several writers racing on one key).

Concurrency
-----------
:class:`ScheduleCache` is safe for concurrent use from many threads (the
overlay service hammers one shared instance from a whole thread pool).  All
bookkeeping runs under one internal lock, and misses **coalesce**: when N
threads request the same key at once, exactly one runs the compile pipeline
while the other N-1 block on the in-flight entry and receive the identical
:class:`CompiledKernel` object (counted in ``stats.coalesced``).  An
exception the cache does not store (see below) propagates to every waiter.
The lock is held only for dictionary operations — compiles run outside
it — so one instance serves a whole thread pool without lock striping.

One record per key
------------------
A key has one :class:`CompiledKernel` whatever the mapping flow made of it,
so the scheduler runs once per key.  A codegen overflow (register file or
instruction memory) is a **schedule-only** entry and an unmappable kernel
an **infeasible** one (no schedule either); the
:class:`~repro.errors.CodegenError` / :class:`~repro.errors.InfeasibleScheduleError`
sits in ``error``.  The cache stores them (on disk too) and never raises
them, so coalesced waiters get the entry;
:meth:`repro.api.Toolchain.compile` is the one place that raises.  Any
other exception reaches every waiter and is not cached.  The verify verdict
and the analytic result are written onto the entry on first use and never
pickled (an entry is written to disk before any other thread can see it).

Compiled artifacts are treated as immutable by every consumer (simulator,
codegen listings, context-switch accounting) — only the write-once derived
results are ever set — which is what makes sharing a single instance across
runtimes and sweep points safe.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..dfg.graph import DFG
from ..dfg.serialize import dfg_fingerprint
from ..errors import CodegenError, InfeasibleScheduleError, ReproError
from ..overlay.architecture import LinearOverlay
from ..program.binary import ConfigurationImage, build_configuration_image
from ..program.codegen import OverlayProgram, generate_program
from ..schedule import schedule_kernel
from ..schedule.types import OverlaySchedule


#: Layout version of a pickled :class:`CompiledKernel`, part of every disk
#: filename so a pickle of another layout is never opened.  Bump it
#: whenever the entry's fields change.
PICKLE_LAYOUT = 2


@dataclass(frozen=True)
class CacheKey:
    """Everything the mapping flow's output depends on.

    ``scheduler`` is the strategy name from
    :mod:`repro.schedule.registry`; two strategies compiling the same
    (kernel, overlay) pair can never collide on one entry.
    :meth:`for_mapping` canonicalises the name (``"auto"`` resolves to the
    concrete strategy its dispatch selects for the overlay), so an ``auto``
    compile *shares* its entry with that concrete strategy instead of
    duplicating the work.
    """

    kernel_name: str
    dfg_hash: str
    variant_name: str
    depth: int
    fixed_depth: bool
    fifo_depth: int
    scheduler: str = "auto"

    @classmethod
    def for_mapping(
        cls,
        dfg: DFG,
        overlay: LinearOverlay,
        scheduler: str = "auto",
        fingerprint: Optional[str] = None,
    ) -> "CacheKey":
        """The key of a mapping; ``fingerprint`` is ``dfg_fingerprint(dfg)``
        when the caller has already computed it."""
        from ..schedule.registry import resolve_strategy_name

        return cls(
            kernel_name=dfg.name,
            dfg_hash=fingerprint if fingerprint is not None else dfg_fingerprint(dfg),
            variant_name=overlay.variant.name,
            depth=overlay.depth,
            fixed_depth=overlay.fixed_depth,
            fifo_depth=overlay.fifo_depth,
            scheduler=resolve_strategy_name(scheduler, overlay),
        )

    def filename(self) -> str:
        """Stable on-disk name for the pickle layer (carries the layout)."""
        digest = hashlib.sha256(
            f"{self.kernel_name}|{self.dfg_hash}|{self.variant_name}|"
            f"{self.depth}|{self.fixed_depth}|{self.fifo_depth}|"
            f"{self.scheduler}".encode("utf-8")
        ).hexdigest()[:32]
        return f"{self.kernel_name}-{self.variant_name}-{digest}.v{PICKLE_LAYOUT}.pkl"


@dataclass
class CompiledKernel:
    """Everything the tool flow knows about one compile key.

    A full entry has a schedule, the FU programs and the configuration
    image.  ``error`` is set on the two failed outcomes: a schedule-only
    entry (:class:`~repro.errors.CodegenError`; ``program`` and
    ``configuration`` are ``None``) and an infeasible entry
    (:class:`~repro.errors.InfeasibleScheduleError`; ``schedule`` is
    ``None`` too).
    """

    schedule: Optional[OverlaySchedule]
    program: Optional[OverlayProgram]
    configuration: Optional[ConfigurationImage]
    #: Analytic steady-state warm-up bound W(depth, fifo_depth, II) in
    #: cycles (:func:`repro.engine.fastsim.steady_state_warmup_bound`),
    #: computed once at compile time and reported on handles and service
    #: rows; the SPEC003/SPEC004 checks verify it.  The fast engine derives
    #: its own bound per run and does not read this one.
    warmup_bound_cycles: int = 0
    #: Why the flow stopped short of a full entry, or ``None``.
    error: Optional[ReproError] = None
    #: Write-once derived results, filled in on first use by
    #: :meth:`repro.api.Toolchain.verify` (the full-suite
    #: ``repro.verify.VerifyReport``) and :meth:`repro.api.Toolchain.evaluate`
    #: (the analytic ``PerformanceResult``).  A race computes the same value
    #: twice, never a different one.
    verdict: Optional[object] = None
    analytic: Optional[object] = None


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ScheduleCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    #: Lookups that blocked on another thread's in-flight compile of the
    #: same key and received its artifact — the pipeline ran once, not N
    #: times.  Counted separately from ``hits``/``misses`` so the
    #: single-threaded accounting is unchanged.
    coalesced: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.disk_hits + self.coalesced

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        if not lookups:
            return 0.0
        return (self.hits + self.disk_hits + self.coalesced) / lookups

    def as_dict(self) -> dict:
        """Flat dict snapshot (service ``stats`` endpoint, CLI views)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "coalesced": self.coalesced,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


class _InflightCompile:
    """One in-flight compile of a cache key: the leader's result or error.

    Waiters block on ``event`` and then read exactly one of ``result`` /
    ``error`` — both are written before the event is set.
    """

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[CompiledKernel] = None
        self.error: Optional[BaseException] = None


class ScheduleCache:
    """LRU cache of compiled kernels with an optional pickle disk layer."""

    def __init__(self, capacity: int = 128, disk_dir: Optional[str] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.disk_dir = disk_dir if disk_dir is not None else os.environ.get("REPRO_CACHE_DIR")
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, CompiledKernel]" = OrderedDict()
        #: In-flight compiles by key: concurrent misses on one key coalesce
        #: onto a single pipeline run (see the module docstring).
        self._inflight: "dict[CacheKey, _InflightCompile]" = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    # ------------------------------------------------------------------
    def get_or_compile(
        self, dfg: DFG, overlay: LinearOverlay, scheduler: str = "auto"
    ) -> CompiledKernel:
        """Return the compiled artifacts, running the mapping flow on a miss.

        ``scheduler`` selects the registered scheduling strategy; every
        strategy has its own cache entries (it is part of the key).  A
        codegen overflow or an infeasible schedule comes back as an entry
        with ``error`` set, not as an exception.
        """
        key = CacheKey.for_mapping(dfg, overlay, scheduler)
        return self.get_or_compile_keyed(key, dfg, overlay)

    def get_or_compile_keyed(
        self, key: CacheKey, dfg: DFG, overlay: LinearOverlay
    ) -> CompiledKernel:
        """Like :meth:`get_or_compile` with a precomputed key.

        The session API (:meth:`repro.api.Toolchain.compile`) memoises the
        :class:`CacheKey` per (DFG fingerprint, overlay spec) and per
        source, and uses this entry point so a warm compile hashes no DFG
        twice.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return cached
            flight = self._inflight.get(key)
            if flight is None:
                flight = _InflightCompile()
                self._inflight[key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            # Another thread is compiling this exact key right now: wait for
            # it and share its artifact instead of running the pipeline again.
            flight.event.wait()
            with self._lock:
                self.stats.coalesced += 1
            if flight.error is not None:
                raise flight.error
            assert flight.result is not None
            return flight.result
        try:
            compiled = self._compile_miss(key, dfg, overlay)
        except BaseException as error:
            flight.error = error
            raise
        else:
            flight.result = compiled
            return compiled
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()

    def peek(self, key: CacheKey) -> Optional[CompiledKernel]:
        """The cached entry for ``key`` (LRU-touched, no stats), or None."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
            return cached

    def get_batch_plan(self, key: CacheKey):
        """The value-plane plan of a cached entry's schedule, or None.

        Returns the :class:`repro.engine.batchsim.BatchPlan` that the fast
        engine memoises per schedule (building it if this is its first
        use), or ``None`` when the key has no in-memory entry or its entry
        has no schedule.
        """
        entry = self.peek(key)
        if entry is None or entry.schedule is None:
            return None
        from .batchsim import plan_for

        return plan_for(entry.schedule)

    def _compile_miss(
        self, key: CacheKey, dfg: DFG, overlay: LinearOverlay
    ) -> CompiledKernel:
        """Disk lookup, then the mapping pipeline (the leader's path).

        The scheduler runs once; an infeasible schedule or a codegen
        overflow makes an entry with ``error`` set.
        """
        from_disk = self._load_from_disk(key)
        if from_disk is not None:
            with self._lock:
                self.stats.disk_hits += 1
                self._store(key, from_disk)
            return from_disk

        from .fastsim import steady_state_warmup_bound

        schedule = program = configuration = error = None
        try:
            schedule = schedule_kernel(dfg, overlay, scheduler=key.scheduler)
            program = generate_program(schedule)
            configuration = build_configuration_image(schedule, program)
        except (InfeasibleScheduleError, CodegenError) as failure:
            program = None
            # The entry outlives this frame: keep the error, not its traceback.
            error = failure.with_traceback(None)
        compiled = CompiledKernel(
            schedule=schedule,
            program=program,
            configuration=configuration,
            warmup_bound_cycles=(
                0 if schedule is None else steady_state_warmup_bound(schedule)
            ),
            error=error,
        )
        # Written before it is published, so no derived result is pickled.
        self._save_to_disk(key, compiled)
        with self._lock:
            self.stats.misses += 1
            self._store(key, compiled)
        return compiled

    # ------------------------------------------------------------------
    def _store(self, key: CacheKey, compiled: CompiledKernel) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, key: CacheKey) -> Optional[str]:
        if not self.disk_dir:
            return None
        return os.path.join(self.disk_dir, key.filename())

    def _load_from_disk(self, key: CacheKey) -> Optional[CompiledKernel]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                compiled = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError):
            # ImportError: a stale entry naming a module that has moved.
            return None
        return compiled if isinstance(compiled, CompiledKernel) else None

    def _save_to_disk(self, key: CacheKey, compiled: CompiledKernel) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(compiled, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_path, path)
            except BaseException:
                if os.path.exists(tmp_path):
                    os.unlink(tmp_path)
                raise
        except OSError:
            # The disk layer is best-effort: a read-only or full filesystem
            # must never break compilation itself.
            return


_DEFAULT_CACHE: Optional[ScheduleCache] = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> ScheduleCache:
    """The process-wide cache shared by runtimes, sweeps and benchmarks."""
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = ScheduleCache()
        return _DEFAULT_CACHE
