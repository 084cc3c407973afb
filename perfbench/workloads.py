"""The three benchmark workloads: compile-cold, sim-long and service-mix.

Each workload is built from ``(seed, size)`` alone and runs in one process:

* :meth:`Workload.setup` builds the state a pass needs (fresh every call);
  the driver calls it several times and reports the median;
* :meth:`Workload.run_pass` runs one fixed, seed-determined pass and
  returns a :class:`PassResult`.  Every pass of a run does the same work, so
  counts normalised per pass repeat exactly and a run may hold any number
  of passes;
* :meth:`Workload.close` releases what setup opened.

Correctness checks run inside every pass and feed ``PassResult.failed``;
typed infeasible answers are not failures.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import random
import shutil
import tempfile
import threading
import time
from dataclasses import astuple, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import HostSpeed
from repro.api import Toolchain
from repro.engine.cache import ScheduleCache
from repro.errors import InfeasibleScheduleError
from repro.frontend.cache import default_frontend_cache
from repro.kernels.generators import random_dfg
from repro.kernels.library import BENCHMARK_NAMES, KERNEL_C_SOURCES, clear_kernel_cache, get_kernel
from repro.specs import OverlaySpec, SimSpec, SweepSpec

@dataclass
class PassResult:
    """What one pass did and measured."""

    #: When the pass started and its wall seconds.
    start: float = 0.0
    wall_s: float = 0.0
    #: Units of work behind the rate (artifacts, blocks, requests).
    work: int = 0
    #: Per-op latencies in seconds (one sample per artifact / point /
    #: request) and the instants the ops started.
    latencies: List[float] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Deterministic per-pass counts (repeat exactly for one seed).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Modelled-hardware mean II over the pass's fixed part.
    ii_mean: Optional[float] = None
    #: Digest of the pass's compiled outputs, compared across passes.
    digest: Optional[str] = None
    #: sim-long only: rows served back from the store, and the timed
    #: (start, seconds) intervals of the resume sweeps that served them.
    resumed: int = 0
    resume_intervals: List[Tuple[float, float]] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def _sub_seed(*parts: object) -> int:
    """A stable 31-bit seed derived from the workload seed and indices."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def random_minic_source(
    rng: random.Random,
    name: str,
    inputs: Optional[int] = None,
    statements: Optional[int] = None,
) -> str:
    """A seeded straight-line mini-C kernel that always lowers cleanly.

    ``inputs`` (2-4) and ``statements`` (4-12) are drawn from ``rng`` when
    not given.  Every value that no later statement reads (inputs included)
    is folded into the returned sum, as ``random_dfg`` folds its leftovers,
    so the lowered DFG has no dead values.  An operation never reads one
    value twice, so the optimizer cannot fold a statement to a constant.
    """
    params = [f"i{k}" for k in range(inputs or rng.randint(2, 4))]
    values = list(params)
    consumed = set()
    lines = []
    for k in range(statements or rng.randint(4, 12)):
        first = rng.choice(values[-4:])
        others = [value for value in values if value != first]
        if others and rng.random() < 0.8:
            second = rng.choice(others)
            consumed.add(second)
        else:
            second = str(rng.randint(2, 9))
        consumed.add(first)
        lines.append(f"    int t{k} = {first} {rng.choice('+-*')} {second};")
        values.append(f"t{k}")
    leftovers = [value for value in values if value not in consumed]
    signature = ", ".join(f"int {param}" for param in params)
    body = "\n".join(lines)
    return f"int {name}({signature}) {{\n{body}\n    return {' + '.join(leftovers)};\n}}\n"


class Workload:
    """Base class: the driver-facing surface every workload implements."""

    name = ""
    setup_reps = 3
    #: Whether the rate divides by pass wall time (concurrent ops) rather
    #: than by the summed op times.
    rate_over_wall = False
    #: The latency percentile reported as ``latency_tail_ms``: the highest
    #: one with at least ten samples beyond it.
    tail_percentile = 95

    def __init__(self, seed: int, size: str, scratch: str, nproc: int):
        self.seed = seed
        self.size = size
        self.scratch = scratch
        #: CPUs the run was given (before the driver pinned it to one).
        self.nproc = nproc
        #: Probe timeline the driver scales every timing with.
        self.speed = HostSpeed()

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, tracer) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- counters of the timed phase -----------------------------------
    def cache_counters(self) -> Dict[str, int]:
        """Cumulative compile-cache counters (hits, misses, lookups, ...)."""
        return {}

    def frontend_counters(self) -> Dict[str, int]:
        """Cumulative frontend DFG-cache hits and misses."""
        stats = default_frontend_cache().stats
        return {"dfg_hits": stats.dfg_hits, "dfg_misses": stats.dfg_misses}

    def mark_timed_phase(self) -> None:
        """Start counting cache and frontend activity from here."""
        self._cache_base = self.cache_counters()
        self._front_base = self.frontend_counters()

    def cache_stats(self) -> Dict[str, int]:
        return _delta(self.cache_counters(), self._cache_base)

    def frontend_delta(self) -> Dict[str, int]:
        return _delta(self.frontend_counters(), self._front_base)


def _delta(now: Dict[str, Any], base: Dict[str, Any]) -> Dict[str, int]:
    return {
        key: value - base.get(key, 0)
        for key, value in now.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


# ---------------------------------------------------------------------------
# compile-cold
# ---------------------------------------------------------------------------
SCHEDULERS = ("linear", "clustered", "modulo", "alap")


def _library_overlays(fifo_depths) -> List[OverlaySpec]:
    specs = [OverlaySpec(variant, fifo_depth=f) for variant in ("v1", "v2") for f in fifo_depths]
    specs += [
        OverlaySpec(variant, depth=depth, fifo_depth=f)
        for variant in ("v3", "v4", "v5")
        for depth in (4, 8)
        for f in fifo_depths
    ]
    return specs


class CompileCold(Workload):
    """The tuner's candidate space compiled at cold cache, with ``check=True``."""

    name = "compile-cold"
    setup_reps = 9  # set-up is ~15 ms; more repetitions steady its median

    def setup(self) -> None:
        tiny = self.size == "tiny"
        clear_kernel_cache()
        kernels = BENCHMARK_NAMES[:2] if tiny else BENCHMARK_NAMES
        library = {name: get_kernel(name) for name in kernels}
        overlays = _library_overlays((4,) if tiny else (4, 32))
        schedulers = SCHEDULERS[:2] if tiny else SCHEDULERS
        rng = random.Random(_sub_seed(self.seed, "random-dfg"))
        # Sizes are fixed across 12-40 ops and only the structure is seeded,
        # so every seed asks the scheduler for comparable work.
        sizes = (12, 26) if tiny else (12, 17, 23, 29, 34, 40)
        randoms = [
            random_dfg(2 + k % 4, ops, seed=rng.randrange(2**31), name=f"random{k}")
            for k, ops in enumerate(sizes)
        ]
        deep = [OverlaySpec(variant, depth=8) for variant in ("v3", "v4", "v5")]
        #: (label, kernel or DFG or None, mini-C source or None, spec, fixed part)
        self.points: List[Tuple[str, Any, Optional[str], OverlaySpec, bool]] = [
            (f"{name}/{spec.to_json()}/{scheduler}", dfg, None, spec.with_scheduler(scheduler), True)
            for name, dfg in library.items()
            for spec in overlays
            for scheduler in schedulers
        ]
        # One write-back variant per random kernel, in rotation over V3-V5:
        # the seed-dependent share of the pass stays small.
        self.points += [
            (f"{dfg.name}/{deep[k % 3].to_json()}", dfg, None, deep[k % 3], False)
            for k, dfg in enumerate(randoms)
        ]
        self.points += [
            (f"source:{name}/{spec.to_json()}", None, source, spec, True)
            for name, source in sorted(KERNEL_C_SOURCES.items())
            for spec in (OverlaySpec("v1"), OverlaySpec("v3", depth=8))
        ]
        self._cache_totals: Dict[str, int] = {}
        self._front_totals = {"dfg_hits": 0, "dfg_misses": 0}

    def run_pass(self, index: int, tracer) -> PassResult:
        toolchain = Toolchain(cache=ScheduleCache(capacity=4 * len(self.points)))
        default_frontend_cache().clear()
        images = []
        ii_values = []
        infeasible = schedule_only = 0
        started = time.perf_counter()
        result = PassResult(start=started)
        with tracer.span("run.pass"):
            for label, kernel, source, spec, fixed in self.points:
                result.attempted += 1
                with tracer.span("op.compile", op=True):
                    op_start = time.perf_counter()
                    try:
                        if source is not None:
                            handle = toolchain.compile(
                                source=source, overlay=spec, check=True, allow_schedule_only=True
                            )
                        else:
                            handle = toolchain.compile(
                                kernel, spec, check=True, allow_schedule_only=True
                            )
                        performance = toolchain.evaluate(handle)
                    except InfeasibleScheduleError:
                        handle = None
                    except Exception as error:  # noqa: BLE001 - counted, reported
                        handle = error
                    result.latencies.append(time.perf_counter() - op_start)
                    result.starts.append(op_start)
                self.speed.maybe_sample()
                if isinstance(handle, Exception):
                    result.fail(f"{label}: {type(handle).__name__}: {handle}")
                    continue
                if handle is None:
                    infeasible += 1
                    images.append((label, "infeasible"))
                    continue
                report = toolchain.verify(handle)
                if report.diagnostics:
                    result.fail(f"{label}: verifier diagnostics: {report.summary()}")
                if handle.configuration is None:
                    schedule_only += 1
                    images.append((label, "schedule-only"))
                else:
                    image = handle.configuration.to_bytes()
                    images.append((label, hashlib.sha256(image).hexdigest()))
                if fixed and source is None:
                    ii_values.append(performance.ii)
        result.wall_s = time.perf_counter() - started
        result.work = len(result.latencies)
        result.ii_mean = sum(ii_values) / len(ii_values)
        result.digest = hashlib.sha256(repr(images).encode()).hexdigest()
        result.counts = {"compile.infeasible": infeasible, "compile.schedule_only": schedule_only}
        # Each pass has its own cache and clears the frontend cache, so the
        # counters are summed here, pass by pass.
        for key, value in _delta(toolchain.cache_stats(), {}).items():
            self._cache_totals[key] = self._cache_totals.get(key, 0) + value
        for key, value in super().frontend_counters().items():
            self._front_totals[key] += value
        return result

    def cache_counters(self) -> Dict[str, int]:
        return dict(self._cache_totals)

    def frontend_counters(self) -> Dict[str, int]:
        return dict(self._front_totals)


# ---------------------------------------------------------------------------
# sim-long
# ---------------------------------------------------------------------------
def _sim_overlays() -> Tuple[OverlaySpec, ...]:
    return (
        OverlaySpec("v1", fifo_depth=8),
        OverlaySpec("v2", fifo_depth=8),
    ) + tuple(OverlaySpec(variant, depth=8, fifo_depth=8) for variant in ("v3", "v4", "v5"))


class SimLong(Workload):
    """Long-stream sweeps on both compiled engines, then a store resume."""

    name = "sim-long"
    setup_reps = 5  # compiles 45 artifacts and builds their plans; varies most
    tail_percentile = 90  # 90 sweep points per pass
    #: Resume passes per pass (each serves every row from the store).
    resume_reps = 4

    def __init__(self, seed: int, size: str, scratch: str, nproc: int):
        super().__init__(seed, size, scratch, nproc)
        tiny = size == "tiny"
        self.kernels = BENCHMARK_NAMES[:2] if tiny else BENCHMARK_NAMES
        self.overlays = _sim_overlays()[::2] if tiny else _sim_overlays()
        self.blocks = 64 if tiny else 4000
        self.toolchain: Optional[Toolchain] = None
        self._captured: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
        self._install_capture()

    def _install_capture(self) -> None:
        """Keep a digest of each sweep point's SimulationResult for the engine check.

        Sweep rows carry no outputs or FU statistics; this thin wrapper on
        the sweep runner's simulate call (installed in traced and untraced
        runs alike) records what fast and batched must agree on and drops
        the result, so the harness holds no output streams.
        """
        import repro.engine.sweep as sweep

        original = sweep.simulate_schedule_with
        captured = self._captured

        def capture(schedule, sim):
            result = original(schedule, sim)
            captured[(sim.engine, schedule.kernel_name, schedule.overlay.name)] = {
                # hash() of int tuples is value-based, so numpy and Python
                # ints that compare equal digest equal.
                "outputs": hash(tuple(map(tuple, result.outputs))),
                "total_cycles": result.total_cycles,
                "measured_ii": result.measured_ii,
                "latency_cycles": result.latency_cycles,
                "fu_stats": tuple(astuple(stats) for stats in result.fu_stats),
            }
            return result

        sweep.simulate_schedule_with = capture
        self._restore_capture = lambda: setattr(sweep, "simulate_schedule_with", original)

    def setup(self) -> None:
        toolchain = Toolchain(cache=ScheduleCache(capacity=256))
        for kernel in self.kernels:
            for spec in self.overlays:
                handle = toolchain.compile(kernel, spec)
                toolchain.cache.get_batch_plan(handle.key)
                self.speed.maybe_sample()
        self.toolchain = toolchain

    def _spec(self, engine: str, sim_seed: int, store_dir: str) -> SweepSpec:
        return SweepSpec(
            kernels=self.kernels,
            overlays=self.overlays,
            sim=SimSpec(engine=engine, num_blocks=self.blocks, seed=sim_seed),
            jobs=1,
            store_dir=store_dir,
        )

    def run_pass(self, index: int, tracer) -> PassResult:
        sim_seed = _sub_seed(self.seed, "sim", index)
        started = time.perf_counter()
        result = PassResult(start=started)
        point_start = [0.0]

        def progress(event) -> None:
            now = time.perf_counter()
            result.latencies.append(now - point_start[0])
            result.starts.append(point_start[0])
            self.speed.maybe_sample()
            point_start[0] = time.perf_counter()

        with tracer.span("run.pass"):
            store_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
            specs = [self._spec(engine, sim_seed, store_dir) for engine in ("fast", "batched")]
            try:
                rows = {}
                for spec in specs:
                    with tracer.span("op.sweep", op=True):
                        point_start[0] = time.perf_counter()
                        rows[spec.sim.engine] = self.toolchain.sweep(spec, progress=progress)
                self._check_engines(rows, result)
                for _ in range(self.resume_reps):
                    for spec in specs:
                        with tracer.span("op.resume", op=True):
                            resume_start = time.perf_counter()
                            resumed = self.toolchain.sweep(spec)
                            result.resume_intervals.append(
                                (resume_start, time.perf_counter() - resume_start)
                            )
                        result.resumed += self._check_resume(rows[spec.sim.engine], resumed, result)
            finally:
                shutil.rmtree(store_dir, ignore_errors=True)
                self._captured.clear()
        result.wall_s = time.perf_counter() - started
        all_rows = rows["fast"] + rows["batched"]
        result.work = sum(row.num_blocks for row in all_rows)
        measured = [row.measured_ii for row in all_rows if row.measured_ii is not None]
        result.ii_mean = sum(measured) / len(measured)
        result.counts = {"sweep.rows": len(all_rows)}
        return result

    def _check_engines(self, rows, result: PassResult) -> None:
        for fast, batched in zip(rows["fast"], rows["batched"]):
            result.attempted += 2
            label = f"{fast.kernel}/{fast.overlay_name}"
            for row in (fast, batched):
                if row.matches_reference is not True:
                    result.fail(f"{label} [{row.engine}]: matches_reference={row.matches_reference}")
            a = self._captured.get(("fast", fast.kernel, fast.overlay_name))
            b = self._captured.get(("batched", batched.kernel, batched.overlay_name))
            if a is None or b is None:
                result.fail(f"{label}: simulation result not captured")
                continue
            for attr, value in a.items():
                if b[attr] != value:
                    result.fail(f"{label}: fast and batched differ in {attr}")

    @staticmethod
    def _check_resume(computed, resumed, result: PassResult) -> int:
        volatile = ("elapsed_s", "attempts")
        matched = 0
        for before, after in zip(computed, resumed):
            result.attempted += 1
            a = {k: v for k, v in before.as_row().items() if k not in volatile}
            b = {k: v for k, v in after.as_row().items() if k not in volatile}
            if a == b:
                matched += 1
            else:
                result.fail(f"{before.kernel}/{before.overlay_name}: resumed row differs")
        if len(resumed) != len(computed):
            result.fail("resume returned a different number of rows")
        return matched

    def cache_counters(self) -> Dict[str, int]:
        return _delta(self.toolchain.cache_stats(), {})

    def close(self) -> None:
        self._restore_capture()


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------
#: Requests per pool artifact in each client's list: 50% warm compile, 20%
#: evaluate, 25% simulate (one per stream length), 5% cold mini-C source.
MIX = {"compile": 10, "evaluate": 4, "source": 1}
SIM_BLOCKS = (16, 28, 40, 52, 64)
COLD_SPECS = (OverlaySpec("v1"), OverlaySpec("v4", depth=8))


class ServiceMix(Workload):
    """A closed loop of ``nproc`` TCP clients against an in-process server."""

    name = "service-mix"
    rate_over_wall = True
    tail_percentile = 99

    def __init__(self, seed: int, size: str, scratch: str, nproc: int):
        super().__init__(seed, size, scratch, nproc)
        tiny = size == "tiny"
        kernels = BENCHMARK_NAMES[:2] if tiny else BENCHMARK_NAMES
        self.pool = [
            (kernel, spec)
            for kernel in kernels
            for spec in (OverlaySpec("v1"), OverlaySpec("v4", depth=8))
        ]
        self.server = None
        self.clients: List[Any] = []
        self._templates: Dict[int, List[Tuple[str, Dict[str, Any]]]] = {}

    def setup(self) -> None:
        from repro.service import BackgroundServer, OverlayService, ServiceClient

        self.close()
        service = OverlayService(max_workers=self.nproc)
        self.service = service
        self.server = BackgroundServer(service)
        self.clients = []
        for index in range(self.nproc):
            client = ServiceClient("127.0.0.1", self.server.port, timeout=120.0)
            # Request ids unique across connections, so a traced run can
            # link each server-side span to the client round trip behind it.
            client._ids = itertools.count(index * 10**9 + 1)
            self.clients.append(client)
        warm = self.clients[0]
        self.images: Dict[Tuple[str, OverlaySpec], str] = {}
        self.evaluated: Dict[Tuple[str, OverlaySpec], float] = {}
        ii_values = []
        for kernel, spec in self.pool:
            row = warm.compile(kernel, spec)
            self.images[(kernel, spec)] = row["configuration"]["sha256"]
            ii_values.append(row["analytic_ii"])
            self.evaluated[(kernel, spec)] = warm.evaluate(kernel, spec)["ii"]
            warm.simulate(kernel, spec, sim=SimSpec(engine="batched", num_blocks=16))
            self.speed.maybe_sample()
        self.ii_mean = sum(ii_values) / len(ii_values)
        self._timings: Dict[Tuple[str, OverlaySpec, int], Tuple] = {}
        self._timings_lock = threading.Lock()

    def _requests(self, index: int, thread: int) -> List[Tuple[str, Dict[str, Any]]]:
        """One thread's request list for pass ``index``.

        Every pool artifact gets the same number of requests of each kind
        and every simulate stream length once (``MIX``); the seed picks the
        order, the engines, the stream seeds and the cold sources.  Warm
        requests are drawn once per (seed, thread), so every pass does the
        same warm work; the cold sources are drawn afresh per pass, so they
        stay cold and a run sees many of them.  Their sizes are fixed by
        the pool slot (2-4 inputs, 4-12 statements) and only their
        structure is seeded, so every seed asks for comparable cold work.
        """
        if thread not in self._templates:
            rng = random.Random(_sub_seed(self.seed, "service", thread))
            requests: List[Tuple[str, Dict[str, Any]]] = []
            for slot, (kernel, spec) in enumerate(self.pool):
                requests += [("compile", {"kernel": kernel, "spec": spec})] * MIX["compile"]
                requests += [("evaluate", {"kernel": kernel, "spec": spec})] * MIX["evaluate"]
                for blocks in SIM_BLOCKS:
                    sim = SimSpec(
                        engine=rng.choice(("fast", "batched")),
                        num_blocks=blocks,
                        seed=rng.randrange(2**31),
                    )
                    requests.append(("simulate", {"kernel": kernel, "spec": spec, "sim": sim}))
                cold = {"spec": COLD_SPECS[slot % 2], "inputs": 2 + slot % 3,
                        "statements": 4 + slot % 9}
                requests += [("source", cold)] * MIX["source"]
            rng.shuffle(requests)
            self._templates[thread] = requests
        rng = random.Random(_sub_seed(self.seed, "sources", index, thread))
        return [
            (kind, dict(request, source=random_minic_source(
                rng, f"k{self.seed}_{index}_{thread}_{number}",
                request["inputs"], request["statements"])))
            if kind == "source" else (kind, request)
            for number, (kind, request) in enumerate(self._templates[thread])
        ]

    def _send(self, client, kind: str, request: Dict[str, Any], result: PassResult) -> None:
        kernel, spec = request.get("kernel"), request["spec"]
        if kind == "compile":
            row = client.compile(kernel, spec)
            if row["configuration"]["sha256"] != self.images[(kernel, spec)]:
                result.fail(f"compile {kernel}: configuration image changed")
        elif kind == "evaluate":
            row = client.evaluate(kernel, spec)
            if row["ii"] != self.evaluated[(kernel, spec)]:
                result.fail(f"evaluate {kernel}: II changed")
        elif kind == "simulate":
            sim = request["sim"]
            row = client.simulate(kernel, spec, sim=sim)
            if row.get("matches_reference") is not True:
                result.fail(f"simulate {kernel} [{sim.engine}]: no reference match")
            timing = (row["total_cycles"], row["measured_ii"], row["latency_cycles"])
            with self._timings_lock:
                expected = self._timings.setdefault((kernel, spec, sim.num_blocks), timing)
            if timing != expected:
                result.fail(f"simulate {kernel} [{sim.engine}]: timing differs across engines")
        else:
            row = client.compile(source=request["source"], overlay=spec, allow_schedule_only=True)
            if row.get("kernel") is None:
                result.fail("source compile: malformed reply")

    def run_pass(self, index: int, tracer) -> PassResult:
        from repro.service import ServiceError

        lists = [self._requests(index, thread) for thread in range(self.nproc)]
        parts = [PassResult() for _ in range(self.nproc)]
        barrier = threading.Barrier(self.nproc + 1)

        def drive(thread: int) -> None:
            client, part = self.clients[thread], parts[thread]
            barrier.wait()
            with tracer.span("run.client"):
                for kind, request in lists[thread]:
                    part.attempted += 1
                    with tracer.span("op.request", op=True, tag=kind):
                        start = time.perf_counter()
                        part.starts.append(start)
                        try:
                            self._send(client, kind, request, part)
                        except ServiceError as error:
                            part.fail(f"{kind}: {error.code}: {error}")
                        except Exception as error:  # noqa: BLE001 - counted, reported
                            part.fail(f"{kind}: {type(error).__name__}: {error}")
                        part.latencies.append(time.perf_counter() - start)
                    self.speed.maybe_sample()

        workers = [threading.Thread(target=drive, args=(t,)) for t in range(self.nproc)]
        for worker in workers:
            worker.start()
        self.speed.sample(5)
        barrier.wait()
        started = time.perf_counter()
        for worker in workers:
            worker.join()
        result = PassResult(start=started, wall_s=time.perf_counter() - started)
        self.speed.sample(5)
        for part in parts:
            result.attempted += part.attempted
            result.failed += part.failed
            result.failures += part.failures
            result.latencies += part.latencies
            result.starts += part.starts
        result.work = len(result.latencies)
        result.ii_mean = self.ii_mean
        kinds = [kind for requests in lists for kind, _ in requests]
        result.counts = {f"requests.{kind}": kinds.count(kind) for kind in sorted(set(kinds))}
        return result

    def cache_counters(self) -> Dict[str, int]:
        return _delta(self.service.cache.stats.as_dict(), {})

    def close(self) -> None:
        # Close every connection before stopping the server: stopping with
        # connections open cancels their handlers mid-read.
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self._await_disconnects()
            self.server.stop()
            self.service.close()
            self.server = None

    def _await_disconnects(self, timeout: float = 10.0) -> None:
        """Wait until the server has finished every closed connection.

        ``BackgroundServer.stop()`` cancels whatever connection handler is
        still running, and a handler cancelled inside ``wait_closed`` prints
        an asyncio ``CancelledError`` traceback even when every client has
        already closed (see README.md, "Known defect").
        """
        loop = self.server._loop

        async def handlers() -> int:
            return len(asyncio.all_tasks() - {asyncio.current_task()})

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if asyncio.run_coroutine_threadsafe(handlers(), loop).result(timeout) == 0:
                return
            time.sleep(0.005)


WORKLOADS = {cls.name: cls for cls in (CompileCold, SimLong, ServiceMix)}
