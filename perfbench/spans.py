"""Out-of-tree span tracer for the per-layer benchmark run.

Nothing under ``src/`` knows about this module.  :func:`instrument` patches
the public functions of each ``repro`` layer *where their callers look the
name up* (``repro.engine.cache.schedule_kernel``, ``repro.api.dfg_fingerprint``,
class methods such as ``FastSimulator.run``) and re-registers the verify
passes through ``register_pass(..., replace=True)``.  Every call then
records one span::

    (span id, name, tag, start ns, end ns, parent span id, op id)

Parents come from a context variable, so nesting is right per thread and
per asyncio task.  Two hops cross threads and are linked explicitly: the
client's round trip hands its span to the server's ``handle_async`` by
request id, and ``handle_async`` hands its span to ``handle`` (which runs on
the service's thread pool) by payload identity.

Spans stay in memory; :func:`layer_table` reduces them once the run is
over.  A layer's self time is its spans' durations minus the part of each
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span id, op id) of the innermost open span of this thread / task.
_CURRENT: "contextvars.ContextVar[Optional[Tuple[int, int]]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)

Span = Tuple[int, str, Optional[str], int, int, int, int]


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._links: Dict[Any, Tuple[int, int]] = {}
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _open(self, parent: Optional[Tuple[int, int]], op: bool):
        span_id = next(self._ids)
        parent_id, op_id = parent if parent is not None else (0, 0)
        if op:
            op_id = span_id
        return span_id, parent_id, op_id, _CURRENT.set((span_id, op_id))

    def _close(self, name, tag, start, span_id, parent_id, op_id, token) -> None:
        end = time.perf_counter_ns()
        _CURRENT.reset(token)
        self.spans.append((span_id, name, tag, start, end, parent_id, op_id))

    def span(self, name: str, *, op: bool = False, tag: Optional[str] = None):
        """Context manager for a harness-level span (``op=True`` starts an op)."""
        return _SpanContext(self, name, op, tag)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def traced(
        self,
        func: Callable[..., Any],
        name: Callable[..., str] | str,
        *,
        tag: Optional[Callable[..., Optional[str]]] = None,
        after: Optional[Callable[..., None]] = None,
        link_from: Optional[Callable[..., Any]] = None,
        link_to: Optional[Callable[..., Any]] = None,
    ) -> Callable[..., Any]:
        """A span-recording wrapper around ``func``.

        ``name`` / ``tag`` may be callables of the call's arguments;
        ``after(result, *args, **kwargs)`` sees every successful return.
        ``link_to(*args, **kwargs)`` offers the new span, under that key, as
        parent to a span opened on another thread; ``link_from`` names the
        key whose offered span becomes this span's parent.
        """
        tracer = self

        def begin(args, kwargs):
            parent = _CURRENT.get()
            if link_from is not None:
                parent = tracer._links.pop(link_from(*args, **kwargs), parent)
            label = name(*args, **kwargs) if callable(name) else name
            label_tag = tag(*args, **kwargs) if tag is not None else None
            state = tracer._open(parent, False)
            if link_to is not None:
                tracer._links[link_to(*args, **kwargs)] = (state[0], state[2])
            return (label, label_tag) + state

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                label, label_tag, span_id, parent_id, op_id, token = begin(args, kwargs)
                start = time.perf_counter_ns()
                try:
                    result = await func(*args, **kwargs)
                finally:
                    tracer._close(label, label_tag, start, span_id, parent_id, op_id, token)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

        else:

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                label, label_tag, span_id, parent_id, op_id, token = begin(args, kwargs)
                start = time.perf_counter_ns()
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._close(label, label_tag, start, span_id, parent_id, op_id, token)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name, **options: Any) -> None:
        """Replace ``owner.attr`` (a module or class) with :meth:`traced`."""
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = owner.__dict__[attr]
        setattr(owner, attr, self.traced(getattr(owner, attr), name, **options))
        self._restore.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._restore:
            self._restore.pop()()


class _SpanContext:
    __slots__ = ("tracer", "name", "op", "tag", "state", "start")

    def __init__(self, tracer: Tracer, name: str, op: bool, tag: Optional[str]):
        self.tracer, self.name, self.op, self.tag = tracer, name, op, tag

    def __enter__(self) -> "_SpanContext":
        self.state = self.tracer._open(_CURRENT.get(), self.op)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        span_id, parent_id, op_id, token = self.state
        self.tracer._close(self.name, self.tag, self.start, span_id, parent_id, op_id, token)


class NullTracer:
    """The untraced run's stand-in: same harness calls, nothing recorded."""

    spans: List[Span] = []

    def span(self, name: str, *, op: bool = False, tag: Optional[str] = None):
        return contextlib.nullcontext()

    def restore(self) -> None:
        pass


# ---------------------------------------------------------------------------
# the layer map
# ---------------------------------------------------------------------------
def instrument(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are measured at."""
    import repro.api as api
    import repro.engine.batchsim as batchsim
    import repro.engine.fastsim as fastsim
    import repro.engine.store as store
    import repro.frontend.cache as frontend_cache
    import repro.kernels.reference as reference
    import repro.service.client as client
    import repro.service.server as server
    from repro.verify import engine as verify_engine

    # api: the session facade (op roots of compile-cold sit right above it)
    for method in ("compile", "evaluate", "simulate", "sweep"):
        tracer.wrap(api.Toolchain, method, f"api.{method}")

    # dfg: content hashing, looked up by the session and the compile cache
    tracer.wrap(api, "dfg_fingerprint", "dfg.fingerprint")
    tracer.wrap("repro.engine.cache", "dfg_fingerprint", "dfg.fingerprint")

    # schedule: one span per strategy call; clustered's ASAP fallback nests
    tracer.wrap(
        "repro.engine.cache",
        "schedule_kernel",
        lambda dfg, overlay, scheduler="auto": f"schedule.{scheduler}",
    )
    tracer.wrap("repro.schedule.greedy", "schedule_linear", "schedule.asap")

    # program: register allocation + codegen, then the binary image
    tracer.wrap("repro.engine.cache", "generate_program", "program.codegen")
    tracer.wrap("repro.engine.cache", "build_configuration_image", "program.binary")
    tracer.wrap(fastsim, "steady_state_warmup_bound", "engine.warmup_bound")

    # verify: each registered pass, re-registered in place (order is kept)
    for name in verify_engine.pass_names():
        entry = verify_engine.get_pass(name)
        register = functools.partial(
            verify_engine.register_pass,
            name,
            family=entry.family,
            requires=entry.requires,
            replace=True,
        )
        register(tracer.traced(entry.func, f"verify.{name}"))
        tracer._restore.append(functools.partial(register, entry.func))

    # frontend: lowering through the content-hashed cache
    tracer.wrap(frontend_cache.FrontendCache, "dfg", "frontend.lower")

    # engine: plan build, the two simulators, the vector value plane
    def engine_work(result, simulator, *args, **kwargs):
        tracer.count("engine.cycles_simulated", int(result.total_cycles))
        tracer.count(
            "engine.cycles_skipped",
            sum(e["period"] * e["periods"] for e in simulator.fast_forward_events),
        )

    tracer.wrap(batchsim.BatchPlan, "__init__", "engine.plan_build")
    tracer.wrap(fastsim.FastSimulator, "run", "engine.fast.run", after=engine_work)
    tracer.wrap(batchsim.BatchSimulator, "run", "engine.batched.run", after=engine_work)

    def value_plane(result, *args, **kwargs):
        if result is None:
            tracer.count("engine.vector_fallbacks")

    tracer.wrap(
        batchsim.VectorBlockEvaluator, "evaluate", "engine.value_plane", after=value_plane
    )

    # kernels: input stream generation and the golden reference
    tracer.wrap(reference, "random_input_blocks", "kernels.inputs")
    tracer.wrap(reference, "reference_outputs", "kernels.reference")

    # sweep runner and result store
    tracer.wrap("repro.engine.sweep", "run_point", "engine.sweep.point")

    def store_hit(result, *args, **kwargs):
        if result is not None:
            tracer.count("engine.store.hits")

    tracer.wrap(store.ResultStore, "get", "engine.store.get", after=store_hit)
    tracer.wrap(store.ResultStore, "put", "engine.store.put")

    # metrics: the analytic model behind Toolchain.evaluate
    tracer.wrap(api, "analytic_performance", "metrics.analytic")

    # service: client round trip -> event-loop hop -> thread-pool handle
    def request_key(self, payload):
        return ("request", payload.get("id") if isinstance(payload, dict) else None)

    def payload_key(self, payload):
        return ("payload", id(payload))

    tracer.wrap(client.ServiceClient, "_roundtrip", "service.wire", link_to=request_key)
    tracer.wrap(
        server.OverlayService,
        "handle_async",
        "service.queue_wait",
        link_from=request_key,
        link_to=payload_key,
    )
    tracer.wrap(
        server.OverlayService,
        "handle",
        "service.handle",
        tag=lambda self, payload: payload.get("op") if isinstance(payload, dict) else None,
        link_from=payload_key,
    )


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------
def _covered_ns(start: int, end: int, children: List[Tuple[int, int]]) -> int:
    """Length of the union of child intervals clipped to [start, end]."""
    covered = 0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return covered


def layer_table(
    spans: List[Span], factor_at: Callable[[float], float] = lambda instant: 1.0
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self seconds, inclusive seconds, op seconds.

    ``factor_at(instant)`` scales times (see ``hostspeed.py``; the default
    leaves them raw).  Every span takes the factor at the midpoint of its
    top-level ancestor, so self times still add up to the top-level span
    time.  ``op_s`` is the summed duration of the distinct ops (spans opened
    with ``op=True``) that contain at least one span of the layer, so a
    layer's ``self_s`` can never exceed it when nesting is sound.
    """
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    parent_of: Dict[int, int] = {}
    midpoint: Dict[int, float] = {}
    for span_id, _name, _tag, start, end, parent_id, _op in spans:
        parent_of[span_id] = parent_id
        midpoint[span_id] = (start + end) / 2e9
        if parent_id:
            children[parent_id].append((start, end))
    factors: Dict[int, float] = {}

    def factor(span_id: int) -> float:
        path = []
        while span_id not in factors and parent_of.get(span_id):
            path.append(span_id)
            span_id = parent_of[span_id]
        if span_id not in factors:
            factors[span_id] = factor_at(midpoint.get(span_id, 0.0)) / 1e9
        for seen in path:
            factors[seen] = factors[span_id]
        return factors[span_id]

    op_duration: Dict[int, float] = {}
    table: Dict[str, Dict[str, float]] = {}
    ops_of: Dict[str, set] = defaultdict(set)
    for span_id, name, tag, start, end, _parent, op_id in spans:
        scale = factor(span_id)
        duration = (end - start) * scale
        own = (end - start - _covered_ns(start, end, children.get(span_id, []))) * scale
        if span_id == op_id:
            op_duration[span_id] = duration
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += own
        if tag is not None:
            tagged = table.setdefault(f"{name}[{tag}]", {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            tagged["calls"] += 1
            tagged["total_s"] += duration
        if op_id:
            ops_of[name].add(op_id)
    for name, row in table.items():
        base = name.split("[", 1)[0]
        row["op_s"] = sum(op_duration.get(op, 0.0) for op in ops_of.get(base, ()))
    return table
