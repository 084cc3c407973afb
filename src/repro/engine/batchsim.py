"""The value plane of the fast engine, and the ``batched`` engine spelling.

:class:`~repro.engine.fastsim.FastSimulator` simulates timing without
values and reconstructs the output stream afterwards.  This module holds the
fast path of that reconstruction: :class:`VectorBlockEvaluator` evaluates
the whole input stream at once on a numpy ``int64`` array with a block
axis, one vectorized expression per DFG node
(:data:`~repro.dfg.opcodes.OP_VECTOR_EXPRESSIONS`) followed by an exact
32-bit two's-complement wrap.  Inputs or constants outside the signed 32-bit
range (where ``int64`` intermediates could overflow) fall back to the scalar
evaluator, so results are bit-identical in every case.

numpy is an **optional** dependency (the ``[batch]`` extra) and only speeds
up the value plane: without it :meth:`VectorBlockEvaluator.evaluate` returns
``None`` and the fast engine uses the scalar evaluator, with identical
results.  See ``docs/engine.md`` ("Batched execution").

``engine="batched"`` names the same engine: :class:`BatchSimulator` is
:class:`~repro.engine.fastsim.FastSimulator` under its own class name, and
:class:`BatchPlan` / :func:`plan_for` hold the per-schedule evaluator.
"""

from __future__ import annotations

import importlib
import weakref
from typing import Any, Dict, List, Optional, Tuple

from ..dfg.opcodes import OP_VECTOR_EXPRESSIONS
from ..schedule.types import OverlaySchedule
from .fastsim import FastSimulator


def _import_numpy() -> Any:
    try:
        return importlib.import_module("numpy")
    except ImportError:  # pragma: no cover - exercised by the stub test
        return None


#: The numpy module, or ``None`` when the optional dependency is absent.
np: Any = _import_numpy()

_INT32_MIN = -(2 ** 31)
_INT32_MAX = 2 ** 31 - 1

#: Exact signed 32-bit two's-complement wrap of an ``int64`` expression.
_WRAP_TEMPLATE = "(({0} & 4294967295) ^ 2147483648) - 2147483648"


# ---------------------------------------------------------------------------
# vectorized value plane
# ---------------------------------------------------------------------------
class VectorBlockEvaluator:
    """Evaluate a DFG over a whole input stream with one expression per node.

    The scalar :class:`~repro.kernels.reference.BlockEvaluator` runs its
    generated plan once per block; this evaluator runs a generated plan once
    per *stream*, with every node value a numpy ``int64`` array over the
    block axis and an exact 32-bit wrap after every operation.  Exactness
    needs every operand in signed 32-bit range (then the worst ``int64``
    intermediate, a MULADD, is bounded by ``2**62 + 2**31``): constants are
    checked at build time, input arrays at evaluation time, and
    :meth:`evaluate` returns ``None`` whenever vectorized evaluation cannot
    be used (numpy absent, out-of-range values, unsupported opcode) so the
    caller can fall back to the scalar path.
    """

    def __init__(self, dfg: Any):
        self.dfg = dfg
        #: Output source node for every output port, in declaration order.
        self.output_sources = [node.operands[0] for node in dfg.outputs()]
        self._plan: Optional[Any] = None
        self.plan_source = self._build_source()
        if self.plan_source is not None and np is not None:
            namespace: Dict[str, Any] = {"np": np}
            exec(  # noqa: S102 - generated from the DFG, no external input
                compile(self.plan_source, f"<vplan:{dfg.name}>", "exec"), namespace
            )
            self._plan = namespace["_vplan"]

    def _build_source(self) -> Optional[str]:
        dfg = self.dfg
        lines = ["def _vplan(inputs):"]
        for index, node in enumerate(dfg.inputs()):
            lines.append(f"    v{node.node_id} = inputs[:, {index}]")
        for node_id in dfg.topological_order():
            node = dfg.node(node_id)
            if node.is_input or node.is_output:
                continue
            if node.is_const:
                value = int(node.value)
                if value < _INT32_MIN or value > _INT32_MAX:
                    return None  # int64 intermediates could overflow
                lines.append(f"    v{node_id} = {value}")
                continue
            template = OP_VECTOR_EXPRESSIONS.get(node.opcode)
            if template is None:
                return None
            expression = template.format(*[f"v{o}" for o in node.operands])
            lines.append(f"    v{node_id} = {expression}")
            lines.append(
                f"    v{node_id} = " + _WRAP_TEMPLATE.format(f"v{node_id}")
            )
        returned = ", ".join(f"v{source}" for source in self.output_sources)
        if len(self.output_sources) == 1:
            returned += ","
        lines.append(f"    return ({returned})")
        return "\n".join(lines)

    def evaluate(self, blocks: List[List[int]]) -> Optional[List[List[int]]]:
        """Output rows for a stream, or ``None`` to request the scalar path.

        When it returns rows they are plain Python ints, bit-identical to
        :func:`~repro.engine.fastsim._functional_outputs` (input/const
        output sources need a 32-bit wrap there; under this evaluator's
        range guard that wrap is the identity).
        """
        if self._plan is None or np is None or not self.output_sources:
            return None
        try:
            array = np.asarray(blocks, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            return None
        if array.ndim != 2 or array.size == 0:
            return None
        if int(array.min()) < _INT32_MIN or int(array.max()) > _INT32_MAX:
            return None
        outs = self._plan(array)
        num_blocks = array.shape[0]
        columns = [
            out if isinstance(out, np.ndarray)
            else np.full(num_blocks, int(out), dtype=np.int64)
            for out in outs
        ]
        rows: List[List[int]] = np.stack(columns, axis=1).tolist()
        return rows


class BatchPlan:
    """Per-schedule value-plane artifact: the vectorized output evaluator.

    Built lazily on the first simulate of a schedule (never at compile
    time) and memoised per schedule object by :func:`plan_for`.
    """

    __slots__ = ("vector_evaluator",)

    def __init__(self, schedule: OverlaySchedule):
        self.vector_evaluator = VectorBlockEvaluator(schedule.dfg)


#: id(schedule) -> (weakref, plan).  ``OverlaySchedule`` is an unhashable
#: (eq, non-frozen) dataclass, so a WeakKeyDictionary cannot hold it; the
#: weakref death callback evicts the entry instead, and the identity check
#: on hit guards against id reuse.  Entries are only ever replaced whole,
#: so concurrent builders at worst duplicate work (both plans are valid).
_PLAN_MEMO: Dict[int, Tuple[Any, BatchPlan]] = {}


def plan_for(schedule: OverlaySchedule) -> BatchPlan:
    """Memoised :class:`BatchPlan` for a live schedule object."""
    key = id(schedule)
    entry = _PLAN_MEMO.get(key)
    if entry is not None and entry[0]() is schedule:
        return entry[1]
    plan = BatchPlan(schedule)

    def _evict(_ref: Any, _key: int = key) -> None:
        _PLAN_MEMO.pop(_key, None)

    _PLAN_MEMO[key] = (weakref.ref(schedule, _evict), plan)
    return plan


# ---------------------------------------------------------------------------
# engine spelling
# ---------------------------------------------------------------------------
class BatchSimulator(FastSimulator):
    """``engine="batched"``: the fast engine under the historical name."""

    run = FastSimulator.run
