"""Guard for the names the benchmark harness (``perfbench/``) relies on.

``perfbench/spans.py`` patches library entry points by name and the
workloads call a few of them directly, so deleting or renaming one breaks
the benchmark only when it runs (a ~13 s smoke run).  These checks fail in
tier-1 instead.
"""

import importlib.util
import os

from repro.engine import batchsim, fastsim
from repro.engine.cache import ScheduleCache
from repro.specs import OverlaySpec, SimSpec, SweepSpec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    path = os.path.join(REPO_ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_instruments_and_restores_every_layer():
    spans = _load_spans()
    originals = {
        "fast": fastsim.FastSimulator.__dict__["run"],
        "batched": batchsim.BatchSimulator.__dict__["run"],
        "plan": batchsim.BatchPlan.__dict__["__init__"],
        "plane": batchsim.VectorBlockEvaluator.__dict__["evaluate"],
    }
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        assert fastsim.FastSimulator.__dict__["run"] is not originals["fast"]
        assert batchsim.BatchSimulator.__dict__["run"] is not originals["batched"]
    finally:
        tracer.restore()
    assert fastsim.FastSimulator.__dict__["run"] is originals["fast"]
    assert batchsim.BatchSimulator.__dict__["run"] is originals["batched"]
    assert batchsim.BatchPlan.__dict__["__init__"] is originals["plan"]
    assert batchsim.VectorBlockEvaluator.__dict__["evaluate"] is originals["plane"]


def test_batched_spelling_survives_spec_construction():
    spec = SweepSpec(
        kernels=("gradient",),
        overlays=(OverlaySpec("v1"),),
        sim=SimSpec(engine="batched"),
    )
    assert spec.sim.engine == "batched"


def test_cache_keeps_get_batch_plan():
    assert callable(getattr(ScheduleCache, "get_batch_plan", None))
