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


def test_sweep_keeps_the_names_perfbench_patches():
    # sim-long swaps simulate_schedule_with; the tracer wraps run_point.
    from repro.engine import sweep

    assert callable(getattr(sweep, "simulate_schedule_with", None))
    assert callable(getattr(sweep, "run_point", None))


def test_cache_keeps_the_pipeline_globals_the_tracer_patches():
    import repro.engine.cache as cache_module

    for name in ("dfg_fingerprint", "schedule_kernel", "generate_program", "build_configuration_image"):
        assert callable(getattr(cache_module, name, None)), name


def test_cache_stats_keep_the_counters_the_hit_ratio_needs():
    from repro.api import Toolchain

    toolchain = Toolchain(cache=ScheduleCache())
    toolchain.compile("gradient", OverlaySpec("v1"))
    toolchain.compile("gradient", OverlaySpec("v1"))
    stats = toolchain.cache_stats()
    for name in ("lookups", "misses", "coalesced"):
        value = stats[name]
        assert isinstance(value, int) and not isinstance(value, bool), name
    assert stats["lookups"] == 2 and stats["misses"] == 1


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_cold_compile_hashes_through_the_api_global(monkeypatch):
    # The dfg.fingerprint span wraps repro.api.dfg_fingerprint.
    import repro.api as api

    calls = _counting(monkeypatch, api, "dfg_fingerprint")
    api.Toolchain(cache=ScheduleCache()).compile("gradient", OverlaySpec("v1"))
    assert len(calls) >= 1


def test_cold_evaluate_runs_the_api_analytic_global_once_per_entry(monkeypatch):
    # The metrics.analytic span wraps repro.api.analytic_performance.
    import repro.api as api

    calls = _counting(monkeypatch, api, "analytic_performance")
    toolchain = api.Toolchain(cache=ScheduleCache())
    first = toolchain.compile("gradient", OverlaySpec("v1"))
    second = toolchain.compile("gradient", OverlaySpec("v3"))
    for handle in (first, second, first, second):
        toolchain.evaluate(handle)
    assert len(calls) == 2


def test_run_point_simulates_through_the_sweep_global(monkeypatch):
    # sim-long captures every point's result through this global.
    from repro.engine import sweep

    calls = _counting(monkeypatch, sweep, "simulate_schedule_with")
    point = sweep.SweepPoint("gradient", OverlaySpec("v1"), SimSpec(num_blocks=4))
    sweep.run_point(point, cache=ScheduleCache())
    assert len(calls) == 1
