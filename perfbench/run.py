"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer patched (the
one wrapper in place, in both modes, is sim-long's digest of each sweep
point's simulate call, which its engine check compares).  ``--trace 1``
first runs one untraced pass, then patches every layer boundary (see
``spans.py``) and reports the per-layer metrics of the traced passes, per
pass, plus the tracing overhead.  ``--out FILE`` also writes the
full record (provenance, metrics, layer table) for ``compare.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failure to set
up (for instance a checkout without ``src/repro``) exits non-zero without
printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seed documented as the default, and the held-out seed for re-checking claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: Span names whose self time is the layer's time (reported as ``<name>_s``).
LAYER_SPANS = (
    "api.compile", "api.evaluate", "api.simulate", "api.sweep",
    "dfg.fingerprint", "frontend.lower",
    "schedule.linear", "schedule.clustered", "schedule.modulo", "schedule.alap",
    "schedule.asap",
    "program.codegen", "program.binary", "engine.warmup_bound",
    "verify.dfg", "verify.schedule", "verify.regalloc", "verify.binary", "verify.spec",
    "engine.plan_build", "engine.fast.run", "engine.batched.run", "engine.value_plane",
    "kernels.inputs", "kernels.reference",
    "engine.sweep.point", "engine.store.get", "engine.store.put",
    "metrics.analytic",
    "service.handle", "service.queue_wait", "service.wire",
)
STRATEGIES = ("linear", "clustered", "modulo", "alap")
SERVICE_OPS = ("compile", "evaluate", "simulate")


def _percentile(samples: List[float], q: int) -> float:
    """Exact sample percentile (inclusive interpolation between order stats)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _git_rev(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, traced: bool, nproc: int, cpu: int) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "git_rev": _git_rev(ROOT),
    }


def end_to_end(workload, setups, passes, scale) -> Dict[str, float]:
    """The end-to-end metrics over a run's measured passes.

    ``scale(start, seconds)`` maps a measured time to the reported one (the
    host-speed scaling of ``hostspeed.py``, or the identity for raw times).
    ``setups`` holds the (start, seconds) of every set-up.
    """
    samples = [scale(*op) for p in passes for op in zip(p.starts, p.latencies)]
    if workload.rate_over_wall:
        busy = sum(scale(p.start, p.wall_s) for p in passes)
    else:
        busy = sum(samples)
    return {
        "setup_s": statistics.median(scale(*setup) for setup in setups),
        "throughput_per_s": sum(p.work for p in passes) / busy,
        "latency_p50_ms": 1e3 * _percentile(samples, 50),
        "latency_tail_ms": 1e3 * _percentile(samples, workload.tail_percentile),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ii_mean": passes[0].ii_mean,
    }


def per_layer(
    table, counters, workload, passes, untraced, setup_table, resume_rate
) -> Dict[str, float]:
    """Per-layer metrics of the traced passes, normalised per pass."""
    n = len(passes)
    speed = workload.speed

    def row(name):
        return table.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "op_s": 0.0})

    metrics: Dict[str, float] = {f"{name}_s": row(name)["self_s"] / n for name in LAYER_SPANS}
    for op in SERVICE_OPS:
        metrics[f"service.{op}_s"] = row(f"service.handle[{op}]")["total_s"] / n
    metrics["schedule.calls"] = sum(row(f"schedule.{s}")["calls"] for s in STRATEGIES) / n
    metrics["dfg.fingerprint_calls"] = row("dfg.fingerprint")["calls"] / n
    for name in ("engine.vector_fallbacks", "engine.cycles_simulated",
                 "engine.cycles_skipped", "engine.store.hits"):
        metrics[name] = counters.get(name, 0) / n
    simulated = counters.get("engine.cycles_simulated", 0)
    metrics["engine.ff_skip_ratio"] = (
        counters.get("engine.cycles_skipped", 0) / simulated if simulated else 0.0
    )
    engine_ns = 1e9 * (row("engine.fast.run")["total_s"] + row("engine.batched.run")["total_s"])
    metrics["engine.host_ns_per_cycle"] = engine_ns / simulated if simulated else 0.0
    metrics["compile.infeasible"] = passes[0].counts.get("compile.infeasible", 0)

    cache = workload.cache_stats()
    lookups = cache.get("lookups", 0)
    metrics["engine.cache.lookups"] = lookups / n
    metrics["engine.cache.misses"] = cache.get("misses", 0) / n
    metrics["engine.cache.coalesced"] = cache.get("coalesced", 0) / n
    metrics["engine.cache.hit_ratio"] = (lookups - cache.get("misses", 0)) / lookups if lookups else 0.0
    front = workload.frontend_delta()
    front_lookups = front["dfg_hits"] + front["dfg_misses"]
    metrics["frontend.lookups"] = front_lookups / n
    metrics["frontend.hit_ratio"] = front["dfg_hits"] / front_lookups if front_lookups else 0.0

    metrics["engine.store.resume_points_per_s"] = resume_rate

    # Harness spans: run.* per pass or client thread (the top level), op.*
    # per artifact, sweep or request.  Their self time is unattributed.
    rows = [(name, r) for name, r in table.items() if "[" not in name]
    harness = sum(r["self_s"] for name, r in rows if name.startswith(("run.", "op.")))
    metrics["unattributed_s"] = harness / n
    metrics["trace.self_time_s"] = sum(r["self_s"] for _, r in rows) / n
    metrics["trace.span_time_s"] = sum(r["total_s"] for name, r in rows if name.startswith("run.")) / n
    metrics["trace.wall_s"] = sum(speed.scaled(p.start, p.wall_s) for p in passes) / n
    metrics["trace.untraced_wall_s"] = speed.scaled(untraced.start, untraced.wall_s)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.spans"] = sum(r["calls"] for _, r in rows) / n
    metrics["setup.engine.plan_build_s"] = setup_table.get("engine.plan_build", {}).get("self_s", 0.0)
    metrics["setup.schedule_s"] = sum(
        setup_table.get(f"schedule.{s}", {}).get("self_s", 0.0) for s in STRATEGIES
    )
    return metrics


def resume_points_per_s(passes, scale) -> float:
    """Rows served back from the store per second (0 when none were)."""
    seconds = sum(scale(*interval) for p in passes for interval in p.resume_intervals)
    return sum(p.resumed for p in passes) / seconds if seconds else 0.0


def run(args, nproc: int, cpu: int) -> Dict[str, object]:
    import spans
    from hostspeed import PROBE_REFERENCE_S
    from workloads import WORKLOADS

    scratch = tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".perfbench_tmp")
    workload = WORKLOADS[args.workload](args.seed, args.size, scratch, nproc)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    try:
        setups = []
        setup_table: Dict[str, Dict[str, float]] = {}
        reps = 1 if args.size == "tiny" else workload.setup_reps
        for rep in range(reps):
            last = rep == reps - 1
            if args.trace and last:
                spans.instrument(tracer)
            workload.speed.sample(5)
            started = time.perf_counter()
            workload.setup()
            setups.append((started, time.perf_counter() - started))
            workload.speed.sample(5)
            if args.trace and last:
                tracer.restore()
                setup_table = spans.layer_table(tracer.spans, workload.speed.factor_at)
                tracer.spans.clear()
                tracer.counters.clear()
        index = 0
        untraced = None
        if args.trace:
            untraced = workload.run_pass(index, spans.NullTracer())
            index += 1
            workload.mark_timed_phase()
            spans.instrument(tracer)
        else:
            workload.mark_timed_phase()
        passes = []
        started = time.perf_counter()
        try:
            while not passes or time.perf_counter() - started < args.seconds:
                passes.append(workload.run_pass(index, tracer))
                index += 1
        finally:
            tracer.restore()
        checked = passes if untraced is None else [untraced] + passes
        attempted = sum(p.attempted for p in checked)
        failed = sum(p.failed for p in checked)
        failures = [m for p in checked for m in p.failures][:20]
        for name in ("digest", "ii_mean", "counts"):
            if len({json.dumps(getattr(p, name), sort_keys=True) for p in checked}) > 1:
                failed += 1
                failures.append(f"{name} differs between passes of one run")
        e2e = end_to_end(workload, setups, passes, workload.speed.scaled)
        raw = end_to_end(workload, setups, passes, lambda start, seconds: seconds)
        table = spans.layer_table(tracer.spans, workload.speed.factor_at)
        resume_rate = resume_points_per_s(passes, workload.speed.scaled)
        layers = (
            per_layer(table, tracer.counters, workload, passes, untraced, setup_table, resume_rate)
            if args.trace
            else {}
        )
        return {
            "provenance": provenance(args.workload, args.seed, bool(args.trace), nproc, cpu),
            "passes": len(passes),
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "error_rate": failed / attempted if attempted else 1.0,
            "end_to_end": e2e,
            "end_to_end_raw": raw,
            "probe_factor_median": statistics.median(
                PROBE_REFERENCE_S / d for d in workload.speed.durations
            ),
            "per_layer": layers,
            "counts": passes[0].counts,
            "digest": passes[0].digest,
            "resume_points_per_s": resume_rate,
            "latency_samples": sum(len(p.latencies) for p in passes),
            "layers": table,
            "setup_layers": setup_table,
        }
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="also write the full record to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    # Pin the whole run, and every thread it starts, to one CPU.  On a shared
    # 2-vCPU VM the cores slow down independently, and interpreter-lock
    # handoffs between threads on different cores stall for milliseconds:
    # unpinned, ten service-mix runs spread over 25% in rps; pinned, about
    # 3%.  The probe of hostspeed.py then also runs on the core it corrects for.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # The compile cache's disk layer would make a cold pass warm.
    os.environ.pop("REPRO_CACHE_DIR", None)
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"available: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run(args, nproc=len(cpus), cpu=cpus[0])

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in chosen}

    for key, value in record["provenance"].items():
        print(f"# {key}: {value}")
    print(f"# passes: {record['passes']}, latency samples: {record['latency_samples']}")
    print(f"# error_rate: {record['error_rate']:.6f} ({record['failed']}/{record['attempted']})")
    for message in record["failures"]:
        print(f"# failure: {message}")
    if record["resume_points_per_s"]:
        print(f"# resume_points_per_s: {record['resume_points_per_s']:.1f} 1/s")
    for name, value in sorted(record["counts"].items()):
        print(f"# {name}: {value}")
    if not args.trace:
        print(f"# host speed factor (median): {record['probe_factor_median']:.4f}; raw: "
              + ", ".join(f"{k}={v:.6g}" for k, v in record["end_to_end_raw"].items()))
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    if args.trace:
        print(f"# tracing overhead: {record['per_layer']['trace.overhead_s']:.4f} s per pass "
              f"(traced {record['per_layer']['trace.wall_s']:.4f} s, "
              f"untraced {record['per_layer']['trace.untraced_wall_s']:.4f} s)")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
