"""Smoke check of the benchmark itself, at tiny size.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs every workload at ``--size tiny`` with tracing off and on, each in its
own process, and checks that:

* the last line has exactly the contract's keys, the run is correct, and
  every metric named in ``BENCHMARK.json`` prints with its unit;
* in the traced run, every layer's self time is at most the time of the ops
  it ran in, and the self times (layers plus ``unattributed_s``) add up to
  the traced span time;
* the seeded mini-C generator only emits sources that lower and compile;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check class, after printing them all.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args, cwd: Path, timeout: float = 600):
    command = [sys.executable, str(cwd / "perfbench" / "run.py")] + args
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def check_workload(spec, workload: str, trace: int, scratch: Path, problems) -> None:
    out = scratch / f"{workload}-{trace}.json"
    proc = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", "--out", str(out)],
        ROOT,
    )
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    if proc.stderr.strip():
        problems.append(f"{where}: wrote to stderr: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {proc.stdout[-1500:]}")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in named}
    printed = {name: entry.get("unit") for name, entry in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                        f"{sorted(set(printed) ^ set(expected))}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    if not trace:
        return
    record = json.loads(out.read_text())
    for name, row in record["layers"].items():
        if name.startswith(("run.", "op.")) or "[" in name:
            continue
        if row["self_s"] > row["op_s"] + 1e-9:
            problems.append(f"{where}: layer {name} self {row['self_s']:.6f}s > op {row['op_s']:.6f}s")
    layers = record["per_layer"]
    total, spans = layers["trace.self_time_s"], layers["trace.span_time_s"]
    if abs(total - spans) > 0.01 * spans:
        problems.append(f"{where}: self times {total:.6f}s do not add up to span time {spans:.6f}s")


def check_minic(problems, count: int = 300) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from repro.api import Toolchain
    from repro.engine.cache import ScheduleCache
    from repro.specs import OverlaySpec
    from workloads import random_minic_source

    toolchain = Toolchain(cache=ScheduleCache(capacity=2 * count))
    rng = random.Random(0)
    for index in range(count):
        source = random_minic_source(rng, f"smoke{index}")
        try:
            toolchain.compile(source=source, overlay=OverlaySpec("v1"), check=True)
        except Exception as error:  # noqa: BLE001 - reported
            problems.append(f"mini-C source {index} failed: {type(error).__name__}: {error}\n{source}")
            return


def check_bare_directory(scratch: Path, problems) -> None:
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "compile-cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
                bare, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".perfbench_tmp"))
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                check_workload(spec, workload, trace, scratch, problems)
                print(f"checked {workload} trace={trace}", flush=True)
        check_minic(problems)
        print("checked mini-C generator", flush=True)
        check_bare_directory(scratch, problems)
        print("checked bare directory", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
