"""Diff two benchmark records layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 25 --trace 1 --out before.json
    # ... change the program ...
    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 25 --trace 1 --out after.json
    python3 perfbench/compare.py before.json after.json

Prints, for two traced records, each layer's self time per pass, call
counts and the counters and ratios of ``per_layer`` (every ratio next to
its base), sorted so the layers that moved most come first, plus each
run's tracing overhead.  For untraced records it diffs the end-to-end
metrics.  Records of different workloads or seeds are refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

#: Ratio metric -> the metric holding its base.
RATIO_BASES = {
    "frontend.hit_ratio": "frontend.lookups",
    "engine.cache.hit_ratio": "engine.cache.lookups",
    "engine.ff_skip_ratio": "engine.cycles_simulated",
    "engine.host_ns_per_cycle": "engine.cycles_simulated",
}


def _pct(before: float, after: float) -> str:
    if not before:
        # Both 0: the workload never reaches this layer, or never hit the
        # event counted (README.md, "Zeros in the per-layer set").
        return "n/a" if after else "both 0"
    return f"{100.0 * (after - before) / before:+.1f}%"


def _layers_per_pass(record) -> Dict[str, Dict[str, float]]:
    passes = record["passes"]
    return {
        name: {"calls": row["calls"] / passes, "self_s": row["self_s"] / passes}
        for name, row in record["layers"].items()
        if "[" not in name
    }


def compare(before, after) -> int:
    a, b = before["provenance"], after["provenance"]
    for key in ("workload", "seed", "traced"):
        if a[key] != b[key]:
            print(f"error: records differ in {key}: {a[key]!r} vs {b[key]!r}", file=sys.stderr)
            return 2
    print(f"workload {a['workload']}, seed {a['seed']}, traced {a['traced']}")
    for key in ("git_rev", "python", "numpy", "nproc"):
        note = "" if a[key] == b[key] else "   <-- differs"
        print(f"  {key:8s} {a[key]!s:42s} -> {b[key]}{note}")
    print(f"  errors   {before['failed']}/{before['attempted']} -> "
          f"{after['failed']}/{after['attempted']}")
    if before.get("digest") != after.get("digest"):
        print("  outputs  digest DIFFERS (compiled images or pass outputs changed)")

    if not a["traced"]:
        print("\nend-to-end")
        for name, value in before["end_to_end"].items():
            new = after["end_to_end"][name]
            print(f"  {name:28s} {value:14.6g} -> {new:14.6g}  {_pct(value, new)}")
        return 0

    la, lb = _layers_per_pass(before), _layers_per_pass(after)
    names = sorted(
        set(la) | set(lb),
        key=lambda n: -abs(lb.get(n, {}).get("self_s", 0) - la.get(n, {}).get("self_s", 0)),
    )
    print("\nself time per pass (s), largest change first")
    print(f"  {'layer':26s} {'before':>11s} {'after':>11s} {'delta':>11s} {'':>8s}"
          f" {'calls':>17s}")
    zero = {"calls": 0.0, "self_s": 0.0}
    for name in names:
        ra, rb = la.get(name, zero), lb.get(name, zero)
        print(
            f"  {name:26s} {ra['self_s']:11.5f} {rb['self_s']:11.5f} "
            f"{rb['self_s'] - ra['self_s']:+11.5f} {_pct(ra['self_s'], rb['self_s']):>8s}"
            f" {ra['calls']:8.1f}->{rb['calls']:<8.1f}"
        )

    pa, pb = before["per_layer"], after["per_layer"]
    print("\ncounters and ratios per pass")
    for name in sorted(pa):
        if name.endswith("_s") or name.startswith("trace."):
            continue
        line = f"  {name:32s} {pa[name]:14.6g} -> {pb.get(name, 0):14.6g}  {_pct(pa[name], pb.get(name, 0))}"
        base = RATIO_BASES.get(name)
        if base is not None:
            line += f"   (base {base}: {pa[base]:.6g} -> {pb.get(base, 0):.6g})"
        print(line)

    print("\ntracing overhead per pass")
    for label, record in (("before", pa), ("after", pb)):
        print(
            f"  {label:6s} traced {record['trace.wall_s']:.4f} s, untraced "
            f"{record['trace.untraced_wall_s']:.4f} s, overhead {record['trace.overhead_s']:+.4f} s"
            f" ({_pct(record['trace.untraced_wall_s'], record['trace.wall_s'])}),"
            f" unattributed {record['unattributed_s']:.4f} s"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", help="record written by run.py --out")
    parser.add_argument("after", help="record written by run.py --out")
    args = parser.parse_args(argv)
    with open(args.before) as handle:
        before = json.load(handle)
    with open(args.after) as handle:
        after = json.load(handle)
    return compare(before, after)


if __name__ == "__main__":
    sys.exit(main())
