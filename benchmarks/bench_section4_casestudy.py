"""Reproduces the Section III/IV running example numbers for 'gradient'.

Paper claims covered here:

* the TM overlay maps gradient onto 4 FUs with II 11 ([14]), reduced to 6 on
  V1 and 3 on V2 (a spatial implementation would need 11 FUs at II 1);
* the V1 overlay reaches 0.59 GOPS at a latency of 86.8 ns, V2 1.11 GOPS at
  92.4 ns;
* all of this is verified functionally with the cycle-accurate simulator.
"""

import pytest

from repro.api import default_toolchain
from repro.baseline.spatial import evaluate_spatial
from repro.kernels import get_kernel
from repro.metrics.tables import format_table
from repro.specs import OverlaySpec, SimSpec


def _case_study():
    gradient = get_kernel("gradient")
    rows = []
    results = {}
    for label in ("baseline", "v1", "v2"):
        # Analytic metrics (the paper's reporting) ...
        result = default_toolchain().evaluate(gradient, OverlaySpec(label))
        # ... plus an independent functional/timing verification in the simulator.
        verified = default_toolchain().evaluate(
            gradient, OverlaySpec(label), sim=SimSpec(num_blocks=12)
        )
        result.reference_match = verified.reference_match
        result.measured_ii = verified.measured_ii
        results[label] = result
        rows.append(
            [
                label,
                result.overlay_depth,
                result.ii,
                round(result.throughput_gops, 2),
                round(result.latency_ns, 1),
                result.reference_match,
            ]
        )
    spatial = evaluate_spatial(gradient)
    rows.append(
        ["spatial", spatial.num_fus, spatial.ii, round(spatial.throughput_gops, 2),
         round(spatial.latency_ns, 1), "-"]
    )
    table = format_table(
        ["overlay", "FUs", "II", "GOPS", "latency_ns", "verified"],
        rows,
        title="Section III/IV case study: the 'gradient' kernel",
    )
    return results, spatial, table


def test_section4_gradient_case_study(benchmark, save_result):
    results, spatial, table = benchmark(_case_study)
    save_result("section4_gradient_casestudy", table)

    assert results["baseline"].ii == pytest.approx(11)
    assert results["v1"].ii == pytest.approx(6)
    assert results["v2"].ii == pytest.approx(3)

    # Paper: 0.59 GOPS / 86.8 ns on V1, 1.11 GOPS / 92.4 ns on V2.
    assert results["v1"].throughput_gops == pytest.approx(0.59, abs=0.01)
    assert results["v1"].latency_ns == pytest.approx(86.8, rel=0.02)
    assert results["v2"].throughput_gops == pytest.approx(1.11, rel=0.08)

    # Spatial comparison from Section III: 11 FUs at II 1 versus 4 FUs here.
    assert spatial.num_fus == 11
    assert results["v1"].overlay_depth == 4

    # Functional verification through the cycle-accurate simulator.
    assert all(r.reference_match for r in results.values())
