"""Comparison baselines.

* :mod:`repro.baseline.li2016` — the OLAF'16 overlay the paper compares
  against (its reference [14]): the same linear TM structure but with the
  original FU that serialises loads and execution.
* :mod:`repro.baseline.spatial` — a spatially-configured (fully unrolled)
  overlay with II = 1, the other end of the area/throughput trade-off space
  discussed in Sections I-II.
"""

from .li2016 import evaluate_baseline
from .spatial import SpatialOverlayEstimate, evaluate_spatial

__all__ = [
    "evaluate_baseline",
    "SpatialOverlayEstimate",
    "evaluate_spatial",
]
