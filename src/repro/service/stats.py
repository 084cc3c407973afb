"""Service observability: request counters and latency histograms.

Every handled request is recorded per endpoint — count, error count, and a
log-scaled latency histogram cheap enough to sit on the hot path (one lock,
one bucket increment).  The ``stats`` endpoint serialises the snapshot
together with the compile-cache counters (hits/misses/coalesced, see
:class:`repro.engine.cache.CacheStats`), and ``repro-overlay stats`` renders
it from the shell.

Percentiles come from the histogram, so they are bucket-upper-bound
estimates (within one power-of-two of the true value) — the standard
trade-off for O(1) recording with bounded memory.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

#: Histogram bucket upper bounds in seconds: 64 us doubling up to ~67 s,
#: plus a catch-all.  21 buckets cover the whole compile/simulate range.
_BUCKET_BOUNDS_S = tuple(64e-6 * (2.0 ** i) for i in range(21))


class LatencyHistogram:
    """Fixed log2-bucket latency histogram (seconds in, milliseconds out)."""

    def __init__(self) -> None:
        self.counts = [0] * (len(_BUCKET_BOUNDS_S) + 1)
        self.total = 0
        self.sum_s = 0.0

    def record(self, seconds: float) -> None:
        for index, bound in enumerate(_BUCKET_BOUNDS_S):
            if seconds <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += 1
        self.sum_s += seconds

    def percentile_ms(self, fraction: float) -> Optional[float]:
        """Upper bound of the bucket holding the ``fraction`` quantile."""
        if not self.total:
            return None
        threshold = fraction * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= threshold and count:
                if index < len(_BUCKET_BOUNDS_S):
                    return _BUCKET_BOUNDS_S[index] * 1e3
                return _BUCKET_BOUNDS_S[-1] * 1e3  # catch-all: report the cap
        return _BUCKET_BOUNDS_S[-1] * 1e3

    def as_dict(self) -> Dict[str, Any]:
        mean_ms = (self.sum_s / self.total * 1e3) if self.total else None
        return {
            "count": self.total,
            "mean_ms": mean_ms,
            "p50_ms": self.percentile_ms(0.50),
            "p99_ms": self.percentile_ms(0.99),
        }


class EndpointStats:
    """Counters for one endpoint: requests, errors, latency."""

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.latency = LatencyHistogram()

    def record(self, seconds: float, ok: bool) -> None:
        self.requests += 1
        if not ok:
            self.errors += 1
        self.latency.record(seconds)

    def as_dict(self) -> Dict[str, Any]:
        row = {"requests": self.requests, "errors": self.errors}
        row.update(self.latency.as_dict())
        return row


class ServiceStats:
    """Thread-safe per-endpoint accounting for one service instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: Dict[str, EndpointStats] = {}
        self.coalesced_requests = 0

    def record(self, op: str, seconds: float, ok: bool) -> None:
        with self._lock:
            endpoint = self._endpoints.get(op)
            if endpoint is None:
                endpoint = self._endpoints[op] = EndpointStats()
            endpoint.record(seconds, ok)

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                op: endpoint.as_dict()
                for op, endpoint in sorted(self._endpoints.items())
            }


def render_stats(snapshot: Dict[str, Any]) -> str:
    """Human-readable view of a ``stats`` endpoint result (CLI default)."""
    lines: List[str] = []
    endpoints = snapshot.get("endpoints", {})
    lines.append("endpoints:")
    if not endpoints:
        lines.append("  (no requests handled yet)")
    fmt = "  {:<10s} {:>9s} {:>7s} {:>10s} {:>10s} {:>10s}"
    if endpoints:
        lines.append(fmt.format("op", "requests", "errors", "mean", "p50", "p99"))
    for op, row in endpoints.items():
        def _ms(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:.2f}ms"

        lines.append(
            fmt.format(
                op,
                str(row.get("requests", 0)),
                str(row.get("errors", 0)),
                _ms(row.get("mean_ms")),
                _ms(row.get("p50_ms")),
                _ms(row.get("p99_ms")),
            )
        )
    cache = snapshot.get("cache", {})
    if cache:
        lines.append("shared compile cache:")
        lines.append(
            "  entries {entries}/{capacity}, hits {hits}, misses {misses}, "
            "coalesced {coalesced}, hit rate {rate:.1f}%".format(
                entries=cache.get("entries", 0),
                capacity=cache.get("capacity", 0),
                hits=cache.get("hits", 0),
                misses=cache.get("misses", 0),
                coalesced=cache.get("coalesced", 0),
                rate=100.0 * cache.get("hit_rate", 0.0),
            )
        )
    tenants = snapshot.get("tenants", {})
    if tenants:
        lines.append("tenants:")
        for name, row in sorted(tenants.items()):
            mode = "isolated" if row.get("isolated") else "shared"
            lines.append(
                f"  {name}: {mode}, {row.get('requests', 0)} requests, "
                f"cache entries {row.get('cache', {}).get('entries', 0)}"
            )
    return "\n".join(lines)
