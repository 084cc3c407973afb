"""Memoised frontend artefacts: ASTs and lowered DFGs.

This is the frontend half of the end-to-end compile cache (the backend half —
schedules, programs, configuration images — lives in
:mod:`repro.engine.cache`).  Both layers are keyed by the source content
hash of :func:`repro.frontend.lexer.source_hash`:

=============  =======================================  ==================
layer          key                                      stored value
=============  =======================================  ==================
AST            source hash                              :class:`KernelAST`
lowered DFG    (source hash, name, run_optimizer)       :class:`DFG`
=============  =======================================  ==================

ASTs are immutable and shared by reference; DFGs are mutable, so
:meth:`FrontendCache.dfg` hands out a fresh :meth:`~repro.dfg.graph.DFG.copy`
per call.  Each layer is a bounded LRU guarded by one lock, so sweep workers
and multi-threaded callers can share the process-wide default instance.

Invalidation is purely content-driven: there is nothing to invalidate
explicitly, because *any* source edit changes the hash and naturally misses
every layer.  Repeating the old source later (e.g. an undo) hits again as
long as the entry has not been evicted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..dfg.graph import DFG
from .cparser import lower_ast, parse_ast
from .lexer import source_hash
from .syntax import KernelAST


@dataclass
class FrontendCacheStats:
    """Hit/miss counters per frontend layer."""

    ast_hits: int = 0
    ast_misses: int = 0
    dfg_hits: int = 0
    dfg_misses: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups across both layers."""
        return self.ast_hits + self.ast_misses + self.dfg_hits + self.dfg_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        lookups = self.lookups
        hits = self.ast_hits + self.dfg_hits
        return hits / lookups if lookups else 0.0

    def summary(self) -> str:
        """One-line hits/lookups rendering (the CLI ``cache --stats`` row)."""
        return (
            f"ASTs {self.ast_hits}/{self.ast_hits + self.ast_misses} hits, "
            f"DFGs {self.dfg_hits}/{self.dfg_hits + self.dfg_misses} hits"
        )


class FrontendCache:
    """Bounded LRU cache over the staged mini-C frontend.

    Parameters
    ----------
    capacity:
        Maximum entries *per layer*.  The default comfortably holds every
        kernel of the benchmark library plus user kernels; sweeps touch a
        handful of distinct sources, so evictions are effectively never hit
        in practice.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("frontend cache capacity must be at least 1")
        self.capacity = capacity
        self.stats = FrontendCacheStats()
        self._asts: "OrderedDict[str, KernelAST]" = OrderedDict()
        self._dfgs: "OrderedDict[Tuple[str, Optional[str], bool], DFG]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._asts) + len(self._dfgs)

    def clear(self) -> None:
        """Drop every cached artefact and reset the statistics."""
        with self._lock:
            self._asts.clear()
            self._dfgs.clear()
            self.stats = FrontendCacheStats()

    @staticmethod
    def _trim(entries: OrderedDict, capacity: int) -> None:
        while len(entries) > capacity:
            entries.popitem(last=False)

    # ------------------------------------------------------------------
    # layers
    # ------------------------------------------------------------------
    def ast(self, source: str, key: Optional[str] = None) -> KernelAST:
        """Parsed AST of ``source`` (parsing at most once per content hash)."""
        key = key or source_hash(source)
        with self._lock:
            cached = self._asts.get(key)
            if cached is not None:
                self._asts.move_to_end(key)
                self.stats.ast_hits += 1
                return cached
            self.stats.ast_misses += 1
        ast = parse_ast(source)
        with self._lock:
            self._asts[key] = ast
            self._trim(self._asts, self.capacity)
        return ast

    def dfg(
        self,
        source: str,
        name: Optional[str] = None,
        run_optimizer: bool = True,
    ) -> DFG:
        """Lowered DFG of ``source`` — a fresh copy of the cached graph.

        The cached graph is keyed on ``(source hash, name, run_optimizer)``
        since both arguments change the lowered result; semantic errors
        (raised during lowering) are never cached and re-raise on each call.
        """
        key = source_hash(source)
        dfg_key = (key, name, run_optimizer)
        with self._lock:
            cached = self._dfgs.get(dfg_key)
            if cached is not None:
                self._dfgs.move_to_end(dfg_key)
                self.stats.dfg_hits += 1
            else:
                self.stats.dfg_misses += 1
        if cached is not None:
            # Copy outside the lock: the stored graph is never mutated, so
            # concurrent copies are safe and don't serialise other lookups.
            return cached.copy()
        dfg = lower_ast(self.ast(source, key=key), name=name, run_optimizer=run_optimizer)
        with self._lock:
            self._dfgs[dfg_key] = dfg
            self._trim(self._dfgs, self.capacity)
        return dfg.copy()


_DEFAULT_CACHE: Optional[FrontendCache] = None
_DEFAULT_LOCK = threading.Lock()


def default_frontend_cache() -> FrontendCache:
    """The process-wide frontend cache shared by every ``parse_c_kernel``."""
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = FrontendCache()
        return _DEFAULT_CACHE
