"""Process-wide LRU cache for simulated layer results.

The cycle-accurate simulator is a pure function of the GEMM shape and
the hardware configuration: ``(m, k, n, dataflow, R, C, SRAM sizes,
word_bytes, loop_order, fault state)`` fully determine the
:class:`~repro.engine.results.LayerResult` and
:class:`~repro.memory.bandwidth.DramTraffic`.  Sweeps hit the same key
constantly — ResNet-50 repeats conv shapes, every scale-out layer
collapses to at most four distinct tile GEMMs, and pareto searches
revisit whole configurations — so memoizing the pair is a large win at
zero accuracy cost.

The cache is bounded in entries (LRU eviction), thread-safe (the
retry/timeout executor runs attempts on worker threads), disabled at a
flip of a switch, and observable: hits/misses/evictions are mirrored
into ``repro.obs.metrics`` (as ``perf.cache.*`` counters) whenever
metrics are enabled, and always available locally via
:meth:`SimulationCache.info`.

Cached results are keyed on everything the simulator reads; the fault
spec is part of the key so degraded configurations can never alias
healthy ones.  Layer names are *not* part of the key — a hit is
re-labelled for the requesting layer via ``dataclasses.replace``.

:func:`memoize` is the engine's one memo seam, and this LRU is the only
memo tier: results live as long as the process.  Nothing persists them
across processes, because recomputing a layer is cheaper than reading
a record of it back (``docs/performance.md``, "No persistent result
store").
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, Optional, Tuple

from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.hardware import HardwareConfig
    from repro.engine.results import LayerResult
    from repro.memory.bandwidth import DramTraffic

#: Default bound, in entries, not bytes.  An entry holds its layer's
#: per-fold sequences as fold runs, so its size is O(shape classes),
#: not O(folds): the 630 entries of every registered workload on
#: {8x8, 32x32, 128x128} x {OS, WS, IS} hold 0.94 MiB of them, the
#: largest 2.5 KiB (per-fold lists held 318 MiB, the largest 55 MiB).
DEFAULT_MAX_ENTRIES = 4096

CacheValue = Tuple["LayerResult", "DramTraffic"]


def simulation_key(
    config: "HardwareConfig",
    array_rows: int,
    array_cols: int,
    m: int,
    k: int,
    n: int,
    loop_order: str,
) -> Hashable:
    """The memoization key for one GEMM on one array configuration.

    ``array_rows`` / ``array_cols`` are the *effective* dimensions the
    engine was built with (dead PE rows/columns already subtracted);
    the fault spec is still included so fault-dependent behaviour can
    never alias a healthy configuration with the same effective shape.
    """
    fault = config.fault_map
    fault_spec = None if fault is None or fault.is_healthy else fault.to_spec()
    return (
        m,
        k,
        n,
        config.dataflow.value,
        array_rows,
        array_cols,
        config.ifmap_sram_kb,
        config.filter_sram_kb,
        config.ofmap_sram_kb,
        config.word_bytes,
        loop_order,
        fault_spec,
    )


class SimulationCache:
    """Bounded, thread-safe LRU map from simulation key to result pair."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, CacheValue]" = OrderedDict()
        self._enabled = True
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Switches
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        """Escape hatch: stop memoizing and drop all entries."""
        with self._lock:
            self._enabled = False
            self._entries.clear()

    def clear(self) -> None:
        """Drop all entries (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def reset(self) -> None:
        """Restore the pristine state: empty, enabled, zeroed counters."""
        with self._lock:
            self._entries.clear()
            self._enabled = True
            self._hits = self._misses = self._evictions = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[CacheValue]:
        """Return the cached pair for ``key``, or None; counts the probe."""
        if not self._enabled:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
        if metrics.enabled:
            metrics.counter("perf.cache.hits" if value is not None else "perf.cache.misses").add()
        return value

    def put(self, key: Hashable, value: CacheValue) -> None:
        """Insert ``key``; evicts least-recently-used entries past the bound."""
        if not self._enabled:
            return
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        if evicted and metrics.enabled:
            metrics.counter("perf.cache.evictions").add(evicted)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> dict:
        """Local counter snapshot (independent of ``repro.obs.metrics``)."""
        with self._lock:
            probes = self._hits + self._misses
            return {
                "enabled": self._enabled,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": self._hits / probes if probes else 0.0,
            }


#: The process-wide cache instance the simulators consult.
cache = SimulationCache()


def memoize(key: Hashable, compute: Callable[[], CacheValue]) -> Tuple[CacheValue, bool]:
    """The pair for ``key`` and whether it was memoized.

    Probes the LRU; on a miss ``compute()`` runs and its pair goes into
    the LRU.
    """
    value = cache.get(key)
    if value is not None:
        return value, True
    value = compute()
    cache.put(key, value)
    return value, False
