"""Durable, content-addressed simulation result store (``repro.store``).

Promotes the in-process LRU of :mod:`repro.perf.cache` to a crash-safe
cross-run cache on disk: identical grid points simulate once, ever.
The engine's memo seam (:func:`repro.perf.cache.memoize`) reaches the
active store through :mod:`repro.store.runtime`.

:mod:`repro.store.ledger` adds the columnar sweep ledger — sealed,
checksummed segments (:mod:`repro.store.segment`) that make whole
sweeps durable, corruption-recoverable and incrementally re-runnable.
Both directories share :mod:`repro.store.durable`; their durability
contract is in ``docs/robustness.md``.
"""
