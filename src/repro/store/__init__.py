"""Durable sweep storage (``repro.store``).

:mod:`repro.store.ledger` is the columnar sweep ledger — sealed,
checksummed segments (:mod:`repro.store.segment`) that make whole
sweeps durable, corruption-recoverable and incrementally re-runnable.
:mod:`repro.store.durable` applies the durability contract in
``docs/robustness.md`` to the ledger's directory.

Single simulated layers are not persisted: the engine memoizes them in
the process-wide LRU of :mod:`repro.perf.cache` only.
"""
