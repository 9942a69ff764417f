"""Durable, content-addressed simulation result store (``repro.store``).

Promotes the in-process LRU of :mod:`repro.perf.cache` to a crash-safe
cross-run cache on disk: identical grid points simulate once, ever.
See :mod:`repro.store.runtime` for how the engine finds the active
store.

:mod:`repro.store.ledger` adds the columnar sweep ledger — sealed,
checksummed segments (:mod:`repro.store.segment`) that make whole
sweeps durable, corruption-recoverable and incrementally re-runnable.
Both directories share :mod:`repro.store.durable`; their durability
contract is in ``docs/robustness.md``.
"""

from repro.store.ledger import (
    DEFAULT_SEGMENT_ENTRIES,
    LedgerDiff,
    SweepLedger,
)
from repro.store.records import decode_result_pair, encode_result_pair
from repro.store.result_store import SCHEMA_VERSION, ResultStore, payload_checksum
from repro.store.runtime import (
    STORE_ENV_VAR,
    active,
    configure,
    deactivate,
    disable,
    probe,
    record,
    store_key,
)
from repro.store.segment import Segment, SegmentInfo, encode_segment, write_segment

__all__ = [
    "DEFAULT_SEGMENT_ENTRIES",
    "LedgerDiff",
    "SCHEMA_VERSION",
    "STORE_ENV_VAR",
    "ResultStore",
    "Segment",
    "SegmentInfo",
    "SweepLedger",
    "encode_segment",
    "write_segment",
    "active",
    "configure",
    "deactivate",
    "decode_result_pair",
    "disable",
    "encode_result_pair",
    "payload_checksum",
    "probe",
    "record",
    "store_key",
]
