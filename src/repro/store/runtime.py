"""Process-wide active store: configuration, key derivation, memo hooks.

The engine does not know where (or whether) results persist: its memo
seam, :func:`repro.perf.cache.memoize`, calls :func:`probe` and
:func:`record` with the same memoization key the in-process LRU uses,
and this module maps that onto whichever
:class:`~repro.store.result_store.ResultStore` is active:

* :func:`configure` opens (or creates) a store for this process (the
  CLI ``--store`` flag); the daemon's job threads share it.
* :func:`disable` turns persistence off for this process (the CLI
  ``--no-store`` flag), overriding ``REPRO_RESULT_STORE``.
* :func:`active` resolves the current store: the explicitly configured
  one, else a lazy open of a user-set ``REPRO_RESULT_STORE`` path, else
  ``None``.

Store keys are the :func:`repro.obs.config_hash` of the simulation key
plus the package version — the "config-hash stamping" contract from
``repro.obs`` — so a code upgrade addresses fresh entries instead of
replaying stale physics, and cross-version stores coexist in one
directory.

Every failure path degrades to computing without persistence; a broken
store directory can slow a run down, never wrong it.
"""

from __future__ import annotations

import logging
import os
from pathlib import Path
from typing import Hashable, Optional, Tuple, Union

from repro.errors import StorageError
from repro.obs.export import config_hash
from repro.store.records import decode_result_pair, encode_result_pair
from repro.store.result_store import ResultStore

logger = logging.getLogger("repro.store")

#: Environment variable naming a store to open on first use when no
#: :func:`configure`/:func:`disable` call came first.
STORE_ENV_VAR = "REPRO_RESULT_STORE"

_active: Optional[ResultStore] = None
_configured = False  # an explicit configure()/disable() beats the environment
_env_failed: Optional[str] = None  # a lazy env open that failed; don't retry


def store_key(sim_key: Hashable) -> str:
    """Content-address one simulation key (version-stamped)."""
    from repro._version import __version__

    return config_hash({"sim_key": sim_key, "version": __version__})


def configure(root: Union[str, Path], writable: bool = True) -> ResultStore:
    """Activate a persistent result store for this process."""
    global _active, _configured, _env_failed
    store = ResultStore(root, writable=writable)
    _active = store
    _configured = True
    _env_failed = None
    logger.info("result store active at %s", store.root)
    return store


def disable() -> None:
    """Turn persistence off for this process."""
    global _active, _configured
    _active = None
    _configured = True


def deactivate() -> None:
    """Forget any active store and any ``REPRO_RESULT_STORE`` value.

    Test hook: returns the module to its import-time state, so a test
    that sets the environment variable has it re-resolved on next use.
    """
    global _active, _configured, _env_failed
    _active = None
    _configured = False
    _env_failed = None
    os.environ.pop(STORE_ENV_VAR, None)


def active() -> Optional[ResultStore]:
    """The store to use right now, or ``None`` for compute-only."""
    global _active, _configured, _env_failed
    if _configured:
        return _active
    env_root = os.environ.get(STORE_ENV_VAR, "")
    if not env_root or env_root == _env_failed:
        return None
    try:
        _active = ResultStore(env_root)
    except StorageError as exc:
        _env_failed = env_root
        logger.warning(
            "cannot open inherited result store %s (%s); continuing compute-only",
            env_root, exc,
        )
        return None
    _configured = True
    return _active


def probe(sim_key: Hashable) -> Optional[Tuple]:
    """Look one simulation key up in the persistent store.

    Returns the decoded ``(LayerResult, DramTraffic)`` pair, or ``None``
    on miss / no store / corrupt entry (already quarantined).
    """
    from repro.obs import trace

    store = active()
    if store is None:
        return None
    key = store_key(sim_key)
    with trace.span("store.probe", category="store", key=key) as span:
        payload = store.get(key)
        span.set(hit=payload is not None)
        if payload is None:
            return None
        try:
            return decode_result_pair(payload)
        except (KeyError, TypeError, ValueError) as exc:
            # The checksum held but the payload shape didn't: quarantine it
            # exactly like low-level corruption and recompute.
            store.quarantine(key, f"undecodable payload ({exc})")
            span.set(hit=False, quarantined=True)
            return None


def record(sim_key: Hashable, value: Tuple) -> bool:
    """Persist one freshly computed result pair (best effort)."""
    from repro.obs import trace

    store = active()
    if store is None or not store.writable:
        return False
    result, traffic = value
    key = store_key(sim_key)
    with trace.span("store.record", category="store", key=key) as span:
        published = store.put(key, encode_result_pair(result, traffic))
        span.set(published=published)
        return published
