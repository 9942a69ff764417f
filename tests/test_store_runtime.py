"""The store runtime: engine wiring, environment lookup, byte-identity.

The headline acceptance criterion lives here: a simulation served from
the persistent store is *byte-identical* to a cold run — same
``LayerResult``, same CSV row — and a bit-flipped entry is detected,
quarantined, and transparently recomputed back to the identical value.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.config.presets import paper_scaling_config
from repro.engine.simulator import Simulator
from repro.perf.cache import cache
from repro.store.runtime import (
    STORE_ENV_VAR,
    active,
    configure,
    deactivate,
    disable,
    store_key,
)
from repro.store.records import decode_result_pair, encode_result_pair
from repro.store.result_store import ResultStore
from repro.store.runtime import probe, record


@pytest.fixture(autouse=True)
def isolated_store():
    """Each test gets a pristine runtime and a pristine LRU."""
    deactivate()
    cache.reset()
    yield
    deactivate()
    cache.reset()


def _simulate(m=24, k=16, n=20):
    return Simulator(paper_scaling_config(8, 8)).run_gemm(m, k, n)


# ----------------------------------------------------------------------
# Configuration & environment lookup
# ----------------------------------------------------------------------

def test_disable_overrides_inherited_environment(tmp_path):
    configure(tmp_path / "s")
    os.environ[STORE_ENV_VAR] = str(tmp_path / "s")
    disable()
    assert active() is None


def test_active_lazily_opens_from_environment(tmp_path):
    configure(tmp_path / "s")
    deactivate()
    os.environ[STORE_ENV_VAR] = str(tmp_path / "s")
    store = active()
    assert store is not None and store.root == tmp_path / "s"


def test_unopenable_environment_store_degrades_quietly(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file, not directory")
    os.environ[STORE_ENV_VAR] = str(blocker)
    assert active() is None  # warned + compute-only, not raised
    assert active() is None  # and the failure is not retried


def test_opening_a_store_never_lists_its_entries(tmp_path, monkeypatch):
    """Opening costs the same for 3 records or 3 million: neither the
    open-time recovery nor configure()'s log line walks the entries."""
    populated = ResultStore(tmp_path / "s")
    for index in range(3):
        populated.put(f"{index:016x}", {"index": index})

    def listing(self):
        raise AssertionError("opening the store listed every entry")

    monkeypatch.setattr(ResultStore, "keys", listing)
    ResultStore(tmp_path / "s")
    configure(tmp_path / "s")


def test_store_key_is_stable_and_version_stamped():
    key = store_key(("gemm", 8, 8, 8))
    assert key == store_key(("gemm", 8, 8, 8))
    assert key != store_key(("gemm", 8, 8, 16))


# ----------------------------------------------------------------------
# Record encode/decode round trip
# ----------------------------------------------------------------------

def test_result_pair_round_trips_exactly(tmp_path):
    result = _simulate()
    pair = probe_pair_from_simulation()
    payload = encode_result_pair(*pair)
    decoded_result, decoded_traffic = decode_result_pair(payload)
    assert decoded_result == dataclasses.replace(result, layer_name="")
    assert decoded_traffic == pair[1]


def probe_pair_from_simulation():
    """The exact (result, traffic) pair the engine memoizes."""
    cache.reset()
    _simulate()
    (key,) = list(cache._entries)  # single-entry introspection
    return cache.get(key)


def test_decode_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        decode_result_pair({"kind": "something-else"})
    payload = encode_result_pair(*probe_pair_from_simulation())
    del payload["result"]["total_cycles"]
    with pytest.raises(KeyError):
        decode_result_pair(payload)


# ----------------------------------------------------------------------
# Engine integration: byte-identical store hits
# ----------------------------------------------------------------------

def test_store_hit_is_byte_identical_to_cold_run(tmp_path):
    store = configure(tmp_path / "s")
    cold = _simulate()
    cache.reset()  # force the next run past the LRU to the disk store
    warm = _simulate()
    assert warm == cold
    assert warm.as_row() == cold.as_row()
    assert store.status()["hits"] == 1
    assert store.status()["writes"] == 1


def test_bit_flip_recomputes_byte_identical(tmp_path):
    store = configure(tmp_path / "s")
    cold = _simulate()
    (key,) = list(store.keys())
    path = store.entry_path(key)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x20
    path.write_bytes(bytes(raw))

    cache.reset()
    healed = _simulate()  # detects, quarantines, recomputes, re-publishes
    assert healed == cold
    assert len(store.quarantined()) == 1
    assert store.get(key) is not None  # entry healed on disk
    cache.reset()
    assert _simulate() == cold  # and the healed entry serves hits again


def test_probe_quarantines_undecodable_payload(tmp_path):
    store = configure(tmp_path / "s")
    sim_key = ("gemm", 1, 2, 3)
    # Valid checksum, wrong shape: passes the store, fails the decoder.
    store.put(store_key(sim_key), {"kind": "layer_result_pair", "result": {}})
    assert probe(sim_key) is None
    assert len(store.quarantined()) == 1


def test_record_is_noop_without_a_store():
    assert not record(("gemm", 1, 1, 1), probe_pair_from_simulation())
    assert probe(("gemm", 1, 1, 1)) is None


def test_different_configs_use_different_entries(tmp_path):
    store = configure(tmp_path / "s")
    Simulator(paper_scaling_config(8, 8)).run_gemm(16, 16, 16)
    Simulator(paper_scaling_config(16, 16)).run_gemm(16, 16, 16)
    assert len(store) == 2
