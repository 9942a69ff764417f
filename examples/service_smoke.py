#!/usr/bin/env python
"""Service smoke test: daemon + durable store survive clients and corruption.

End-to-end drill of the durable simulation service:

1. start the daemon (``repro serve``) as a real subprocess with a
   persistent result store;
2. fire two concurrent clients at the *same* workload and assert the
   single-flight table deduplicated them — one simulation, two answers;
3. damage every store entry on disk — a bit flip, then the two shapes
   an unsynced put can leave after a power loss (cut to 0 bytes, cut
   in half) — and assert, for each kind, that a fresh compute-side
   process detects the damage, quarantines the evidence and recomputes
   the identical result;
4. SIGTERM the daemon and assert it drains and exits 0.

Run:  python examples/service_smoke.py
Exits non-zero if any stage fails, so CI can gate on it.
"""

import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.serve.client import ServiceClient
from repro.store.result_store import ResultStore

REQUEST = {"kind": "run", "workload": "TF0", "array": "16x16"}


def flip_a_bit(raw: bytes) -> bytes:
    middle = len(raw) // 2
    return raw[:middle] + bytes([raw[middle] ^ 0x04]) + raw[middle + 1:]


#: Ways a record can be damaged on disk: bit rot, and what a power loss
#: can leave of a put that was never fsynced.
DAMAGE = {
    "bit flip": flip_a_bit,
    "cut to 0 bytes": lambda raw: b"",
    "cut in half": lambda raw: raw[: len(raw) // 2],
}


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_daemon(store_root: Path, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "--store", str(store_root),
            "serve", "--port", str(port), "--workers", "2",
        ],
        env=env,
    )


def wait_healthy(client: ServiceClient, timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        try:
            return client.health()
        except Exception:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


def stage_singleflight(port: int) -> None:
    results = {}

    def fire(name: str) -> None:
        client = ServiceClient(port=port, client_id=name)
        results[name] = client.submit(REQUEST, max_retries=5)

    herd = [threading.Thread(target=fire, args=(f"client-{i}",)) for i in range(2)]
    for thread in herd:
        thread.start()
    for thread in herd:
        thread.join(timeout=300)

    first, second = results["client-0"], results["client-1"]
    assert first["status"] == second["status"] == "ok", results
    assert first["total_cycles"] == second["total_cycles"], "answers diverged"
    assert first["key"] == second["key"], "identical requests keyed differently"

    health = ServiceClient(port=port).health()
    counters = health["counters"]
    dedup = counters["singleflight_joined"] >= 1 and counters["executed"] == 1
    store_hit = health["store"]["hits"] >= 1  # or: second client raced the put
    assert dedup or store_hit, f"no dedup evidence in {counters} / {health['store']}"
    assert health["store"]["writes"] >= 1, "daemon never persisted results"
    print(f"single-flight OK: executed={counters['executed']} "
          f"joined={counters['singleflight_joined']} "
          f"store.writes={health['store']['writes']}")


def stage_corruption(store_root: Path) -> None:
    store = ResultStore(store_root)
    keys = list(store.keys())
    assert keys, "store is empty after the daemon ran"
    reference = {key: store.get(key) for key in keys}
    for damaged, (kind, damage) in enumerate(DAMAGE.items(), start=1):
        for key in keys:  # damage every entry
            path = store.entry_path(key)
            path.write_bytes(damage(path.read_bytes()))
        recompute(store_root)
        healed = ResultStore(store_root)
        status = healed.status()
        assert status["corrupt"] >= damaged * len(keys), f"{kind} undetected: {status}"
        for key, payload in reference.items():
            assert healed.get(key) == payload, f"recompute not byte-identical for {key}"
        print(f"{kind} OK: {status['corrupt']} quarantined so far, "
              f"{len(reference)} entr(ies) healed byte-identical")


def recompute(store_root: Path) -> None:
    """A fresh compute-side process probes the store, detects the damage,
    quarantines it and recomputes — transparently."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    run = subprocess.run(
        [
            sys.executable, "-m", "repro",
            "--store", str(store_root),
            "run", "--workload", "TF0", "--array", "16x16",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr


def stage_sigterm(daemon: subprocess.Popen) -> None:
    daemon.send_signal(signal.SIGTERM)
    code = daemon.wait(timeout=60)
    assert code == 0, f"daemon exited {code} on SIGTERM, wanted a clean 0"
    print("sigterm OK: daemon drained and exited 0")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as scratch:
        store_root = Path(scratch) / "store"
        port = free_port()
        daemon = start_daemon(store_root, port)
        try:
            wait_healthy(ServiceClient(port=port))
            stage_singleflight(port)
            stage_corruption(store_root)
            stage_sigterm(daemon)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
