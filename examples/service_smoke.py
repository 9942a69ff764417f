#!/usr/bin/env python
"""Service smoke test: the daemon dedups concurrent clients and drains.

End-to-end drill of the simulation service:

1. start the daemon (``repro serve``) as a real subprocess;
2. fire two concurrent clients at the *same* workload and assert they
   get identical answers, and that every request was either executed or
   joined an identical one in flight (single-flight dedup);
3. SIGTERM the daemon and assert it drains and exits 0.

Run:  python examples/service_smoke.py
Exits non-zero if any stage fails, so CI can gate on it.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

from repro.serve.client import ServiceClient

REQUEST = {"kind": "run", "workload": "TF0", "array": "16x16"}
CLIENTS = 2


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_daemon(port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro",
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
        with ServiceClient(port=port, client_id=name) as client:
            results[name] = client.submit(REQUEST, max_retries=5)

    herd = [
        threading.Thread(target=fire, args=(f"client-{i}",)) for i in range(CLIENTS)
    ]
    for thread in herd:
        thread.start()
    for thread in herd:
        thread.join(timeout=300)

    first, second = results["client-0"], results["client-1"]
    assert first["status"] == second["status"] == "ok", results
    assert first["total_cycles"] == second["total_cycles"], "answers diverged"
    assert first["key"] == second["key"], "identical requests keyed differently"

    with ServiceClient(port=port) as client:
        counters = client.health()["counters"]
    handled = counters["executed"] + counters["singleflight_joined"]
    assert handled == CLIENTS, f"requests unaccounted for in {counters}"
    print(f"single-flight OK: executed={counters['executed']} "
          f"joined={counters['singleflight_joined']}")


def stage_sigterm(daemon: subprocess.Popen) -> None:
    daemon.send_signal(signal.SIGTERM)
    code = daemon.wait(timeout=60)
    assert code == 0, f"daemon exited {code} on SIGTERM, wanted a clean 0"
    print("sigterm OK: daemon drained and exited 0")


def main() -> int:
    port = free_port()
    daemon = start_daemon(port)
    try:
        with ServiceClient(port=port) as probe:
            wait_healthy(probe)
        stage_singleflight(port)
        stage_sigterm(daemon)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
