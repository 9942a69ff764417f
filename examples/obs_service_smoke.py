#!/usr/bin/env python
"""Observability smoke test: traces, /metrics, flight recorder, sentinel.

End-to-end drill of the operational observability layer:

1. start the daemon (``repro serve``) as a real subprocess with the
   flight recorder armed;
2. submit a job with a caller-chosen correlation ID and assert the
   daemon echoes it back — the handle that stitches spans and logs
   into one request story;
3. scrape ``GET /metrics``, parse the Prometheus exposition strictly
   and assert the per-job-kind latency summary and the serve counters
   moved;
4. SIGTERM the daemon and assert it exits 0 *and* leaves a flight
   dump recording the drain;
5. run the perf-regression sentinel: ``bench record`` then a clean
   ``bench compare`` (exit 0), then a compare with an injected 5x
   slowdown that must exit 17.

Run:  python examples/obs_service_smoke.py
Exits non-zero if any stage fails, so CI can gate on it.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.serve.client import ServiceClient

REQUEST = {"kind": "gemm", "m": 128, "k": 64, "n": 64, "array": "16x16"}
CORRELATION_ID = "cafe0123beef4567"
EXIT_PERF_REGRESSION = 17


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def repro_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return env


def start_daemon(flight_dir: Path, port: int) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "--flight", str(flight_dir),
            "serve", "--port", str(port), "--workers", "2",
        ],
        env=repro_env(),
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


def stage_correlation(port: int) -> None:
    with ServiceClient(port=port, client_id="obs-smoke") as client:
        result = client.submit(REQUEST, max_retries=5,
                               correlation_id=CORRELATION_ID)
        minted = client.submit(REQUEST, max_retries=5)
    assert result["status"] == "ok", result
    assert result["correlation_id"] == CORRELATION_ID, result
    assert len(minted["correlation_id"]) == 16, minted
    assert minted["correlation_id"] != CORRELATION_ID
    print(f"correlation OK: caller id echoed, fresh id minted "
          f"({minted['correlation_id']})")


def stage_metrics(port: int) -> None:
    from repro.obs.service import parse_prometheus_text, sample_value

    with ServiceClient(port=port) as client:
        text = client.metrics_text()
    families = parse_prometheus_text(text)

    assert families["repro_serve_executed_total"]["type"] == "counter"
    assert sample_value(families, "repro_serve_executed_total") >= 1
    assert families["repro_serve_job_seconds"]["type"] == "summary"
    count = next(
        value
        for name, labels, value in families["repro_serve_job_seconds"]["samples"]
        if name == "repro_serve_job_seconds_count" and labels.get("kind") == "gemm"
    )
    assert count >= 1, families["repro_serve_job_seconds"]
    assert sample_value(families, "repro_serve_queue_depth") == 0
    assert sample_value(families, "repro_uptime_seconds") >= 0
    version = families["repro_build_info"]["samples"][0][1]["version"]
    print(f"metrics OK: {len(families)} families, "
          f"gemm jobs={count:g}, version={version}")


def stage_flight_dump(daemon: subprocess.Popen, flight_dir: Path) -> None:
    daemon.send_signal(signal.SIGTERM)
    code = daemon.wait(timeout=60)
    assert code == 0, f"daemon exited {code} on SIGTERM, wanted a clean 0"
    dumps = sorted(flight_dir.glob("flight-*.json"))
    assert dumps, f"no flight dump in {flight_dir} after SIGTERM"
    doc = json.loads(dumps[0].read_text())
    assert doc["schema"] == "repro.flight/1", doc["schema"]
    assert "SIGTERM" in doc["reason"], doc["reason"]
    names = {event.get("name") for event in doc["traceEvents"]}
    assert "serve.request" in names, sorted(names)
    print(f"flight OK: SIGTERM dump {dumps[0].name} with "
          f"{len(doc['traceEvents'])} events")


def stage_bench_sentinel(scratch: Path) -> None:
    history = scratch / "history.jsonl"
    tail = ["--history", str(history), "--benches", "gemm_256",
            "--repeats", "1"]

    def bench(*argv: str) -> int:
        return subprocess.run(
            [sys.executable, "-m", "repro", "bench", *argv],
            env=repro_env(), timeout=300,
        ).returncode

    assert bench("record", *tail, "--note", "smoke baseline") == 0
    assert bench("compare", *tail) == 0
    # the self-test hook: against a synthetic near-zero baseline (so the
    # verdict cannot depend on runner load), the injected slowdown must
    # trip exit 17
    tiny = scratch / "tiny.jsonl"
    tiny.write_text(json.dumps({
        "schema": "repro.bench/1",
        "benches": {"gemm_256": {"wall_time_s": 1e-9, "counters": {}}},
    }) + "\n")
    code = bench("compare", "--history", str(tiny), "--benches", "gemm_256",
                 "--repeats", "1", "--threshold", "0.5",
                 "--inject-slowdown", "5.0", "--noise-floor", "0")
    assert code == EXIT_PERF_REGRESSION, \
        f"injected regression exited {code}, wanted {EXIT_PERF_REGRESSION}"
    print("bench OK: clean compare passed, injected 5x slowdown exited 17")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as scratch:
        flight_dir = Path(scratch) / "flight"
        port = free_port()
        daemon = start_daemon(flight_dir, port)
        try:
            with ServiceClient(port=port) as probe:
                wait_healthy(probe)
            stage_correlation(port)
            stage_metrics(port)
            stage_flight_dump(daemon, flight_dir)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)
        stage_bench_sentinel(Path(scratch))
    print("observability smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
