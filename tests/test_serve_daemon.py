"""The simulation daemon: admission control, single-flight, drain, HTTP.

``SimulationService`` is exercised in-process (deterministic gating via
monkeypatched job execution), then the stdlib HTTP layer end-to-end on
an ephemeral TCP port and a unix domain socket.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro._version import __version__
from repro.errors import ServiceError, ServiceUnavailableError
from repro.obs.service import (
    CORRELATION_KEY,
    parse_prometheus_text,
    sample_value,
)
from repro.serve.client import ServiceClient, _UnixHTTPConnection
from repro.serve.daemon import (
    MAX_BODY_BYTES,
    ServicePolicy,
    SimulationService,
    make_server,
)
from repro.serve.jobs import execute_job, job_key, normalize_request


def gemm(m: int) -> dict:
    return {"kind": "gemm", "m": m, "k": 8, "n": 8, "array": "8x8"}


class Gate:
    """Blocks job execution until the test releases it."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()
        self.order = []  # ``m`` of each job, in the order they started

    def __call__(self, request):
        self.order.append(request["m"])
        self.entered.set()
        assert self.release.wait(timeout=30), "test never released the gate"
        return {"total_cycles": 1, "m": request["m"]}


def _submit_async(service, payload, client="anonymous"):
    box = {}

    def run():
        box["status"], box["body"] = service.submit(payload, client=client)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Policy validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "overrides",
    [
        {"workers": 0},
        {"max_queue": -1},
        {"client_quota": 0},
        {"request_timeout": 0},
        {"retry_after": 0},
        {"drain_timeout": -1},
    ],
)
def test_policy_rejects_nonsense(overrides):
    with pytest.raises(ValueError):
        ServicePolicy(**overrides)


def test_admission_limit_is_workers_plus_queue():
    assert ServicePolicy(workers=3, max_queue=5).admission_limit == 8


# ----------------------------------------------------------------------
# Core submit path (real simulations)
# ----------------------------------------------------------------------

def test_submit_runs_a_real_gemm():
    service = SimulationService(ServicePolicy(workers=1))
    status, body = service.submit(gemm(16))
    assert status == 200
    assert body["status"] == "ok"
    assert body["kind"] == "gemm"
    assert body["total_cycles"] > 0
    assert body["singleflight"] is False
    service.drain(timeout=5)


def test_the_daemon_hands_its_ledger_to_sweep_jobs(tmp_path):
    service = SimulationService(ServicePolicy(workers=1), ledger=str(tmp_path / "led"))
    sweep = {"kind": "sweep", "layer": "GNMT1", "macs": 1024, "partitions": [1, 4]}
    first = service.submit(sweep)
    second = service.submit(sweep)
    service.drain(timeout=5)
    assert [status for status, _ in (first, second)] == [200, 200]
    assert first[1]["ledger"] == {"reused": 0, "simulated": 2}
    assert second[1]["ledger"] == {"reused": 2, "simulated": 0}
    assert second[1]["rows"] == first[1]["rows"]
    assert (tmp_path / "led" / "journal.jsonl").is_file()


def test_invalid_request_is_a_400_not_an_exception():
    service = SimulationService(ServicePolicy(workers=1))
    for payload in (None, [], {"kind": "nope"}, {"kind": "gemm", "m": -1}):
        status, body = service.submit(payload)
        assert status == 400
        assert body["status"] == "invalid"
    assert service.health()["counters"]["bad_requests"] == 4
    service.drain(timeout=5)


def test_identical_requests_share_one_key():
    a = normalize_request({"kind": "gemm", "m": 8, "k": 8, "n": 8})
    b = normalize_request({"kind": "gemm", "m": 8, "k": 8, "n": 8, "array": "32x32"})
    assert job_key(a) == job_key(b)  # 32x32 is the default array


# ----------------------------------------------------------------------
# Single-flight dedup
# ----------------------------------------------------------------------

def test_identical_inflight_requests_execute_once(monkeypatch):
    gate = Gate()
    monkeypatch.setattr("repro.serve.daemon.execute_job", gate)
    service = SimulationService(ServicePolicy(workers=2, client_quota=8))
    first, box1 = _submit_async(service, gemm(8), client="a")
    _wait_for(gate.entered.is_set)
    second, box2 = _submit_async(service, gemm(8), client="b")
    _wait_for(lambda: service.health()["counters"]["singleflight_joined"] == 1)
    gate.release.set()
    first.join(timeout=30)
    second.join(timeout=30)

    assert box1["status"] == box2["status"] == 200
    assert {box1["body"]["singleflight"], box2["body"]["singleflight"]} == {True, False}
    counters = service.health()["counters"]
    assert counters["executed"] == 1  # one simulation, two responses
    assert counters["completed"] == 2
    service.drain(timeout=5)


# ----------------------------------------------------------------------
# Back-pressure: bounded queue and per-client quotas
# ----------------------------------------------------------------------

def test_full_queue_rejects_with_retry_after(monkeypatch):
    gate = Gate()
    monkeypatch.setattr("repro.serve.daemon.execute_job", gate)
    service = SimulationService(
        ServicePolicy(workers=1, max_queue=0, client_quota=8, retry_after=2.5)
    )
    thread, _box = _submit_async(service, gemm(1))
    _wait_for(gate.entered.is_set)

    status, body = service.submit(gemm(2))  # distinct job, no slot left
    assert status == 429
    assert body["status"] == "rejected"
    assert body["retry_after"] == 2.5
    assert service.health()["counters"]["rejected_queue"] == 1

    gate.release.set()
    thread.join(timeout=30)
    service.drain(timeout=5)


def test_client_quota_rejects_the_greedy_client_only(monkeypatch):
    gate = Gate()
    monkeypatch.setattr("repro.serve.daemon.execute_job", gate)
    service = SimulationService(ServicePolicy(workers=2, max_queue=8, client_quota=1))
    thread, _box = _submit_async(service, gemm(1), client="greedy")
    _wait_for(gate.entered.is_set)

    status, body = service.submit(gemm(2), client="greedy")
    assert status == 429
    assert "quota" in body["error"]
    assert service.health()["counters"]["rejected_quota"] == 1

    polite, box = _submit_async(service, gemm(3), client="polite")
    _wait_for(lambda: service.health()["jobs_in_flight"] == 2)
    gate.release.set()
    thread.join(timeout=30)
    polite.join(timeout=30)
    assert box["status"] == 200
    service.drain(timeout=5)


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------

def test_drain_finishes_inflight_then_rejects_new(monkeypatch):
    gate = Gate()
    monkeypatch.setattr("repro.serve.daemon.execute_job", gate)
    service = SimulationService(ServicePolicy(workers=1))
    thread, box = _submit_async(service, gemm(1))
    _wait_for(gate.entered.is_set)

    drainer = threading.Thread(target=service.drain, kwargs={"timeout": 30}, daemon=True)
    drainer.start()
    _wait_for(lambda: service.health()["status"] == "draining")
    status, body = service.submit(gemm(2))
    assert status == 503
    assert service.health()["counters"]["rejected_draining"] == 1

    gate.release.set()
    thread.join(timeout=30)
    drainer.join(timeout=30)
    assert box["status"] == 200  # in-flight work completed, not dropped


def test_drain_abandons_a_job_still_waiting_for_a_slot(monkeypatch):
    gate = Gate()
    monkeypatch.setattr("repro.serve.daemon.execute_job", gate)
    service = SimulationService(ServicePolicy(workers=1, max_queue=1, client_quota=8))
    running, running_box = _submit_async(service, gemm(1))
    _wait_for(gate.entered.is_set)
    queued, queued_box = _submit_async(service, gemm(2))
    joiner, joiner_box = _submit_async(service, gemm(2))
    _wait_for(lambda: service.health()["counters"]["singleflight_joined"] == 1)

    assert service.drain(timeout=0.2) == 2
    queued.join(timeout=10)
    joiner.join(timeout=10)
    for box in (queued_box, joiner_box):
        assert box["status"] == 503
        assert "job abandoned during shutdown" in box["body"]["error"]

    gate.release.set()
    running.join(timeout=30)
    assert running_box["status"] == 200
    assert service.health()["counters"]["executed"] == 1
    assert gate.order == [1]  # the abandoned job never ran


def test_waiting_jobs_start_in_admission_order(monkeypatch):
    gate = Gate()
    monkeypatch.setattr("repro.serve.daemon.execute_job", gate)
    service = SimulationService(ServicePolicy(workers=1, max_queue=4, client_quota=8))
    submits = [_submit_async(service, gemm(1))]
    _wait_for(gate.entered.is_set)
    for m in range(2, 6):
        submits.append(_submit_async(service, gemm(m)))
        _wait_for(lambda: service.health()["jobs_in_flight"] == m)
        time.sleep(0.03)  # stagger the waits; a polling waiter would re-queue
    gate.release.set()
    for thread, box in submits:
        thread.join(timeout=30)
        assert box["status"] == 200
    assert gate.order == [1, 2, 3, 4, 5]
    service.drain(timeout=5)


SRC = str(Path(__file__).resolve().parents[1] / "src")

#: ``repro serve`` on a unix socket with one slot and a 0.2 s drain
#: budget, every job held until a release file appears.
GATED_DAEMON = textwrap.dedent(
    """
    import os, sys, time
    import repro.serve.daemon as daemon
    from repro.cli import main

    socket_path, entered, release = sys.argv[1:]
    real = daemon.execute_job

    def gated(request, **kwargs):
        open(entered, "w").close()
        deadline = time.monotonic() + 60
        while not os.path.exists(release) and time.monotonic() < deadline:
            time.sleep(0.01)
        return real(request, **kwargs)

    daemon.execute_job = gated
    sys.exit(main(["serve", "--socket", socket_path, "--workers", "1",
                   "--queue", "1", "--drain-timeout", "0.2"]))
    """
)


def _raw_submit(socket_path, payload):
    """POST one job on a fresh connection; the reply lands in ``box``."""
    box = {}

    def run():
        connection = _UnixHTTPConnection(socket_path, timeout=60)
        try:
            connection.request(
                "POST", "/submit", body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            box["status"], box["body"] = response.status, json.loads(response.read())
        except Exception as exc:  # noqa: BLE001 - asserted on below
            box["error"] = exc
        finally:
            connection.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def _answers(client):
    try:
        client.health()
    except ServiceError:
        return False
    return True


def test_sigterm_past_the_drain_budget_still_answers_every_request(tmp_path):
    """A daemon SIGTERMed with one job running past ``--drain-timeout``
    and another waiting for its slot: the waiting job and its joiner get
    the 503 at once, and the daemon exits 0 only after the running job
    has finished and its 200 has been sent."""
    path = str(tmp_path / "repro.sock")
    entered, release = tmp_path / "entered", tmp_path / "release"
    with open(tmp_path / "daemon.err", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", GATED_DAEMON, path, str(entered), str(release)],
            env={**os.environ, "PYTHONPATH": SRC}, stderr=err,
        )
    probe = ServiceClient(socket_path=path)
    try:
        _wait_for(lambda: _answers(probe) or proc.poll() is not None, timeout=30)
        assert proc.poll() is None
        running = _raw_submit(path, gemm(8))
        _wait_for(entered.exists, timeout=30)
        queued = _raw_submit(path, gemm(16))
        joiner = _raw_submit(path, gemm(16))
        _wait_for(
            lambda: probe.health()["counters"]["singleflight_joined"] == 1, timeout=30
        )
        assert probe.health()["jobs_in_flight"] == 2
        proc.send_signal(signal.SIGTERM)
        for thread, box in (queued, joiner):
            thread.join(timeout=30)
            assert box.get("status") == 503, box
            assert "job abandoned during shutdown" in box["body"]["error"]
        assert proc.poll() is None  # still serving the running job
        release.touch()
        thread, box = running
        thread.join(timeout=60)
        assert box.get("status") == 200, box
        assert box["body"]["total_cycles"] == execute_job(
            normalize_request(gemm(8))
        )["total_cycles"]
        assert proc.wait(timeout=60) == 0
    finally:
        probe.close()
        release.touch()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def test_health_reports_policy_and_counters():
    service = SimulationService(ServicePolicy(workers=1, max_queue=2, client_quota=3))
    health = service.health()
    assert health["status"] == "ok"
    assert health["policy"] == {
        "workers": 1, "max_queue": 2, "client_quota": 3, "request_timeout": None,
    }
    assert health["jobs_in_flight"] == 0
    service.drain(timeout=5)


def test_health_reports_version_and_uptime_but_no_store():
    service = SimulationService(ServicePolicy(workers=1))
    health = service.health()
    assert health["version"] == __version__
    assert health["uptime"] >= 0
    assert "store" not in health and "degraded_store" not in health
    service.drain(timeout=5)


# ----------------------------------------------------------------------
# Correlation IDs: one stitched trace per job
# ----------------------------------------------------------------------

@pytest.fixture
def tracing():
    from repro.perf.cache import cache

    obs.reset()
    cache.reset()
    obs.trace.enable()
    yield obs.trace
    obs.reset()
    cache.reset()


def test_submit_round_trip_is_one_correlated_trace(tracing):
    """The acceptance criterion: queue-wait, execution and engine
    segments of one submit all share a single correlation ID."""
    service = SimulationService(ServicePolicy(workers=1))
    status, body = service.submit(gemm(16))
    assert status == 200
    cid = body["correlation_id"]
    assert cid and len(cid) == 16

    spans = {record.name: record for record in tracing.records()}
    for name in ("serve.request", "serve.queue_wait", "serve.execute",
                 "engine.run_gemm"):
        assert name in spans, f"missing span {name}"
        assert spans[name].args.get(CORRELATION_KEY) == cid, name
    # queue-wait is synthesized before execution but must nest within
    # the request window
    assert spans["serve.queue_wait"].start_ns >= 0
    assert spans["serve.execute"].duration_ns > 0
    service.drain(timeout=5)


def test_caller_supplied_correlation_id_wins(tracing):
    service = SimulationService(ServicePolicy(workers=1))
    _status, body = service.submit(gemm(8), correlation_id="feedc0dedeadbeef")
    assert body["correlation_id"] == "feedc0dedeadbeef"
    service.drain(timeout=5)


def test_correlation_id_visible_in_daemon_logs(tracing, caplog):
    import logging

    service = SimulationService(ServicePolicy(workers=1))
    # attach directly: an earlier CLI run may have switched the "repro"
    # hierarchy to propagate=False, which starves caplog's root handler
    serve_logger = logging.getLogger("repro.serve")
    serve_logger.addHandler(caplog.handler)
    try:
        with caplog.at_level("INFO", logger="repro.serve"):
            _status, body = service.submit(gemm(24))
    finally:
        serve_logger.removeHandler(caplog.handler)
    cid = body["correlation_id"]
    tagged = [r for r in caplog.records if f"cid={cid}" in r.getMessage()]
    assert tagged, "daemon logs never mention the correlation id"
    service.drain(timeout=5)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------

@pytest.fixture
def live_metrics():
    obs.reset()
    obs.metrics.enable()
    yield obs.metrics
    obs.reset()


def _summary_count(families, family, **labels):
    """The ``<family>_count`` sample of a summary, filtered by labels."""
    for name, sample_labels, value in families[family]["samples"]:
        if name == f"{family}_count" and all(
            sample_labels.get(key) == wanted for key, wanted in labels.items()
        ):
            return value
    return None


def test_metrics_text_is_valid_prometheus(live_metrics):
    service = SimulationService(ServicePolicy(workers=2))
    assert service.submit(gemm(16))[0] == 200

    families = parse_prometheus_text(service.metrics_text())
    # per-job-kind latency series
    job_seconds = families["repro_serve_job_seconds"]
    assert job_seconds["type"] == "summary"
    assert _summary_count(families, "repro_serve_job_seconds", kind="gemm") == 1
    # queue depth + in-flight gauges and admission counters
    assert sample_value(families, "repro_serve_queue_depth") == 0
    assert sample_value(families, "repro_serve_jobs_in_flight") == 0
    assert sample_value(families, "repro_serve_executed_total") == 1
    assert sample_value(families, "repro_serve_completed_total") == 1
    # queue-wait histogram observed once per executed job
    assert _summary_count(families, "repro_serve_queue_wait_seconds") == 1
    # build info + uptime
    assert sample_value(families, "repro_build_info", version=__version__) == 1
    assert sample_value(families, "repro_uptime_seconds") >= 0
    service.drain(timeout=5)


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------

@pytest.fixture
def http_daemon():
    service = SimulationService(ServicePolicy(workers=2))
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield service, server.server_address[1]
    server.shutdown()
    server.server_close()
    service.drain(timeout=5)


def test_http_round_trip(http_daemon):
    _service, port = http_daemon
    with ServiceClient(port=port, client_id="pytest") as client:
        health = client.health()
        assert health["status"] == "ok"
        body = client.submit(gemm(16))
    assert body["status"] == "ok" and body["total_cycles"] > 0


def test_http_rejection_carries_retry_after(http_daemon, monkeypatch):
    service, port = http_daemon
    monkeypatch.setattr(service, "policy", ServicePolicy(workers=2, retry_after=3.0))
    service._draining = True  # cheapest deterministic rejection
    with ServiceClient(port=port) as client, pytest.raises(
        ServiceUnavailableError
    ) as excinfo:
        client.submit(gemm(1))
    assert excinfo.value.retry_after == 3.0
    service._draining = False


def test_http_metrics_scrape_parses(http_daemon):
    _service, port = http_daemon
    with ServiceClient(port=port, client_id="pytest") as client:
        assert client.submit(gemm(16))["status"] == "ok"
        families = parse_prometheus_text(client.metrics_text())
    # admission counters flow through even without obs.metrics enabled
    assert sample_value(families, "repro_serve_executed_total") >= 1
    assert sample_value(families, "repro_serve_queue_depth") is not None
    assert sample_value(families, "repro_build_info", version=__version__) == 1


def test_http_correlation_header_echoed(http_daemon):
    from repro.obs.service import CORRELATION_HEADER

    _service, port = http_daemon
    with ServiceClient(port=port) as client:
        status, headers, body = client._request(
            "POST", "/submit", body=gemm(20), correlation_id="cafe0123cafe0123"
        )
    assert status == 200
    assert body["correlation_id"] == "cafe0123cafe0123"
    assert headers.get(CORRELATION_HEADER) == "cafe0123cafe0123"


def test_http_bad_json_and_unknown_routes(http_daemon):
    _service, port = http_daemon
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    connection.request("POST", "/submit", body=b"{not json", headers={"Content-Length": "9"})
    assert connection.getresponse().status == 400
    connection.close()

    with ServiceClient(port=port) as client:
        status, _headers, body = client._request("GET", "/no-such-route")
    assert status == 404 and body["status"] == "invalid"


def test_unix_socket_round_trip(tmp_path):
    socket_path = str(tmp_path / "repro.sock")
    service = SimulationService(ServicePolicy(workers=1))
    server = make_server(service, socket_path=socket_path)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with ServiceClient(socket_path=socket_path) as client:
            assert client.health()["status"] == "ok"
            assert client.submit(gemm(12))["total_cycles"] > 0
    finally:
        server.shutdown()
        server.server_close()
        service.drain(timeout=5)
    assert not (tmp_path / "repro.sock").exists()  # socket cleaned up


def test_unix_socket_relative_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    service = SimulationService(ServicePolicy(workers=1))
    server = make_server(service, socket_path="./rel.sock")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with ServiceClient(socket_path="./rel.sock") as client:
            assert client.health()["status"] == "ok"
    finally:
        server.shutdown()
        server.server_close()
        service.drain(timeout=5)
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert not (tmp_path / "rel.sock").exists()


# ----------------------------------------------------------------------
# Keep-alive framing: a response that leaves body bytes unread closes
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "path, length, status",
    [
        ("/nope", None, 404),
        ("/submit", str(MAX_BODY_BYTES + 1), 413),
        ("/submit", "many", 413),
    ],
)
def test_unread_body_closes_the_connection(http_daemon, path, length, status):
    _service, port = http_daemon
    leftover = b'{"kind": "gemm", "m": 1, "k": 1, "n": 1}'
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Length", length or str(len(leftover)))
        connection.endheaders(leftover)
        response = connection.getresponse()
        response.read()
        assert response.status == status
        assert response.getheader("Connection") == "close"
        assert connection.sock is None  # the next request reconnects

        connection.request(
            "POST", "/submit", body=json.dumps(gemm(16)).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        reply = json.loads(response.read())
        assert response.status == 200, reply
        assert reply["total_cycles"] == execute_job(normalize_request(gemm(16)))["total_cycles"]
        assert response.getheader("Connection") is None  # kept alive
    finally:
        connection.close()


def test_idle_connection_is_closed_after_the_idle_timeout(monkeypatch):
    monkeypatch.setattr("repro.serve.daemon.IDLE_TIMEOUT_S", 0.2)
    service = SimulationService(ServicePolicy(workers=1))
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=30)
    try:
        connection.request("GET", "/health")
        response = connection.getresponse()
        response.read()
        assert response.status == 200 and connection.sock is not None
        start = time.monotonic()
        assert connection.sock.recv(1) == b""  # the daemon hung up
        assert 0.1 < time.monotonic() - start < 10
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        service.drain(timeout=5)


# ----------------------------------------------------------------------
# Client: one kept-alive connection per thread, one reconnect
# ----------------------------------------------------------------------

class _UnixDaemon:
    """An in-process daemon on a unix socket that counts accepted connections."""

    def __init__(self, socket_path, policy=None):
        self.service = SimulationService(policy or ServicePolicy(workers=2))
        self.server = make_server(self.service, socket_path=socket_path)
        self.accepted = 0
        process_request = self.server.process_request

        def counting(request, client_address):
            self.accepted += 1
            process_request(request, client_address)

        self.server.process_request = counting
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.drain(timeout=5)
        self.thread.join(timeout=5)


def test_client_reuses_one_connection(tmp_path):
    path = str(tmp_path / "repro.sock")
    daemon = _UnixDaemon(path)
    try:
        with ServiceClient(socket_path=path) as client:
            for m in range(1, 21):
                assert client.submit(gemm(m))["status"] == "ok"
            assert client.health()["counters"]["completed"] == 20
            assert "repro_serve_completed_total" in client.metrics_text()
    finally:
        daemon.stop()
    assert daemon.accepted == 1


def test_client_reconnects_once_after_a_daemon_restart(tmp_path, monkeypatch):
    path = str(tmp_path / "repro.sock")
    connects = []
    connect = _UnixHTTPConnection.connect

    def counting_connect(self):
        connects.append(self)
        connect(self)

    monkeypatch.setattr(_UnixHTTPConnection, "connect", counting_connect)
    with ServiceClient(socket_path=path) as client:
        first = _UnixDaemon(path)
        try:
            assert client.submit(gemm(8))["status"] == "ok"
        finally:
            start = time.monotonic()
            first.stop()
        # shutdown ends the client's idle connection instead of waiting it out
        assert time.monotonic() - start < 5
        second = _UnixDaemon(path)
        try:
            assert client.submit(gemm(8))["status"] == "ok"
        finally:
            second.stop()
    assert len(connects) == 2  # the first connection, then one reconnect
    assert (first.accepted, second.accepted) == (1, 1)


@pytest.mark.parametrize("transport", ["unix", "tcp"])
def test_submit_without_a_daemon_fails_promptly(tmp_path, transport):
    if transport == "unix":
        client = ServiceClient(socket_path=str(tmp_path / "absent.sock"))
    else:
        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServiceClient(port=port)
    start = time.monotonic()
    with client, pytest.raises(ServiceError, match="cannot reach daemon"):
        client.submit(gemm(8))
    assert time.monotonic() - start < 5


def test_many_client_threads_against_one_daemon(tmp_path):
    """More client threads than cores, a short switch interval, one
    daemon: every request is executed or joined exactly once, every
    reply equals ``execute_job``, and no thread outlives shutdown."""
    threads_n = 2 * (os.cpu_count() or 1) + 2
    per_thread = 12
    payloads = [gemm(m) for m in (8, 16, 24, 32, 40)]
    handling = {"status", "key", "kind", "singleflight", "duration", "correlation_id"}
    expected = {
        json.dumps(p, sort_keys=True): execute_job(normalize_request(p)) for p in payloads
    }
    before = set(threading.enumerate())
    path = str(tmp_path / "repro.sock")
    replies, errors = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        daemon = _UnixDaemon(
            path,
            ServicePolicy(workers=2, max_queue=threads_n, client_quota=threads_n),
        )
        shared = ServiceClient(socket_path=path, client_id="shared")

        def load(number):
            own = ServiceClient(socket_path=path, client_id=f"own{number}")
            client = shared if number % 2 else own
            try:
                for i in range(per_thread):
                    payload = payloads[(number + i) % len(payloads)]
                    replies.append((payload, client.submit(payload)))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                own.close()

        clients = [threading.Thread(target=load, args=(n,)) for n in range(threads_n)]
        for thread in clients:
            thread.start()
        deadline = time.monotonic() + 120
        for thread in clients:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in clients), "client threads hung"
        shared.close()
        counters = daemon.service.health()["counters"]
    finally:
        sys.setswitchinterval(interval)
        daemon.stop()

    assert not errors, errors
    requests = threads_n * per_thread
    assert len(replies) == requests
    assert counters["requests"] == counters["completed"] == requests
    assert counters["executed"] + counters["singleflight_joined"] == requests
    for payload, reply in replies:
        want = expected[json.dumps(payload, sort_keys=True)]
        assert {k: v for k, v in reply.items() if k not in handling} == want
    leftover = [thread for thread in threading.enumerate() if thread not in before]
    for thread in leftover:
        thread.join(timeout=10)
    assert not [thread for thread in leftover if thread.is_alive()]


def test_client_retry_honours_retry_after(monkeypatch):
    calls = []

    def fake_request(self, method, path, body=None, correlation_id=None):
        calls.append(path)
        if len(calls) < 3:
            return 429, {"Retry-After": "0.05"}, {"status": "rejected"}
        return 200, {}, {"status": "ok"}

    monkeypatch.setattr(ServiceClient, "_request", fake_request)
    client = ServiceClient()
    assert client.submit(gemm(1), max_retries=5)["status"] == "ok"
    assert len(calls) == 3

    calls.clear()
    with pytest.raises(ServiceUnavailableError):
        ServiceClient().submit(gemm(1), max_retries=1)
    assert len(calls) == 2
