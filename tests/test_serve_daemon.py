"""The simulation daemon: admission control, single-flight, drain, HTTP.

``SimulationService`` is exercised in-process (deterministic gating via
monkeypatched job execution), then the stdlib HTTP layer end-to-end on
an ephemeral TCP port and a unix domain socket.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro._version import __version__
from repro.errors import ServiceUnavailableError
from repro.obs.service import (
    CORRELATION_KEY,
    parse_prometheus_text,
    sample_value,
)
from repro.serve.client import ServiceClient
from repro.serve.daemon import (
    ServicePolicy,
    SimulationService,
    make_server,
)
from repro.serve.jobs import job_key, normalize_request


def gemm(m: int) -> dict:
    return {"kind": "gemm", "m": m, "k": 8, "n": 8, "array": "8x8"}


class Gate:
    """Blocks job execution until the test releases it."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self, request):
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
    client = ServiceClient(port=port, client_id="pytest")
    health = client.health()
    assert health["status"] == "ok"
    body = client.submit(gemm(16))
    assert body["status"] == "ok" and body["total_cycles"] > 0


def test_http_rejection_carries_retry_after(http_daemon, monkeypatch):
    service, port = http_daemon
    monkeypatch.setattr(service, "policy", ServicePolicy(workers=2, retry_after=3.0))
    service._draining = True  # cheapest deterministic rejection
    client = ServiceClient(port=port)
    with pytest.raises(ServiceUnavailableError) as excinfo:
        client.submit(gemm(1))
    assert excinfo.value.retry_after == 3.0
    service._draining = False


def test_http_metrics_scrape_parses(http_daemon):
    _service, port = http_daemon
    client = ServiceClient(port=port, client_id="pytest")
    assert client.submit(gemm(16))["status"] == "ok"
    families = parse_prometheus_text(client.metrics_text())
    # admission counters flow through even without obs.metrics enabled
    assert sample_value(families, "repro_serve_executed_total") >= 1
    assert sample_value(families, "repro_serve_queue_depth") is not None
    assert sample_value(families, "repro_build_info", version=__version__) == 1


def test_http_correlation_header_echoed(http_daemon):
    from repro.obs.service import CORRELATION_HEADER

    _service, port = http_daemon
    client = ServiceClient(port=port)
    status, headers, body = client._request(
        "POST", "/submit", body=gemm(20), correlation_id="cafe0123cafe0123"
    )
    assert status == 200
    assert body["correlation_id"] == "cafe0123cafe0123"
    assert headers.get(CORRELATION_HEADER) == "cafe0123cafe0123"


def test_http_bad_json_and_unknown_routes(http_daemon):
    _service, port = http_daemon
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    connection.request("POST", "/submit", body=b"{not json", headers={"Content-Length": "9"})
    assert connection.getresponse().status == 400
    connection.close()

    status, _headers, body = ServiceClient(port=port)._request("GET", "/no-such-route")
    assert status == 404 and body["status"] == "invalid"


def test_unix_socket_round_trip(tmp_path):
    socket_path = str(tmp_path / "repro.sock")
    service = SimulationService(ServicePolicy(workers=1))
    server = make_server(service, socket_path=socket_path)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(socket_path=socket_path)
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
        assert ServiceClient(socket_path="./rel.sock").health()["status"] == "ok"
    finally:
        server.shutdown()
        server.server_close()
        service.drain(timeout=5)
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert not (tmp_path / "rel.sock").exists()


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
