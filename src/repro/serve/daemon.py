"""Long-lived simulation daemon: admission control, single-flight, drain.

:class:`SimulationService` is the transport-independent core — a
bounded job table in front of a thread pool — and the HTTP layer
(:func:`make_server`) exposes it as JSON over localhost TCP or a unix
domain socket, stdlib only.

Admission control (the "stays up under abuse" contract):

* **Bounded queue.**  At most ``workers + max_queue`` distinct jobs may
  be admitted at once; past that a request is rejected with HTTP 429
  and a ``Retry-After`` header instead of growing memory without bound.
* **Per-client quotas.**  Each client (``X-Repro-Client`` header, or
  ``"anonymous"``) may have ``client_quota`` requests in flight;
  excess requests get 429 without consuming queue slots.
* **Single-flight dedup.**  Requests are keyed by
  :func:`repro.serve.jobs.job_key`; a request identical to one already
  in flight *joins* it — one execution, N responses — so a thundering
  herd of identical sweeps costs one simulation.  Layers a completed
  job simulated stay in the process-wide LRU (:mod:`repro.perf.cache`),
  so non-overlapping repeats are served from memory.
* **Request timeouts.**  Jobs execute through
  :func:`repro.robust.executor.execute_point` under an
  :class:`~repro.robust.policy.ExecutionPolicy` wall-clock budget; a
  runaway job yields a 500 for its waiters, never a wedged daemon.
* **Graceful shutdown.**  SIGTERM/SIGINT stop admission (503 for new
  requests), drain in-flight jobs up to ``drain_timeout`` seconds, then
  exit cleanly.

Endpoints::

    POST /submit   body = job request JSON       -> job result
    GET  /health   pool + quota snapshot         -> 200 always
"""

from __future__ import annotations

import concurrent.futures
import json
import logging
import os
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro._version import __version__
from repro.errors import ServiceError
from repro.obs import metrics, trace
from repro.obs.service import (
    CORRELATION_HEADER,
    CORRELATION_KEY,
    new_correlation_id,
    prometheus_text,
)
from repro.robust.executor import execute_point
from repro.robust.policy import ExecutionPolicy
from repro.serve.jobs import execute_job, job_key, normalize_request

logger = logging.getLogger("repro.serve")

#: Client id used when a request does not identify itself.
ANONYMOUS = "anonymous"


@dataclass(frozen=True)
class ServicePolicy:
    """Admission-control envelope of one daemon instance.

    ``workers`` job threads execute concurrently; up to ``max_queue``
    more jobs may wait.  ``client_quota`` bounds any one client's
    in-flight requests (joins included).  ``request_timeout`` is the
    per-job wall-clock budget (``None`` = unbounded), enforced through
    the same :class:`ExecutionPolicy` machinery as sweep points.
    ``retry_after`` seeds the ``Retry-After`` header on 429/503.
    """

    workers: int = 2
    max_queue: int = 8
    client_quota: int = 4
    request_timeout: Optional[float] = None
    retry_after: float = 1.0
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.client_quota < 1:
            raise ValueError(f"client_quota must be >= 1, got {self.client_quota}")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError(f"request_timeout must be > 0, got {self.request_timeout}")
        if self.retry_after <= 0:
            raise ValueError(f"retry_after must be > 0, got {self.retry_after}")
        if self.drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {self.drain_timeout}")

    @property
    def admission_limit(self) -> int:
        """Distinct jobs that may be admitted at once (running + queued)."""
        return self.workers + self.max_queue


class _Job:
    """One in-flight execution plus everyone waiting on it."""

    __slots__ = ("key", "request", "future", "waiters", "submitted_unix")

    def __init__(self, key: str, request: Dict, future: concurrent.futures.Future):
        self.key = key
        self.request = request
        self.future = future
        self.waiters = 1
        self.submitted_unix = time.time()


class SimulationService:
    """Transport-independent daemon core; see the module docstring.

    With a ``ledger`` directory, sweep jobs journal their points there
    and reuse the completed ones (``repro serve --ledger DIR``).
    """

    def __init__(
        self, policy: Optional[ServicePolicy] = None, ledger: Optional[str] = None
    ):
        self.policy = policy or ServicePolicy()
        self.ledger = ledger
        self.started_unix = time.time()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.policy.workers, thread_name_prefix="repro-serve"
        )
        self._exec_policy = ExecutionPolicy(timeout=self.policy.request_timeout)
        self._lock = threading.Lock()
        self._jobs: Dict[str, _Job] = {}
        self._inflight_clients: Dict[str, int] = {}
        self._draining = False
        self._counts = {
            "requests": 0, "executed": 0, "singleflight_joined": 0,
            "rejected_queue": 0, "rejected_quota": 0, "rejected_draining": 0,
            "bad_requests": 0, "failures": 0, "completed": 0,
        }

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counts[name] += delta
        if metrics.enabled:
            metrics.counter(f"serve.{name}").add(delta)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        payload: object,
        client: str = ANONYMOUS,
        correlation_id: Optional[str] = None,
    ) -> Tuple[int, Dict]:
        """Admit, dedup and execute one request; block until its result.

        Returns ``(http_status, response_body)``.  Never raises for
        request-level problems — admission failures and job failures
        are structured responses.

        ``correlation_id`` is the client-minted request ID (from the
        ``X-Repro-Correlation-Id`` header); one is minted at ingress if
        absent.  It is bound into the tracer's thread-local context for
        the whole request, stamped on the job thread too, and echoed in
        the response body — one ID stitches the request's queue-wait
        and execution segments across every thread that touched it.
        """
        cid = correlation_id or new_correlation_id()
        with trace.bound(**{CORRELATION_KEY: cid}):
            with trace.span("serve.request", category="serve") as span:
                status, body = self._submit(payload, client or ANONYMOUS, cid)
                span.set(status=status)
        body.setdefault("correlation_id", cid)
        return status, body

    def _submit(self, payload: object, client: str, cid: str) -> Tuple[int, Dict]:
        self._count("requests")
        try:
            request = normalize_request(payload)
        except ServiceError as exc:
            self._count("bad_requests")
            return 400, {"status": "invalid", "error": str(exc)}

        joined = False
        with self._lock:
            if self._draining:
                return self._locked_reject(
                    503, "service is draining for shutdown", "rejected_draining"
                )
            if self._inflight_clients.get(client, 0) >= self.policy.client_quota:
                return self._locked_reject(
                    429,
                    f"client {client!r} has {self.policy.client_quota} "
                    "request(s) in flight (quota)",
                    "rejected_quota",
                )
            key = job_key(request)
            job = self._jobs.get(key)
            if job is not None:
                job.waiters += 1
                joined = True
            else:
                if len(self._jobs) >= self.policy.admission_limit:
                    return self._locked_reject(
                        429,
                        f"job queue is full ({self.policy.admission_limit} "
                        "in flight)",
                        "rejected_queue",
                    )
                future = self._pool.submit(
                    self._run_job, key, request, cid, trace.now_ns()
                )
                job = _Job(key, request, future)
                self._jobs[key] = job
            self._inflight_clients[client] = self._inflight_clients.get(client, 0) + 1
        if joined:
            self._count("singleflight_joined")
            logger.info(
                "cid=%s joined in-flight job %s (%s, client=%s)",
                cid, job.key[:12], request["kind"], client,
            )
        else:
            logger.info(
                "cid=%s admitted job %s (%s, client=%s)",
                cid, job.key[:12], request["kind"], client,
            )
        try:
            record = job.future.result()
        except (concurrent.futures.CancelledError, RuntimeError) as exc:
            # The pool shut down under this waiter (drain timeout hit).
            self._count("failures")
            return 503, {
                "status": "rejected",
                "error": f"job abandoned during shutdown: {exc}",
                "retry_after": self.policy.retry_after,
            }
        finally:
            with self._lock:
                remaining = self._inflight_clients.get(client, 1) - 1
                if remaining > 0:
                    self._inflight_clients[client] = remaining
                else:
                    self._inflight_clients.pop(client, None)
        if record.status != "ok":
            self._count("failures")
            return 500, {
                "status": "error",
                "key": job.key,
                "error": record.error,
                "attempts": record.attempts,
            }
        body = dict(record.rows[0])
        self._count("completed")
        return 200, {
            "status": "ok",
            "key": job.key,
            "kind": request["kind"],
            "singleflight": joined,
            "duration": record.duration,
            **body,
        }

    def _locked_reject(self, status: int, reason: str, counter: str) -> Tuple[int, Dict]:
        """Reject while already holding the lock (no metrics deadlock)."""
        self._counts[counter] += 1
        if metrics.enabled:
            metrics.counter(f"serve.{counter}").add()
        logger.info("rejected request: %s", reason)
        return status, {
            "status": "rejected",
            "error": reason,
            "retry_after": self.policy.retry_after,
        }

    def _run_job(self, key: str, request: Dict, cid: str, enqueue_ns: int):
        """Job-thread body: run one job under the execution policy.

        Rebinds the request's correlation ID on the (pooled, reused)
        job thread, synthesizes the queue-wait segment from the
        enqueue timestamp, and times the execution into the per-kind
        latency histogram.
        """
        self._count("executed")
        kind = request["kind"]
        trace.bind(**{CORRELATION_KEY: cid})
        try:
            wait_ns = max(0, trace.now_ns() - enqueue_ns)
            trace.add_span(
                "serve.queue_wait", enqueue_ns, wait_ns, category="serve", kind=kind
            )
            if metrics.enabled:
                metrics.histogram("serve.queue_wait_seconds").observe(wait_ns / 1e9)
            params = {"request": request}
            if self.ledger is not None:
                params["ledger"] = self.ledger
            start = time.perf_counter()
            with trace.span("serve.execute", category="serve", kind=kind, key=key):
                record = execute_point(
                    execute_job, params, policy=self._exec_policy, key=key
                )
            if metrics.enabled:
                metrics.histogram('serve.job_seconds{kind="%s"}' % kind).observe(
                    time.perf_counter() - start
                )
            logger.info(
                "cid=%s job %s finished (%s, status=%s, %.3fs)",
                cid, key[:12], kind, record.status, time.perf_counter() - start,
            )
            return record
        finally:
            trace.unbind(CORRELATION_KEY)
            with self._lock:
                self._jobs.pop(key, None)

    # ------------------------------------------------------------------
    # Health & shutdown
    # ------------------------------------------------------------------
    def health(self) -> Dict:
        with self._lock:
            jobs = len(self._jobs)
            clients = dict(self._inflight_clients)
            counts = dict(self._counts)
            draining = self._draining
        return {
            "status": "draining" if draining else "ok",
            "version": __version__,
            "pid": os.getpid(),
            "uptime": time.time() - self.started_unix,
            "policy": {
                "workers": self.policy.workers,
                "max_queue": self.policy.max_queue,
                "client_quota": self.policy.client_quota,
                "request_timeout": self.policy.request_timeout,
            },
            "jobs_in_flight": jobs,
            "clients_in_flight": clients,
            "counters": counts,
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /metrics``.

        Merges the admission counters (authoritative here even when the
        shared registry is disabled) and runtime gauges over the
        registry snapshot; identical raw names dedup, so the mirrored
        ``serve.*`` counters never export twice.
        """
        with self._lock:
            counts = dict(self._counts)
            jobs = len(self._jobs)
            clients = len(self._inflight_clients)
            draining = self._draining
        extra_counters = {f"serve.{name}": value for name, value in counts.items()}
        extra_gauges = {
            "uptime_seconds": time.time() - self.started_unix,
            "serve.jobs_in_flight": jobs,
            "serve.queue_depth": max(0, jobs - self.policy.workers),
            "serve.clients_in_flight": clients,
            "serve.draining": 1 if draining else 0,
            'build_info{version="%s"}' % __version__: 1,
        }
        return prometheus_text(
            metrics, extra_counters=extra_counters, extra_gauges=extra_gauges
        )

    def drain(self, timeout: Optional[float] = None) -> int:
        """Stop admitting, wait for in-flight jobs, shut the pool down.

        Returns the number of jobs that were still in flight when the
        drain began.  Jobs not finished within ``timeout`` seconds are
        abandoned (their waiters see the pool shutdown error).
        """
        budget = self.policy.drain_timeout if timeout is None else timeout
        with self._lock:
            self._draining = True
            pending = list(self._jobs.values())
        if pending:
            logger.info("draining %d in-flight job(s)", len(pending))
        deadline = time.monotonic() + budget
        for job in pending:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                job.future.result(timeout=remaining)
            except concurrent.futures.TimeoutError:
                logger.warning("job %s did not drain within %.1fs", job.key, budget)
            except Exception:  # noqa: BLE001 - failures already recorded
                pass
        self._pool.shutdown(wait=False, cancel_futures=True)
        if metrics.enabled:
            metrics.counter("serve.drains").add()
        return len(pending)


# ----------------------------------------------------------------------
# HTTP transport (stdlib only)
# ----------------------------------------------------------------------

MAX_BODY_BYTES = 1 << 20  # a request is a small JSON document


class _Handler(BaseHTTPRequestHandler):
    service: SimulationService  # injected by make_server
    protocol_version = "HTTP/1.1"

    # BaseHTTPRequestHandler logs to stderr by default; route to logging.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("http %s", format % args)

    def _send_json(
        self, status: int, body: Dict, headers: Optional[Dict[str, str]] = None
    ) -> None:
        data = (json.dumps(body, default=repr) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if status in (429, 503):
            self.send_header("Retry-After", str(body.get("retry_after", 1)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client gave up while we simulated; nothing to do

    def _send_metrics(self) -> None:
        data = self.service.metrics_text().encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?")[0]
        if path in ("/health", "/"):
            self._send_json(200, self.service.health())
        elif path == "/metrics":
            self._send_metrics()
        else:
            self._send_json(404, {"status": "invalid", "error": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?")[0] != "/submit":
            self._send_json(404, {"status": "invalid", "error": f"no route {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(
                413, {"status": "invalid", "error": f"body must be 0..{MAX_BODY_BYTES} bytes"}
            )
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send_json(400, {"status": "invalid", "error": f"bad JSON body: {exc}"})
            return
        client = self.headers.get("X-Repro-Client", ANONYMOUS)
        cid = (self.headers.get(CORRELATION_HEADER) or "").strip() or None
        status, body = self.service.submit(payload, client=client, correlation_id=cid)
        echo = body.get("correlation_id")
        self._send_json(
            status, body, headers={CORRELATION_HEADER: echo} if echo else None
        )


class ReproHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class UnixHTTPServer(ReproHTTPServer):
    """HTTP over a unix domain socket (same wire format, no TCP port)."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        path = self.server_address
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            os.unlink(path)  # stale socket from a previous daemon
        # Not HTTPServer.server_bind: it reads the path as (host, port)
        # and resolves its first character with socket.getfqdn, which
        # raises on "./..." and does a hostname lookup otherwise.
        socketserver.TCPServer.server_bind(self)
        self.server_name = os.fsdecode(self.server_address)
        self.server_port = 0

    # http.server expects (host, port) tuples in a few log paths.
    def server_close(self) -> None:
        super().server_close()
        path = self.server_address
        if isinstance(path, (str, os.PathLike)):
            try:
                os.unlink(path)
            except OSError:
                pass


#: Modules the job kinds execute (``repro.sweep`` comes with the jobs).
_JOB_PATH = ("repro.engine.simulator", "repro.engine.scaleout")


def make_server(
    service: SimulationService,
    host: str = "127.0.0.1",
    port: int = 8787,
    socket_path: Optional[str] = None,
) -> ReproHTTPServer:
    """Bind the HTTP front door (TCP by default, unix socket if given).

    The job path is imported before the socket binds, so a daemon that
    answers ``/health`` is ready and no request pays an import.
    """
    for module in _JOB_PATH:
        __import__(module)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    try:
        if socket_path:
            return UnixHTTPServer(socket_path, handler)
        return ReproHTTPServer((host, port), handler)
    except OSError as exc:
        where = socket_path or f"{host}:{port}"
        raise ServiceError(f"cannot bind daemon to {where}: {exc}") from exc


def serve_until_signalled(
    server: ReproHTTPServer,
    service: SimulationService,
) -> int:
    """Run the accept loop until ``server.shutdown()``; drain and return.

    The caller installs SIGTERM/SIGINT handlers that call
    ``server.shutdown()`` from a helper thread, which unblocks
    ``serve_forever``; this keeps the function test-drivable without
    touching process-global signal state.
    """
    where = server.server_address
    logger.info("repro daemon listening on %s (pid %d)", where, os.getpid())
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        drained = service.drain()
        logger.info("daemon shut down cleanly (%d job(s) drained)", drained)
    return 0
