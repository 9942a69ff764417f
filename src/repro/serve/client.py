"""Thin client for the simulation daemon (``repro submit``).

Stdlib-only JSON-over-HTTP against either the daemon's localhost TCP
port or its unix domain socket.  Each calling thread keeps one
HTTP/1.1 connection open and reuses it for every request; a reused
connection the daemon has closed in the meantime (idle timeout,
restart) is replaced once, transparently, when no byte of the response
arrived.  :meth:`ServiceClient.close` (or a ``with`` block) closes every
connection the client holds.

Back-pressure is a first-class outcome: a 429/503 raises
:class:`~repro.errors.ServiceUnavailableError` carrying the server's
``Retry-After`` hint, and :meth:`ServiceClient.submit` can optionally
honour it with a bounded retry loop — the polite client the admission
controller is designed for.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Dict, Optional, Tuple

from repro.errors import ServiceError, ServiceUnavailableError
from repro.obs.service import CORRELATION_HEADER, new_correlation_id

DEFAULT_PORT = 8787

#: How a reused connection fails when the daemon closed it before
#: answering: the send hits a closed peer, or the status line never
#: comes (``http.client.RemoteDisconnected`` is a ConnectionResetError).
_STALE = (BrokenPipeError, ConnectionResetError)


class _UnixHTTPConnection(http.client.HTTPConnection):
    """HTTPConnection whose transport is a unix domain socket."""

    def __init__(self, socket_path: str, timeout: Optional[float] = None):
        super().__init__("localhost", timeout=timeout if timeout is not None else 60.0)
        self.socket_path = socket_path

    def connect(self) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            self.sock.settimeout(self.timeout)
        self.sock.connect(self.socket_path)


class ServiceClient:
    """One logical client of a running daemon.

    ``client_id`` feeds the server's per-client quota accounting; give
    each cooperating process its own id so one greedy client cannot
    starve the rest.  One client may be shared by many threads: each
    gets a connection of its own.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        socket_path: Optional[str] = None,
        client_id: str = "anonymous",
        timeout: float = 300.0,
    ):
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.client_id = client_id
        self.timeout = timeout
        self._lock = threading.Lock()
        self._connections: Dict[threading.Thread, http.client.HTTPConnection] = {}

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection; a later request reconnects."""
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection, made on its first request."""
        thread = threading.current_thread()
        connection = self._connections.get(thread)
        if connection is not None:
            return connection
        if self.socket_path:
            connection = _UnixHTTPConnection(self.socket_path, timeout=self.timeout)
        else:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        with self._lock:
            # a thread that has ended leaves its connection behind
            for gone in [t for t in self._connections if not t.is_alive()]:
                self._connections.pop(gone).close()
            self._connections[thread] = connection
        return connection

    def _exchange(
        self, method: str, path: str, payload: Optional[bytes], headers: Dict[str, str]
    ) -> Tuple[int, Dict, bytes]:
        """One round trip on the calling thread's connection.

        Returns ``(status, headers, raw_body)``; raises ServiceError on
        transport failures.
        """
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
            except _STALE:
                connection.close()
                if not reused:
                    raise
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
            return response.status, dict(response.headers), response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            where = self.socket_path or f"{self.host}:{self.port}"
            raise ServiceError(f"cannot reach daemon at {where}: {exc}") from exc
        except BaseException:
            connection.close()  # an interrupted exchange leaves it mid-response
            raise

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        correlation_id: Optional[str] = None,
    ) -> Tuple[int, Dict, Dict]:
        """Returns ``(status, headers, parsed_body)``; raises ServiceError
        on transport failures or non-JSON responses."""
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"X-Repro-Client": self.client_id}
        if correlation_id:
            headers[CORRELATION_HEADER] = correlation_id
        if payload is not None:
            headers["Content-Type"] = "application/json"
        status, response_headers, raw = self._exchange(method, path, payload, headers)
        try:
            parsed = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"daemon returned non-JSON body for {method} {path}: {exc}"
            ) from exc
        if not isinstance(parsed, dict):
            raise ServiceError(f"daemon returned non-object body for {method} {path}")
        return status, response_headers, parsed

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def health(self) -> Dict:
        status, _headers, body = self._request("GET", "/health")
        if status != 200:
            raise ServiceError(f"health check failed with HTTP {status}: {body}")
        return body

    def metrics_text(self) -> str:
        """The daemon's raw Prometheus exposition (``GET /metrics``)."""
        status, _headers, raw = self._exchange(
            "GET", "/metrics", None, {"X-Repro-Client": self.client_id}
        )
        if status != 200:
            raise ServiceError(f"metrics scrape failed with HTTP {status}")
        return raw.decode()

    def submit(
        self,
        request: Dict,
        max_retries: int = 0,
        correlation_id: Optional[str] = None,
    ) -> Dict:
        """Submit one job and return its result body.

        On back-pressure (429/503) the call sleeps for the server's
        ``Retry-After`` and retries, at most ``max_retries`` times;
        exhausted retries raise :class:`ServiceUnavailableError`.
        Invalid requests and job failures raise :class:`ServiceError`.

        A correlation ID is minted client-side (unless given) and sent
        in the ``X-Repro-Correlation-Id`` header; retries reuse the
        same ID, so the daemon's logs show one request story.  The ID
        comes back in the response body as ``correlation_id``.
        """
        cid = correlation_id or new_correlation_id()
        attempt = 0
        while True:
            status, headers, body = self._request(
                "POST", "/submit", body=request, correlation_id=cid
            )
            if status == 200:
                return body
            if status in (429, 503):
                retry_after = _retry_after(headers, body)
                if attempt < max_retries:
                    attempt += 1
                    time.sleep(retry_after)
                    continue
                raise ServiceUnavailableError(
                    f"daemon rejected the request ({body.get('error', status)})",
                    retry_after=retry_after,
                )
            raise ServiceError(
                f"job failed with HTTP {status}: {body.get('error', body)}"
            )


def _retry_after(headers: Dict, body: Dict) -> float:
    for source in (headers.get("Retry-After"), body.get("retry_after")):
        try:
            if source is not None:
                return max(0.05, float(source))
        except (TypeError, ValueError):
            continue
    return 1.0
