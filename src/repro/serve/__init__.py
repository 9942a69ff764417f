"""Simulation-as-a-service (``repro.serve``).

A long-lived daemon wrapping the simulator behind JSON over localhost
HTTP or a unix socket, with admission control (bounded queue + 429
back-pressure, per-client quotas), single-flight dedup of identical
in-flight requests, the shared :mod:`repro.store` result store, and a
graceful SIGTERM drain.  See
:mod:`repro.serve.daemon` for the protocol and docs/service.md for the
operator guide.
"""

from repro.serve.client import DEFAULT_PORT, ServiceClient
from repro.serve.daemon import (
    ReproHTTPServer,
    ServicePolicy,
    SimulationService,
    UnixHTTPServer,
    make_server,
    serve_until_signalled,
)
from repro.serve.jobs import JOB_KINDS, execute_job, job_key, normalize_request

__all__ = [
    "DEFAULT_PORT",
    "JOB_KINDS",
    "ReproHTTPServer",
    "ServiceClient",
    "ServicePolicy",
    "SimulationService",
    "UnixHTTPServer",
    "execute_job",
    "job_key",
    "make_server",
    "normalize_request",
    "serve_until_signalled",
]
