"""Simulation-as-a-service (``repro.serve``).

A long-lived daemon wrapping the simulator behind JSON over localhost
HTTP or a unix socket, with admission control (bounded queue + 429
back-pressure, per-client quotas), single-flight dedup of identical
in-flight requests, and a graceful SIGTERM drain.  See
:mod:`repro.serve.daemon` for the protocol and docs/service.md for the
operator guide.
"""
