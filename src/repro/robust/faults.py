"""Deterministic fault injection for testing the robust layer.

Wrap any point callable with :func:`inject_faults` to make specific
grid points misbehave in precisely scripted ways — no randomness, no
real clocks — so retry, timeout, checkpoint-resume and invariant-guard
behaviour can be asserted exactly:

    faulty = inject_faults(
        simulate_point,
        Fault(kind="transient", when={"macs": 4096}, times=2),
        Fault(kind="corrupt", when={"macs": 16384},
              mutate=lambda row: {**row, "cycles": row["cycles"] + 999}),
    )

Fault kinds:

* ``"transient"`` — raise :class:`InjectedFault` for the first
  ``times`` matching calls, then behave normally (exercises retries).
* ``"timeout"`` — raise :class:`~repro.errors.PointTimeoutError`
  directly, simulating a hung point without burning wall-clock time.
* ``"interrupt"`` — raise :class:`KeyboardInterrupt`, simulating an
  operator killing the run mid-sweep (exercises checkpoint resume).
* ``"corrupt"`` — let the call succeed, then pass each result row
  through ``mutate`` (exercises invariant guards downstream).

``times`` counts *calls matching that fault*, so a ``times=2``
transient fault fails a point's first two attempts and lets the third
succeed — deterministic retry testing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import PointTimeoutError

FAULT_KINDS = ("transient", "timeout", "interrupt", "corrupt")


class InjectedFault(RuntimeError):
    """A scripted transient failure raised by the fault injector."""


@dataclass
class Fault:
    """One scripted misbehaviour.

    ``when`` is a parameter subset that must match the call's keyword
    arguments (``None`` matches every call); ``times`` caps how many
    matching calls trigger it (``None`` = always).  ``mutate`` is
    required for ``kind="corrupt"`` and maps one result row to its
    corrupted form.
    """

    kind: str
    when: Optional[Dict] = None
    times: Optional[int] = 1
    mutate: Optional[Callable[[Dict], Dict]] = None
    exc: Optional[Callable[[], BaseException]] = None
    _fired: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.kind == "corrupt" and self.mutate is None:
            raise ValueError("corrupt faults need a mutate callable")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")

    @property
    def fired(self) -> int:
        """How many times this fault has triggered so far."""
        return self._fired

    def matches(self, params: Dict) -> bool:
        if self.times is not None and self._fired >= self.times:
            return False
        if self.when is None:
            return True
        return all(params.get(key) == value for key, value in self.when.items())

    def trigger(self, params: Dict) -> None:
        """Raise this fault's exception (non-corrupt kinds)."""
        self._fired += 1
        _record_injection(self, params)
        if self.kind == "transient":
            raise (self.exc() if self.exc else InjectedFault(
                f"injected transient failure #{self._fired} at {_describe(params)}"
            ))
        if self.kind == "timeout":
            raise PointTimeoutError(
                f"injected timeout #{self._fired} at {_describe(params)}"
            )
        if self.kind == "interrupt":
            raise KeyboardInterrupt(
                f"injected interrupt #{self._fired} at {_describe(params)}"
            )
        raise AssertionError(f"trigger() called for kind {self.kind!r}")


def _record_injection(fault: "Fault", params: Dict) -> None:
    """Account one injected fault in the observability layer."""
    from repro.obs import metrics, trace

    metrics.counter("robust.faults_injected").add()
    trace.event("robust.fault_injected", kind=fault.kind, fired=fault.fired)


def _describe(params: Dict) -> str:
    try:
        return json.dumps(params, sort_keys=True, default=repr)
    except TypeError:  # pragma: no cover - default=repr is total
        return repr(params)


def scenario_seed(params: Dict, seed: int = 0) -> int:
    """Deterministic per-point seed: hash of the sweep parameters + seed.

    The same grid point always draws the same fault scenario across
    runs and resumes, yet distinct points get independent scenarios —
    the degraded-mode analogue of the checkpoint key.
    """
    import hashlib

    canonical = json.dumps({"params": params, "seed": seed}, sort_keys=True, default=repr)
    return int.from_bytes(hashlib.sha256(canonical.encode()).digest()[:8], "big")


def fault_scenario(
    params: Dict,
    partition_rows: int,
    partition_cols: int,
    dead_partitions: int = 1,
    dead_links: int = 0,
    seed: int = 0,
):
    """Draw a deterministic degraded-hardware scenario for one sweep point.

    Returns a :class:`~repro.resilience.faultmap.FaultMap` sampled by
    :func:`~repro.resilience.faultmap.random_fault_map` under the per-point seed
    of :func:`scenario_seed`, so injecting hardware faults into a sweep
    is reproducible point by point.
    """
    from repro.resilience.faultmap import random_fault_map

    return random_fault_map(
        partition_rows,
        partition_cols,
        dead_partitions=dead_partitions,
        dead_links=dead_links,
        seed=scenario_seed(params, seed),
    )


def inject_faults(fn: Callable[..., object], *faults: Fault) -> Callable[..., object]:
    """Wrap ``fn`` so the scripted ``faults`` fire on matching calls.

    Faults are evaluated in order; the first matching raising fault
    (transient/timeout/interrupt) fires per call, while every matching
    corrupt fault is applied to the successful result.
    """
    raising = [f for f in faults if f.kind != "corrupt"]
    corrupting = [f for f in faults if f.kind == "corrupt"]

    def wrapper(**params: object) -> object:
        for fault in raising:
            if fault.matches(params):
                fault.trigger(params)
        outcome = fn(**params)
        for fault in corrupting:
            if fault.matches(params):
                fault._fired += 1
                _record_injection(fault, params)
                if isinstance(outcome, dict):
                    outcome = fault.mutate(outcome)
                else:
                    outcome = [fault.mutate(dict(row)) for row in outcome]
        return outcome

    wrapper.faults = tuple(faults)  # type: ignore[attr-defined]
    return wrapper
