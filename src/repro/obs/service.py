"""Service-grade observability: correlation IDs and Prometheus text.

Two concerns shared by the daemon and the client:

**Correlation IDs.**  One ``repro submit`` round-trip crosses a
process and a thread boundary (client → daemon accept thread → job
thread).  A correlation ID minted once — client-side in
:meth:`repro.serve.client.ServiceClient.submit`, or at daemon ingress
for clients that send none — is carried in the
:data:`CORRELATION_HEADER` HTTP header and bound into the tracer's
thread-local context on the serving thread, so every span and event
recorded while the job runs carries ``cid=...``.  The result: one
stitched trace per job whose queue-wait and execution segments all
share a single ID, greppable in daemon logs and visible in the
exported trace JSON.

**Prometheus text exposition.**  :func:`prometheus_text` renders a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot (plus optional
raw-name-keyed extras, e.g. the daemon's admission counters) in the
Prometheus text format, stdlib-only:

* counters become ``<family>_total`` with ``# TYPE ... counter``;
* gauges keep their name with ``# TYPE ... gauge``;
* histograms export summary-style: ``quantile`` labelled samples plus
  ``_sum`` / ``_count``.

Instrument names may embed labels with the ``name{key="value"}``
convention — ``serve.job_seconds{kind="gemm"}`` and
``serve.job_seconds{kind="run"}`` export as two samples of one
``repro_serve_job_seconds`` family.  Dots and other illegal characters
mangle to ``_``; if mangling (or the ``_total`` suffix) would merge two
families of *different* types, exposition fails loudly with
:class:`~repro.errors.InstrumentKindError` rather than emitting a
scrape the server would reject.

:func:`parse_prometheus_text` is the matching validator — a strict
parser used by tests and the smoke drill to prove ``GET /metrics``
output is well-formed.
"""

from __future__ import annotations

import re
import uuid
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import InstrumentKindError
from repro.obs.metrics import MetricsRegistry, Number

#: HTTP header carrying the request correlation ID end to end.
CORRELATION_HEADER = "X-Repro-Correlation-Id"

#: Span/event argument key under which the ID is recorded.
CORRELATION_KEY = "cid"

#: Default metric-name prefix (Prometheus namespace).
PROMETHEUS_PREFIX = "repro"

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_MANGLE_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABELS_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_TYPE_RE = re.compile(
    r"^#\s+TYPE\s+(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)\s+(?P<type>\w+)\s*$"
)

#: Summary quantiles exported per histogram (percentile, label value).
_QUANTILES = ((50, "0.5"), (90, "0.9"), (99, "0.99"))


def new_correlation_id() -> str:
    """A fresh, log-friendly correlation ID (16 hex chars)."""
    return uuid.uuid4().hex[:16]


# ----------------------------------------------------------------------
# Name handling
# ----------------------------------------------------------------------
def split_labels(name: str) -> Tuple[str, str]:
    """Split ``'base{k="v"}'`` into ``('base', 'k="v"')``.

    Names without an embedded label set return ``(name, "")``.
    """
    brace = name.find("{")
    if brace < 0:
        return name, ""
    if not name.endswith("}"):
        raise ValueError(f"malformed labelled metric name {name!r}")
    return name[:brace], name[brace + 1 : -1]


def mangle(name: str, prefix: str = PROMETHEUS_PREFIX) -> str:
    """A legal Prometheus metric name for one raw instrument base name."""
    mangled = _MANGLE_RE.sub("_", name)
    if prefix:
        mangled = f"{prefix}_{mangled}"
    if not _NAME_RE.fullmatch(mangled):
        raise ValueError(f"cannot mangle {name!r} into a metric name")
    return mangled


def _format_value(value: Number) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _labelled(family: str, labels: str, extra: str = "") -> str:
    parts = [p for p in (labels, extra) if p]
    if not parts:
        return family
    return f"{family}{{{','.join(parts)}}}"


class _Exposition:
    """Accumulates families, guarding against cross-type name merges."""

    def __init__(self) -> None:
        self._types: Dict[str, str] = {}
        self._origins: Dict[str, str] = {}
        self._lines: Dict[str, List[str]] = {}
        self._order: List[str] = []

    def family(self, family: str, ptype: str, raw_name: str) -> List[str]:
        known = self._types.get(family)
        if known is None:
            self._types[family] = ptype
            self._origins[family] = raw_name
            self._order.append(family)
            self._lines[family] = [f"# TYPE {family} {ptype}"]
        elif known != ptype:
            raise InstrumentKindError(
                f"metric name collision after mangling: {raw_name!r} "
                f"({ptype}) and {self._origins[family]!r} "
                f"({known}) both expose as {family!r}"
            )
        return self._lines[family]

    def render(self) -> str:
        chunks: List[str] = []
        for family in self._order:
            chunks.extend(self._lines[family])
        return "\n".join(chunks) + "\n" if chunks else ""


def prometheus_text(
    registry: MetricsRegistry,
    extra_counters: Optional[Mapping[str, Number]] = None,
    extra_gauges: Optional[Mapping[str, Number]] = None,
    prefix: str = PROMETHEUS_PREFIX,
) -> str:
    """Render ``registry`` (+ extras) in the Prometheus text format.

    ``extra_counters`` / ``extra_gauges`` are raw-name-keyed values
    merged over the registry snapshot; an extra whose raw name matches
    a registry instrument *replaces* it (the daemon mirrors its
    admission counts into the registry under the same names, so the
    merge dedups rather than double-exports).
    """
    snap = registry.snapshot()
    counters: Dict[str, Number] = dict(snap["counters"])
    counters.update(extra_counters or {})
    gauges: Dict[str, Optional[Number]] = dict(snap["gauges"])
    gauges.update(extra_gauges or {})

    out = _Exposition()
    for raw, value in sorted(counters.items()):
        base, labels = split_labels(raw)
        family = mangle(base, prefix)
        if not family.endswith("_total"):
            family += "_total"
        out.family(family, "counter", raw).append(
            f"{_labelled(family, labels)} {_format_value(value)}"
        )
    for raw, value in sorted(gauges.items()):
        if value is None:
            continue
        base, labels = split_labels(raw)
        family = mangle(base, prefix)
        out.family(family, "gauge", raw).append(
            f"{_labelled(family, labels)} {_format_value(value)}"
        )
    for raw, hist in sorted(snap["histograms"].items()):
        base, labels = split_labels(raw)
        family = mangle(base, prefix)
        lines = out.family(family, "summary", raw)
        for percentile, quantile in _QUANTILES:
            value = hist.get(f"p{percentile}")
            if value is None:
                continue
            quantile_label = 'quantile="%s"' % quantile
            lines.append(
                f"{_labelled(family, labels, quantile_label)} {_format_value(value)}"
            )
        lines.append(
            f"{_labelled(family + '_sum', labels)} {_format_value(hist['sum'])}"
        )
        lines.append(
            f"{_labelled(family + '_count', labels)} {_format_value(hist['count'])}"
        )
    return out.render()


# ----------------------------------------------------------------------
# Validation (tests, smoke drills)
# ----------------------------------------------------------------------
def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    remaining = text.strip()
    if not remaining:
        return labels
    while remaining:
        match = _LABELS_RE.match(remaining)
        if not match:
            raise ValueError(f"malformed label set at {remaining!r}")
        labels[match.group("key")] = match.group("value")
        remaining = remaining[match.end():]
        if remaining.startswith(","):
            remaining = remaining[1:]
        elif remaining:
            raise ValueError(f"malformed label separator at {remaining!r}")
    return labels


def parse_prometheus_text(text: str) -> Dict[str, Dict]:
    """Strictly parse Prometheus exposition text.

    Returns ``{family: {"type": str, "samples": [(name, labels, value)]}}``
    and raises ``ValueError`` on any malformed line, unknown-family
    sample, or duplicate ``# TYPE`` declaration — strict on purpose, so
    a test that parses ``GET /metrics`` output actually proves format
    validity.
    """
    families: Dict[str, Dict] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            match = _TYPE_RE.match(line)
            if match:
                name = match.group("name")
                if name in families:
                    raise ValueError(f"line {lineno}: duplicate TYPE for {name!r}")
                ptype = match.group("type")
                if ptype not in ("counter", "gauge", "summary", "histogram", "untyped"):
                    raise ValueError(f"line {lineno}: unknown type {ptype!r}")
                families[name] = {"type": ptype, "samples": []}
            continue  # HELP and comments pass through
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels") or "")
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value {match.group('value')!r}"
            ) from None
        family = name
        for suffix in ("_sum", "_count", "_bucket"):
            if family not in families and name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        if family not in families:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE line")
        families[family]["samples"].append((name, labels, value))
    return families


def sample_value(
    families: Mapping[str, Dict], family: str, **labels: str
) -> Optional[float]:
    """The value of one sample in a parsed exposition, or None."""
    entry = families.get(family)
    if not entry:
        return None
    for name, sample_labels, value in entry["samples"]:
        if name == family and all(
            sample_labels.get(key) == wanted for key, wanted in labels.items()
        ):
            return value
    return None
