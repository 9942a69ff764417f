"""Service observability helpers: correlation IDs and Prometheus text.

:func:`prometheus_text` is proved against its own strict parser — a
rendering bug and a parsing bug would have to cancel exactly for these
round-trips to pass.
"""

from __future__ import annotations

import pytest

from repro.errors import InstrumentKindError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.service import (
    mangle,
    new_correlation_id,
    parse_prometheus_text,
    prometheus_text,
    sample_value,
    split_labels,
)


def enabled_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.enable()
    return registry


# ----------------------------------------------------------------------
# Correlation IDs
# ----------------------------------------------------------------------

class TestCorrelationIds:
    def test_ids_are_short_hex_and_unique(self):
        ids = {new_correlation_id() for _ in range(64)}
        assert len(ids) == 64
        for cid in ids:
            assert len(cid) == 16
            int(cid, 16)  # hex


# ----------------------------------------------------------------------
# Name handling
# ----------------------------------------------------------------------

class TestNameHandling:
    def test_split_labels(self):
        assert split_labels("sim.cycles") == ("sim.cycles", "")
        assert split_labels('job_seconds{kind="gemm"}') == (
            "job_seconds", 'kind="gemm"'
        )

    def test_split_labels_rejects_malformed(self):
        with pytest.raises(ValueError):
            split_labels('job_seconds{kind="gemm"')  # unclosed

    def test_mangle_dots_and_prefix(self):
        assert mangle("sim.cycles") == "repro_sim_cycles"
        assert mangle("a-b c", prefix="x") == "x_a_b_c"

    def test_mangle_rejects_unfixable(self):
        with pytest.raises(ValueError):
            mangle("", prefix="")


# ----------------------------------------------------------------------
# Exposition round-trips (rendered text must satisfy the strict parser)
# ----------------------------------------------------------------------

class TestPrometheusText:
    def test_counters_gauges_histograms_round_trip(self):
        registry = enabled_registry()
        registry.counter("sim.cycles").add(1234)
        registry.gauge("queue.depth").set(3)
        hist = registry.histogram("job.seconds")
        for value in (0.1, 0.2, 0.3, 0.4):
            hist.observe(value)

        text = prometheus_text(registry)
        families = parse_prometheus_text(text)

        assert families["repro_sim_cycles_total"]["type"] == "counter"
        assert sample_value(families, "repro_sim_cycles_total") == 1234
        assert sample_value(families, "repro_queue_depth") == 3
        summary = families["repro_job_seconds"]
        assert summary["type"] == "summary"
        names = {name for name, _labels, _value in summary["samples"]}
        assert "repro_job_seconds_sum" in names
        assert "repro_job_seconds_count" in names
        quantiles = {
            labels["quantile"]
            for name, labels, _value in summary["samples"]
            if name == "repro_job_seconds"
        }
        assert quantiles == {"0.5", "0.9", "0.99"}

    def test_embedded_labels_export_as_one_family(self):
        registry = enabled_registry()
        registry.histogram('serve.job_seconds{kind="gemm"}').observe(0.5)
        registry.histogram('serve.job_seconds{kind="run"}').observe(1.5)

        families = parse_prometheus_text(prometheus_text(registry))
        sums = [
            (labels, value)
            for name, labels, value in families["repro_serve_job_seconds"]["samples"]
            if name == "repro_serve_job_seconds_sum"
        ]
        assert ({"kind": "gemm"}, 0.5) in sums
        assert ({"kind": "run"}, 1.5) in sums

    def test_extras_override_registry_instruments(self):
        # The daemon mirrors its counters into the registry under the
        # same raw names; the merge must dedup, never double-export.
        registry = enabled_registry()
        registry.counter("serve.executed").add(1)  # stale mirror
        text = prometheus_text(registry, extra_counters={"serve.executed": 7})
        families = parse_prometheus_text(text)
        assert sample_value(families, "repro_serve_executed_total") == 7
        assert len(families["repro_serve_executed_total"]["samples"]) == 1

    def test_counter_does_not_double_total_suffix(self):
        registry = enabled_registry()
        registry.counter("jobs_total").add(2)
        families = parse_prometheus_text(prometheus_text(registry))
        assert sample_value(families, "repro_jobs_total") == 2

    def test_none_gauges_are_skipped(self):
        registry = enabled_registry()
        registry.gauge("maybe")  # never set
        assert "repro_maybe" not in parse_prometheus_text(prometheus_text(registry))

    def test_cross_type_mangle_collision_fails_loudly(self):
        registry = enabled_registry()
        registry.counter("queue.depth").add(1)  # -> repro_queue_depth_total
        registry.gauge("queue.depth.total").set(5)  # -> repro_queue_depth_total
        with pytest.raises(InstrumentKindError) as excinfo:
            prometheus_text(registry)
        assert isinstance(excinfo.value, ReproError)
        assert "repro_queue_depth_total" in str(excinfo.value)

    def test_build_info_style_gauge(self):
        registry = enabled_registry()
        text = prometheus_text(
            registry, extra_gauges={'build_info{version="1.0.0"}': 1}
        )
        families = parse_prometheus_text(text)
        assert sample_value(families, "repro_build_info", version="1.0.0") == 1


class TestStrictParser:
    def test_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no TYPE"):
            parse_prometheus_text("orphan 1\n")

    def test_rejects_duplicate_type(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_prometheus_text("# TYPE a counter\n# TYPE a counter\n")

    def test_rejects_non_numeric_value(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_prometheus_text("# TYPE a gauge\na NaNsense\n")

    def test_rejects_malformed_labels(self):
        with pytest.raises(ValueError, match="label"):
            parse_prometheus_text('# TYPE a gauge\na{k=unquoted} 1\n')

    def test_help_lines_pass_through(self):
        families = parse_prometheus_text(
            "# HELP a something\n# TYPE a gauge\na 1\n"
        )
        assert sample_value(families, "a") == 1
