"""The crash flight recorder: bounded rings, atomic dumps, rendering."""

from __future__ import annotations

import json
import logging
import sys

import pytest

from repro.obs import flight
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    load_flight,
    render_flight_summary,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


@pytest.fixture(autouse=True)
def _no_global_recorder():
    flight.disarm()
    yield
    flight.disarm()


def make_armed(tmp_path, **kwargs):
    tracer = Tracer()
    registry = MetricsRegistry()
    registry.enable()
    recorder = FlightRecorder(tmp_path, **kwargs)
    recorder.arm(tracer, registry)
    return recorder, tracer, registry


class TestRecorder:
    def test_arm_captures_spans_logs_and_metrics(self, tmp_path):
        recorder, tracer, registry = make_armed(tmp_path)
        assert tracer.enabled  # arming turns the tracer on
        with tracer.span("work", category="test", x=1):
            pass
        logging.getLogger("repro.test").warning("something leaned over")
        registry.counter("sim.cycles").add(42)

        path = recorder.dump("test crash", exit_code=13)
        doc = json.loads(path.read_text())
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["reason"] == "test crash"
        assert doc["exit_code"] == 13
        assert [e["name"] for e in doc["traceEvents"]] == ["work"]
        assert any("leaned over" in r["message"] for r in doc["logs"])
        assert doc["counters"]["sim.cycles"] == 42
        recorder.disarm()

    def test_rings_are_bounded(self, tmp_path):
        recorder, tracer, _ = make_armed(tmp_path, span_capacity=4, log_capacity=2)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
            logging.getLogger("repro.test").warning("log %d", index)
        path = recorder.dump("bounded")
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 4
        assert [e["name"] for e in doc["traceEvents"]] == ["s6", "s7", "s8", "s9"]
        assert [r["message"] for r in doc["logs"]] == ["log 8", "log 9"]
        recorder.disarm()

    def test_dump_is_idempotent_unless_forced(self, tmp_path):
        recorder, _tracer, _ = make_armed(tmp_path)
        first = recorder.dump("one")
        assert recorder.dump("two") == first
        assert len(list(tmp_path.glob("flight-*.json"))) == 1
        second = recorder.dump("three", force=True)
        assert second != first
        assert len(list(tmp_path.glob("flight-*.json"))) == 2
        recorder.disarm()

    def test_dump_never_raises_on_unwritable_directory(self, tmp_path):
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("file in the way")
        recorder = FlightRecorder(blocked)
        recorder.arm(Tracer())
        assert recorder.dump("doomed") is None
        recorder.disarm()

    def test_disarm_detaches_the_taps(self, tmp_path):
        recorder, tracer, _ = make_armed(tmp_path)
        recorder.disarm()
        with tracer.span("after"):
            pass
        logging.getLogger("repro.test").warning("after disarm")
        path = recorder.dump("post")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"] == []
        assert all("after disarm" != r["message"] for r in doc["logs"])


class TestProcessWide:
    def test_arm_is_idempotent_and_dump_routes(self, tmp_path):
        tracer = Tracer()
        recorder = flight.arm(tmp_path, tracer, install_hook=False)
        assert flight.arm(tmp_path / "elsewhere", tracer) is recorder
        assert flight.get_recorder() is recorder
        path = flight.dump("module-level", exit_code=14)
        assert path is not None and path.parent == tmp_path

    def test_dump_without_recorder_is_noop(self):
        assert flight.dump("nothing armed") is None

    def test_excepthook_dumps_and_chains(self, tmp_path, capsys):
        seen = {}

        def prior(exc_type, exc, tb):
            seen["type"] = exc_type

        original = sys.excepthook
        sys.excepthook = prior
        try:
            flight.arm(tmp_path, Tracer())
            sys.excepthook(RuntimeError, RuntimeError("boom"), None)
            dumps = list(tmp_path.glob("flight-*.json"))
            assert len(dumps) == 1
            assert "RuntimeError" in json.loads(dumps[0].read_text())["reason"]
            assert seen["type"] is RuntimeError  # chained to the prior hook
            flight.disarm()
            assert sys.excepthook is prior  # restored
        finally:
            sys.excepthook = original

    def test_flight_dir_from_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(flight.FLIGHT_DIR_ENV, raising=False)
        assert flight.flight_dir_from_env() is None
        monkeypatch.setenv(flight.FLIGHT_DIR_ENV, str(tmp_path))
        assert flight.flight_dir_from_env() == tmp_path


class TestLoadAndRender:
    def test_load_validates_schema(self, tmp_path):
        bogus = tmp_path / "not-flight.json"
        bogus.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="flight"):
            load_flight(bogus)

    def test_render_summary_shows_crash_spans_and_log_tail(self, tmp_path):
        recorder, tracer, registry = make_armed(tmp_path)
        with tracer.span("engine.run_layer"):
            pass
        registry.counter("sim.cycles").add(7)
        logging.getLogger("repro.test").error("the last words")
        path = recorder.dump("StorageError: disk full", exit_code=14)
        recorder.disarm()

        text = render_flight_summary(load_flight(path))
        assert "StorageError" in text
        assert "exit code 14" in text
        assert "engine.run_layer" in text
        assert "sim.cycles" in text
        assert "the last words" in text
