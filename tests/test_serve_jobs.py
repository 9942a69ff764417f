"""Job vocabulary: canonicalization, keying, execution dispatch."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServiceError
from repro.serve import jobs
from repro.serve.jobs import SWEEP_LEDGER_ENV, execute_job, job_key, normalize_request
from repro.store.ledger import SweepLedger
from repro.sweep import square_grid, sweep_ledger_version, sweep_measure
from repro.workloads.language import TABLE_IV_DIMS, language_layer


def test_gemm_defaults_are_filled():
    request = normalize_request({"kind": "gemm", "m": 4, "k": 5, "n": 6})
    assert request == {
        "kind": "gemm", "dataflow": "os", "m": 4, "k": 5, "n": 6, "array": "32x32",
    }


def test_sweep_partitions_default_and_filter():
    request = normalize_request({"kind": "sweep", "layer": "GNMT1", "macs": 4096})
    assert request["partitions"] == [1, 4, 16, 64]  # 4**i with >= 64 MACs each
    explicit = normalize_request(
        {"kind": "sweep", "layer": "GNMT1", "macs": 4096, "partitions": [1, 3, 16]}
    )
    assert explicit["partitions"] == [1, 16]  # 3 doesn't divide into a pow2


@pytest.mark.parametrize(
    "payload",
    [
        "not a dict",
        {"kind": "teapot"},
        {"kind": "gemm", "m": 4, "k": 5},  # n missing
        {"kind": "gemm", "m": 4, "k": 5, "n": 0},
        {"kind": "gemm", "m": 4, "k": 5, "n": 6, "array": "axb"},
        {"kind": "gemm", "m": 4, "k": 5, "n": 6, "bogus": 1},
        {"kind": "run", "workload": "no-such-net"},
        {"kind": "sweep", "layer": "GNMT1", "macs": 100},  # not a pow2
        {"kind": "sweep", "layer": "GNMT1", "macs": 4096, "partitions": [3]},
        {"kind": "sweep", "layer": "never-heard-of-it", "macs": 4096},
    ],
)
def test_invalid_requests_raise_service_error(payload):
    with pytest.raises(ServiceError):
        normalize_request(payload)


def test_job_key_is_order_insensitive_and_kind_sensitive():
    a = job_key(normalize_request({"kind": "gemm", "m": 4, "k": 5, "n": 6}))
    b = job_key(normalize_request({"n": 6, "k": 5, "m": 4, "kind": "gemm"}))
    c = job_key(normalize_request({"kind": "gemm", "m": 4, "k": 5, "n": 7}))
    assert a == b != c


def test_execute_run_table_iv_layer():
    request = normalize_request(
        {"kind": "run", "workload": next(iter(TABLE_IV_DIMS)), "array": "8x8"}
    )
    body = execute_job(request)
    assert body["total_cycles"] > 0
    assert len(body["rows"]) == 1


def test_execute_sweep_matches_direct_measure():
    request = normalize_request(
        {"kind": "sweep", "layer": "GNMT1", "macs": 1024, "partitions": [1, 4]}
    )
    body = execute_job(request)
    assert body["points"] == 2
    direct = sweep_measure(4, layer=language_layer("GNMT1"), macs=1024)
    # The report row carries extra sweep columns; the physics must agree.
    assert body["rows"][1]["cycles"] == direct["cycles"]
    assert body["rows"][1]["array"] == direct["array"]


def test_concurrent_sweeps_on_one_ledger_price_each_point_once(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(SWEEP_LEDGER_ENV, str(tmp_path / "ledger"))
    calls = []
    overlap = threading.Barrier(2, timeout=1.0)

    def measure(partitions, layer=None, macs=0):
        try:
            overlap.wait()  # hold both jobs mid-sweep whenever they can overlap
        except threading.BrokenBarrierError:
            pass
        calls.append(partitions)
        return sweep_measure(partitions, layer=layer, macs=macs)

    monkeypatch.setattr(jobs, "sweep_measure", measure)
    requests = [
        normalize_request(
            {"kind": "sweep", "layer": "GNMT1", "macs": 1024, "partitions": counts}
        )
        for counts in ([1, 4], [4, 16])
    ]
    bodies = [None, None]

    def run(index):
        bodies[index] = execute_job(requests[index])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)

    assert sorted(calls) == [1, 4, 16]  # the shared point is priced once
    assert sum(body["ledger"]["simulated"] for body in bodies) == 3
    version = sweep_ledger_version("GNMT1", requests[0]["workload"], 1024)
    with SweepLedger(tmp_path / "ledger", version=version) as ledger:
        assert ledger.completed_count == 3


def test_square_grid_prefers_square_factorizations():
    assert square_grid(16) == (4, 4)
    assert square_grid(64) == (8, 8)
    assert square_grid(2) == (1, 2)
