"""``serve_load``: two closed-loop clients against ``repro serve``.

Each pass starts a daemon on a unix socket with an empty store and
ledger (set-up ends when ``/health`` answers), replays the seeded
schedule from two client threads (``repro.serve.client.ServiceClient``,
as ``repro submit`` uses it) that each wait for a reply before sending
the next request, and stops the daemon with SIGTERM.  Every 200
reply's simulated fields must equal ``repro.serve.jobs.execute_job`` on
the same canonical request, computed here after the timed passes.

The two clients draw from disjoint key spaces (their own arrays and
Table IV layers), so no request of one can hit a result of the other,
and they never have two sweeps in flight at once: concurrent sweep jobs
open the daemon's one ledger twice, and which rows each instance seals
and reuses then depends on the interleaving.  With both rules the
pinned counts repeat exactly.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import threading
import time
from typing import Dict, List, Tuple

import harness
from repro.errors import ServiceError, ServiceUnavailableError
from repro.serve.client import ServiceClient

CLIENTS = 2
REQUESTS_PER_CLIENT = 200
MINI_REQUESTS_PER_CLIENT = 10
MIX = (("gemm", 0.4), ("run", 0.4), ("sweep", 0.2))
NETWORKS = ("resnet50", "alexnet", "mobilenet-v1")
TABLE_IV = (("TF0", "GNMT0", "GNMT2", "DB0", "NCF0"), ("TF1", "GNMT1", "GNMT3", "DB1", "NCF1"))
ARRAYS = (("32x32", "128x128"), ("64x64", "128x64"))
PARTITIONS = (None, "2x2", "4x4")
SWEEP_MACS = (2**14, 2**16, 2**18)
GEMM_POOL = 40
MAX_RETRIES = 5
#: Reply fields that describe the daemon's handling, not the simulation.
HANDLING_FIELDS = {"status", "key", "kind", "singleflight", "duration", "correlation_id", "ledger"}


def client_schedule(seed: int, client: int, total: int) -> List[Dict]:
    """One client's requests: every pool entry once, then seeded repeats."""
    rng = random.Random(f"{seed}/{client}")
    arrays = ARRAYS[client]
    pools = {
        "gemm": [
            {
                "kind": "gemm",
                "m": int(2 ** rng.uniform(3, 11)),
                "k": int(2 ** rng.uniform(3, 11)),
                "n": int(2 ** rng.uniform(3, 11)),
                "array": rng.choice(arrays),
                "dataflow": rng.choice(("os", "ws", "is")),
            }
            for _ in range(GEMM_POOL)
        ],
        "run": [
            {"kind": "run", "workload": name, "array": array,
             **({"partitions": grid} if grid else {})}
            for name in NETWORKS + TABLE_IV[client]
            for array in arrays
            for grid in PARTITIONS
        ],
        "sweep": [
            {"kind": "sweep", "layer": layer, "macs": macs}
            for layer in TABLE_IV[client]
            for macs in SWEEP_MACS
        ],
    }
    requests: List[Dict] = []
    for kind, share in MIX:
        quota, pool = round(total * share), pools[kind]
        if quota <= len(pool):
            requests += rng.sample(pool, quota)
        else:
            requests += pool + [rng.choice(pool) for _ in range(quota - len(pool))]
    rng.shuffle(requests)
    return requests


def traffic_record(seed: int, schedules: List[List[Dict]]) -> Dict:
    requests = [r for schedule in schedules for r in schedule]
    repeats = 0
    for schedule in schedules:
        seen = set()
        for request in schedule:
            key = json.dumps(request, sort_keys=True)
            repeats += key in seen
            seen.add(key)
    kinds = [r["kind"] for r in requests]
    return {
        "seed": seed,
        "requests": len(requests),
        "mix": {kind: kinds.count(kind) for kind, _ in MIX},
        "repeat_share": repeats / len(requests),
    }


def submit(client: ServiceClient, payload: Dict, cid: str) -> Dict:
    """One request through the repository's client, retried on 429/503
    after the daemon's Retry-After."""
    retries = rejected = 0
    reply = error = None
    start = time.perf_counter()
    while True:
        try:
            reply = client.submit(payload, correlation_id=cid)
        except ServiceUnavailableError as exc:
            rejected += 1
            if retries < MAX_RETRIES:
                retries += 1
                time.sleep(exc.retry_after)
                continue
            error = str(exc)
        except ServiceError as exc:
            error = str(exc)
        break
    return {"cid": cid, "payload": payload, "reply": reply, "error": error,
            "latency": time.perf_counter() - start, "retries": retries,
            "rejected": rejected}


class Daemon:
    """``repro --store S serve --socket P --ledger L``; construction is the
    timed set-up (spawn until ``/health`` answers)."""

    def __init__(self, directory, dump=None):
        # The daemon runs in ``directory`` and binds a short relative
        # name there: a unix socket path is limited to ~100 bytes.
        self.socket = os.path.relpath(directory / "daemon.sock", harness.ROOT)
        self.probe = ServiceClient(socket_path=self.socket, client_id="benchmark")
        args = ["--store", str(directory / "store"), "serve",
                "--socket", "daemon.sock", "--ledger", str(directory / "ledger")]
        self.stderr_path = directory / "daemon.err"
        start = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                harness.repro_argv(args, dump), cwd=directory,
                env=harness.child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
        deadline = time.monotonic() + 30
        while True:
            try:
                self.probe.health()
                break
            except ServiceError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise harness.BenchmarkFault(
                    f"daemon did not come up: {self.stderr_path.read_text()[-500:]}"
                )
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - start

    def stop(self) -> Tuple[int, float]:
        if self.proc.returncode is not None:  # died during set-up
            return self.proc.returncode, 0.0
        self.proc.send_signal(signal.SIGTERM)
        return harness.reap(self.proc)


def run_pass(schedules: List[List[Dict]], seed: int, index: int, traced: bool) -> Dict:
    directory = harness.fresh_dir(harness.WORK / "serve_load" / f"pass{index}")
    dump = directory / "daemon.trace.json" if traced else None
    daemon = Daemon(directory, dump)
    results: List[List[Dict]] = [[] for _ in schedules]
    one_sweep = threading.Lock()

    def load(number: int) -> None:
        client = ServiceClient(socket_path=daemon.socket, client_id=f"load{number}")
        for position, payload in enumerate(schedules[number]):
            cid = f"{seed % 65536:04x}{number:02x}{position:010x}"
            if payload["kind"] == "sweep":
                with one_sweep:
                    results[number].append(submit(client, payload, cid))
            else:
                results[number].append(submit(client, payload, cid))

    threads = [threading.Thread(target=load, args=(n,)) for n in range(len(schedules))]
    start = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start
        scrape = daemon.probe.metrics_text() if traced else ""
    finally:
        code, rss_mb = daemon.stop()
    replies = [r for per_client in results for r in per_client]
    failures = [
        f"{r['cid']} {json.dumps(r['payload'])}: {r['error']}"
        for r in replies if r["reply"] is None
    ]
    if code != 0:
        failures.append(f"daemon exited {code}: {daemon.stderr_path.read_text()[-300:]}")
    result = {
        "wall_s": wall_s, "setup_s": daemon.setup_s, "replies": replies,
        "times": [r["latency"] for r in replies], "failures": failures,
        "rss_mb": rss_mb, "scrape": scrape, "dumps": [], "imports": [],
    }
    if traced:
        result["dumps"] = [json.loads(dump.read_text())]
        result["imports"] = [daemon.stderr_path.read_text()]
    return result


def check_replies(passes: List[Dict]) -> None:
    """Compare every 200 reply with ``execute_job`` run here."""
    from repro.serve.jobs import execute_job, job_key, normalize_request

    expected: Dict[str, Dict] = {}
    for result in passes:
        for reply in result["replies"]:
            if reply["reply"] is None:
                continue
            canonical = normalize_request(reply["payload"])
            key = job_key(canonical)
            if key not in expected:
                expected[key] = json.loads(json.dumps(execute_job(canonical), default=repr))
            want = {k: v for k, v in expected[key].items() if k not in HANDLING_FIELDS}
            got = {k: v for k, v in reply["reply"].items() if k not in HANDLING_FIELDS}
            if got != want:
                result["failures"].append(
                    f"{reply['cid']} {json.dumps(reply['payload'])}: reply differs from execute_job"
                )


def serve_metrics(result: Dict) -> Dict[str, float]:
    """Per-layer serve metrics from the ``/metrics`` scrape and the
    client's own timings."""
    from repro.obs.service import parse_prometheus_text, sample_value

    families = parse_prometheus_text(result["scrape"])

    def sample(family: str, **labels) -> float:
        return sample_value(families, f"repro_serve_{family}", **labels) or 0.0

    waits = sum(
        value
        for name, _, value in families.get("repro_serve_queue_wait_seconds", {}).get("samples", ())
        if name.endswith("_count")
    )
    # the highest exported quantile with at least ten waits beyond it
    tail_q = next((q for q in ("0.99", "0.9") if waits * (1 - float(q)) >= 10), "0.5")
    submit_s = result["dumps"][0]["submit_s"]
    transport = [
        r["latency"] - submit_s[r["cid"]] for r in result["replies"] if r["cid"] in submit_s
    ]
    metrics = {
        "serve.queue_wait_p50_ms": 1e3 * sample("queue_wait_seconds", quantile="0.5"),
        "serve.queue_wait_tail_ms": 1e3 * sample("queue_wait_seconds", quantile=tail_q),
        "serve.transport_p50_ms": 1e3 * harness.median(transport) if transport else 0.0,
        "serve.rejected_n": sum(
            sample(f"rejected_{why}_total") for why in ("queue", "quota", "draining")
        ),
        "serve.singleflight_joined_n": sample("singleflight_joined_total"),
    }
    for kind, _ in MIX:
        metrics[f"serve.job.{kind}_p50_ms"] = 1e3 * sample(
            "job_seconds", quantile="0.5", kind=kind
        )
    return metrics


def run(args, reference: Dict):
    harness.fresh_dir(harness.WORK / "serve_load")
    per_client = MINI_REQUESTS_PER_CLIENT if args.mini else REQUESTS_PER_CLIENT
    schedules = [client_schedule(args.seed, c, per_client) for c in range(CLIENTS)]
    passes, metrics, attempted, failures = harness.measure(
        args,
        lambda index, traced: run_pass(schedules, args.seed, index, traced),
        spare_setup=lambda: run_pass([], args.seed, "spare", False)["setup_s"],
        import_in_wall=False,
        check=check_replies,
    )
    if args.trace:
        metrics.update(serve_metrics(passes[1]))
    replies = [r for p in passes for r in p["replies"]]
    record = traffic_record(args.seed, schedules)
    record.update(
        passes=len(passes),
        rejected=sum(r["rejected"] for r in replies),
        retried=sum(r["retries"] for r in replies),
    )
    harness.note(f"serve_load traffic: {json.dumps(record)}")
    (harness.WORK / "serve_load" / f"traffic-seed{args.seed}.json").write_text(json.dumps(record))
    return metrics, attempted, failures
