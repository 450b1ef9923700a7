"""The ``service`` workload: ``stsyn serve`` with one TCP ``stsyn worker``
on loopback, driven by one closed-loop client (one request in flight).

Started by ``run.py`` as::

    python perfbench/service.py --seed N --seconds S [--trace]

Set-up starts a worker and a server three times and times each start until
both accept connections; the first two pairs are stopped at once and the
third serves the run.  Every request follows the README quickstart: POST
``/jobs``, follow ``/jobs/<id>/trace`` to its end, GET ``/jobs/<id>``, GET
``/jobs/<id>/certificate``.  The cold phase submits each distinct job once
(each is raced on the worker and written to the result store); the warm
phase then resubmits the same jobs in whole rounds, each round in an order
drawn from the seed; ``--seconds`` fixes the number of rounds (at least
six, 42 requests).  Each warm request is answered
from the store after a certificate re-check.

The server's local-worker mode (``stsyn serve`` without ``--workers``) is
not used: it stops itself mid-run (see README.md).
"""

from __future__ import annotations

import argparse
import glob
import http.client
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import WORK, Ops, median, python_child, stop, vm_hwm_mb  # noqa: E402
from oracle import (  # noqa: E402
    added_groups,
    program_bdd_nodes,
    section_v_recovery,
    strong_convergence_violations,
)

from repro.cert import ConvergenceCertificate, check_certificate  # noqa: E402
from repro.dsl import compile_protocol  # noqa: E402
from repro.protocols import coloring, matching, token_ring, two_ring  # noqa: E402
from repro.trace import summarize  # noqa: E402

#: a copy of examples/token_ring.stsyn (Dijkstra's non-stabilizing ring,
#: K=4, |D|=3), kept here so edits to the example do not change the workload
TOKEN_RING_STSYN = """\
protocol token_ring_dsl

var x0, x1, x2, x3 : 0..2

process P0
  reads x3, x0
  writes x0
  action A0: x0 == x3 -> x0 := (x3 + 1) % 3

process P1
  reads x0, x1
  writes x1
  action A1: (x1 + 1) % 3 == x0 -> x1 := x0

process P2
  reads x1, x2
  writes x2
  action A2: (x2 + 1) % 3 == x1 -> x2 := x1

process P3
  reads x2, x3
  writes x3
  action A3: (x3 + 1) % 3 == x2 -> x3 := x2

invariant ((x0 == x1) & (x1 == x2) & (x2 == x3))
        | (((x1 + 1) % 3 == x0) & (x1 == x2) & (x2 == x3))
        | ((x0 == x1) & ((x2 + 1) % 3 == x1) & (x2 == x3))
        | ((x0 == x1) & (x1 == x2) & ((x3 + 1) % 3 == x2))
"""

#: name -> (job payload, client-side builder of the same protocol)
JOBS = {
    "matching-k9": ({"protocol": "matching", "k": 9}, lambda: matching(9)),
    "matching-k10": ({"protocol": "matching", "k": 10}, lambda: matching(10)),
    "matching-k11": ({"protocol": "matching", "k": 11}, lambda: matching(11)),
    "tr-k5-d5": ({"protocol": "token-ring", "k": 5, "d": 5},
                 lambda: token_ring(5, 5)),
    "two-ring": ({"protocol": "two-ring"}, two_ring),
    "coloring-k11": ({"protocol": "coloring", "k": 11}, lambda: coloring(11)),
    # the paper's default schedule (P1, P2, P3, P0), pinned
    "token-ring-stsyn": ({"source": TOKEN_RING_STSYN, "schedule": [1, 2, 3, 0]},
                         lambda: compile_protocol(TOKEN_RING_STSYN)),
}

SETUPS = 3
MIN_WARM_ROUNDS = 6
#: a run makes round(--seconds / this) warm rounds (at least six): 6 rounds,
#: 42 warm requests, at 30 s; with the ~17 s cold phase a 30 s run measures
#: for about 25 s on a 2-CPU box
WARM_ROUND_SECONDS = 5.0
HTTP_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def accepting(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1.0):
            return True
    except OSError:
        return False


class Deployment:
    """One ``stsyn worker`` plus one ``stsyn serve --workers`` pair."""

    def __init__(self, data_dir: Path):
        self.data_dir = data_dir
        data_dir.mkdir(parents=True)
        self.worker_port, self.port = free_port(), free_port()
        self.processes: list[subprocess.Popen] = []
        self.logs = []
        start = time.perf_counter()
        try:
            self._spawn("worker", ["worker", "--listen", f"127.0.0.1:{self.worker_port}"])
            self._spawn("server", [
                "serve", "--port", str(self.port), "--data-dir", str(data_dir / "svc"),
                "--workers", f"127.0.0.1:{self.worker_port}",
            ])
            deadline = time.monotonic() + 60.0
            for port in (self.worker_port, self.port):
                while not accepting(port):
                    if time.monotonic() > deadline or any(
                        p.poll() is not None for p in self.processes
                    ):
                        raise RuntimeError(f"service did not start: {self.log_tail()}")
                    time.sleep(0.005)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _spawn(self, name: str, args: list[str]) -> None:
        log = open(self.data_dir / f"{name}.log", "wb")
        self.logs.append(log)
        self.processes.append(
            python_child(["-m", "repro.cli", *args], stdout=log, stderr=subprocess.STDOUT)
        )

    def log_tail(self) -> str:
        tails = []
        for log in self.logs:
            log.flush()
            with open(log.name, "rb") as handle:
                tails.append(handle.read()[-600:].decode(errors="replace"))
        return " | ".join(tails)

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(p.pid) for p in self.processes)

    def close(self) -> None:
        for process in reversed(self.processes):  # server first, then worker
            stop(process)
        for log in self.logs:
            log.close()


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
def call(port: int, method: str, path: str, body=None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)
    try:
        conn.request(method, path, body=json.dumps(body) if body is not None else None)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def submit(port: int, payload: dict) -> dict:
    """One request, quickstart style; ``latency`` is request to certificate."""
    start = time.perf_counter()
    status, body = call(port, "POST", "/jobs", payload)
    if status != 202:
        raise RuntimeError(f"POST /jobs -> {status}: {body[:200]!r}")
    job_id = json.loads(body)["id"]
    status, trace = call(port, "GET", f"/jobs/{job_id}/trace")
    if status != 200:
        raise RuntimeError(f"trace stream -> {status}")
    status, body = call(port, "GET", f"/jobs/{job_id}")
    job = json.loads(body)
    status, cert = call(port, "GET", f"/jobs/{job_id}/certificate")
    if status != 200:
        raise RuntimeError(f"certificate -> {status}: {job}")
    latency = time.perf_counter() - start
    return {"job": job, "cert": cert, "trace": trace, "latency": latency}


class Client(Ops):
    """The closed-loop client and the checks on every answer."""

    def __init__(self, port: int):
        super().__init__()
        self.port = port
        self.cases = {name: builder() for name, (_p, builder) in JOBS.items()}
        self.cert_check_s = 0.0
        self.cert_bytes = 0
        self.program_bdd_nodes = 0

    def request(self, name: str, cold: bool) -> dict | None:
        """Submit one job and check the answer; ``None`` if it failed."""
        checks = ["certificate"]
        if cold:
            checks += ["oracle", "section-v"] if name == "token-ring-stsyn" else ["oracle"]
        try:
            answer = submit(self.port, JOBS[name][0])
        except (OSError, RuntimeError, ValueError) as exc:
            self.op(name, "request", False, repr(exc))
            for what in checks:
                self.op(name, what, False, "no answer")
            return None
        job = answer["job"]
        flags = (
            job["state"] == "done" and job["success"] is True
            and b'"job.done"' in answer["trace"]  # the stream ran to the end
            and (job["cache_hit"] is False if cold
                 else job["cache_hit"] is True and job["cert_verified"] is True)
        )
        self.op(name, "request", flags, json.dumps({
            k: job.get(k) for k in ("state", "success", "cache_hit", "cert_verified", "error")
        }))
        protocol, invariant = self.cases[name]
        try:
            cert = ConvergenceCertificate.loads(answer["cert"])
            start = time.perf_counter()
            check_certificate(protocol, invariant, cert)
            self.cert_check_s += time.perf_counter() - start
            self.cert_bytes += len(answer["cert"])
            self.op(name, "certificate", True)
        except Exception as exc:
            self.op(name, "certificate", False, repr(exc))
        if cold:
            self.check_solution(name, job["id"])
        return answer

    def check_solution(self, name: str, job_id: str) -> None:
        protocol, invariant = self.cases[name]
        status, body = call(self.port, "GET", f"/jobs/{job_id}/solution")
        if status != 200:
            self.op(name, "oracle", False, f"solution -> {status}")
            if name == "token-ring-stsyn":
                self.op(name, "section-v", False, "no solution")
            return
        groups = [set(map(tuple, g)) for g in json.loads(body)["pss_groups"]]
        pss = protocol.with_groups(groups)
        problems = strong_convergence_violations(protocol, pss, invariant)
        self.op(name, "oracle", not problems, "; ".join(problems))
        if name == "token-ring-stsyn":
            same = added_groups(protocol, groups) == section_v_recovery(protocol, 3)
            self.op(name, "section-v", same, "recovery differs from Section V")
        self.program_bdd_nodes += program_bdd_nodes(protocol, groups)


def server_times(job: dict) -> tuple[float, float]:
    """(created -> finished, created -> started) on the server's clock."""
    return job["finished"] - job["created"], job["started"] - job["created"]


def layer_metrics(deploy: Deployment, client: Client, cold, warm) -> dict:
    status, body = call(deploy.port, "GET", "/metrics?format=json")
    counters = json.loads(body)["counters"] if status == 200 else {}
    race = summarize(sorted(glob.glob(str(deploy.data_dir / "svc/jobs/*/race/merged.jsonl"))))
    warm_latency = [a["latency"] for a in warm]
    job_s = [server_times(a["job"])[0] for a in warm]
    layers = {
        "service.cold_jobs_per_s": len(cold) / sum(a["latency"] for a in cold),
        "service.warm_p50_s": median(warm_latency),
        "service.warm_jobs_per_s": len(warm) / sum(warm_latency),
        "service.job_s": median(job_s),
        "service.queue_wait_s": median(server_times(a["job"])[1] for a in warm),
        "service.stream_tail_s": median(
            lat - js for lat, js in zip(warm_latency, job_s)
        ),
        "service.cache_hits": counters.get("service.cache_hits", 0),
        "service.synth_runs": counters.get("service.synth_runs", 0),
        "cert.check_s": client.cert_check_s,
        "cert.bytes": client.cert_bytes,
        # the service writes every job's trace in either mode
        "trace.overhead_s": 0.0,
    }
    for name in ("transport.remote_dispatches", "transport.lease_expiries",
                 "portfolio.retries"):
        layers[name] = race.counters.get(name, 0)
    # the coordinator runs the shared precompute; the heuristic itself runs
    # on the remote worker, which keeps no trace the coordinator can read
    precompute = race.spans.get("portfolio.precompute")
    layers["precompute.s"] = precompute.total if precompute else 0.0
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    run_dir = WORK / f"service-{os.getpid()}-{time.time_ns()}"
    setups: list[float] = []
    deploy = None
    try:
        for index in range(SETUPS):
            deploy = Deployment(run_dir / f"deploy{index}")
            setups.append(deploy.setup_s)
            if index < SETUPS - 1:
                deploy.close()
        client = Client(deploy.port)
        cold = [client.request(name, cold=True) for name in JOBS]
        rng = random.Random(args.seed)
        warm, rounds = [], []
        for _ in range(max(MIN_WARM_ROUNDS, round(args.seconds / WARM_ROUND_SECONDS))):
            order = list(JOBS)
            rng.shuffle(order)
            answers = [client.request(name, cold=False) for name in order]
            warm.extend(a for a in answers if a is not None)
            rounds.append(sum(a["latency"] for a in answers if a is not None))
        cold = [a for a in cold if a is not None]
        out = {
            "passes": len(rounds),
            "attempted": client.attempted,
            "failed": client.failed,
            "problems": client.problems[:20],
            "setup_s": median(setups),
            "synth_s": sum(a["latency"] for a in cold),
            "check_s": median(rounds),
            "program_bdd_nodes": client.program_bdd_nodes,
            "peak_rss_mb": deploy.peak_rss_mb(),
        }
        if args.trace:
            out["layers"] = layer_metrics(deploy, client, cold, warm)
    finally:
        if deploy is not None:
            deploy.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
