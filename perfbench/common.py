"""Shared pieces of the benchmark: metric tables, paths, child processes,
statistics and trace aggregation.

Stdlib only, so ``run.py`` can report a missing source tree without
importing the program.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: working space for service data directories; listed in .gitignore
WORK = ROOT / ".perfbench"

WORKLOADS = ("paper-explicit", "paper-symbolic", "service")

#: hash seed of every interpreter the benchmark starts, so the program's
#: own counters repeat exactly between runs
HASH_SEED = "0"

#: name -> unit; every workload reports every one of these untraced
END_TO_END = {
    "setup_s": "s",
    "synth_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MB",
    "program_bdd_nodes": "nodes",
}

#: name -> unit; every workload reports every one of these traced (0 where
#: the workload does not run the layer)
PER_LAYER = {
    "startup.import_s": "s",
    "protocols.build_s": "s",
    "protocol.states": "count",
    "encode.build_s": "s",
    "encode.relation_nodes": "nodes",
    "precompute.s": "s",
    "ranking.levels": "count",
    "ranking.states_explored": "count",
    "heuristic.pass1_s": "s",
    "heuristic.pass2_s": "s",
    "heuristic.pass3_s": "s",
    "heuristic.add_recovery_s": "s",
    "heuristic.identify_resolve_cycles_s": "s",
    "heuristic.identify_resolve_cycles_calls": "count",
    "heuristic.groups_added": "count",
    "heuristic.groups_rejected_cycles": "count",
    "heuristic.scc_detections": "count",
    "heuristic.portfolio_attempts": "count",
    "symbolic.ranking_s": "s",
    "symbolic.scc_gentilini_s": "s",
    "symbolic.gentilini_tasks": "count",
    "bdd.ite_calls": "count",
    "bdd.ite_cache_hits": "count",
    "bdd.op_cache_lookups": "count",
    "bdd.op_cache_hits": "count",
    "bdd.peak_live_nodes": "nodes",
    "bdd.unique_nodes": "nodes",
    "bdd.gc_runs": "count",
    "bdd.gc_collected": "nodes",
    "bdd.relprod_many_bfs": "count",
    "verify.check_solution_s": "s",
    "cert.emit_s": "s",
    "cert.check_s": "s",
    "cert.check_symbolic_s": "s",
    "cert.bytes": "bytes",
    "transport.remote_dispatches": "count",
    "transport.lease_expiries": "count",
    "portfolio.retries": "count",
    "service.cold_jobs_per_s": "1/s",
    "service.warm_p50_s": "s",
    "service.warm_jobs_per_s": "1/s",
    "service.job_s": "s",
    "service.queue_wait_s": "s",
    "service.stream_tail_s": "s",
    "service.cache_hits": "count",
    "service.synth_runs": "count",
    "trace.overhead_s": "s",
}

#: per-layer metrics that are exact counts of the program's work: the
#: determinism test requires them to repeat bit for bit
DETERMINISTIC = tuple(
    name
    for name, unit in PER_LAYER.items()
    if unit in ("count", "nodes", "bytes")
    and not name.startswith(("transport.", "portfolio.", "service."))
)


class Ops:
    """Tally of a run's operations; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, case: str, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{case}: {what} failed {detail}".rstrip())
        return ok


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def python_child(args: list[str], **kwargs) -> subprocess.Popen:
    """Start ``python <args>`` from the repository root."""
    return subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(), **kwargs
    )


def stop(process: subprocess.Popen, timeout: float = 20.0) -> None:
    """SIGTERM, wait, SIGKILL if it does not go; always reaps."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux ``ru_maxrss`` is in KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def span_self_times(records) -> dict[str, float]:
    """Self time per span name over a tracer's records.

    Records arrive in closing order, so the direct children of a span are
    exactly the closed spans not yet claimed that started inside it.
    """
    totals: dict[str, float] = {}
    open_children: list[tuple[float, float]] = []  # (start, dur), unclaimed
    for record in records:
        if record.get("type") != "span":
            continue
        start, dur = record["start"], record["dur"]
        covered = 0.0
        while open_children and open_children[-1][0] >= start:
            covered += open_children.pop()[1]
        totals[record["name"]] = totals.get(record["name"], 0.0) + dur - covered
        open_children.append((start, dur))
    return totals


def span_totals(records) -> dict[str, float]:
    """Inclusive duration per span name."""
    totals: dict[str, float] = {}
    for record in records:
        if record.get("type") == "span":
            totals[record["name"]] = totals.get(record["name"], 0.0) + record["dur"]
    return totals
