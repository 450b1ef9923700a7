"""The ``paper-explicit`` and ``paper-symbolic`` workloads, one interpreter
per run.

Started by ``run.py`` as::

    python perfbench/paper.py <workload> --seed N --seconds S [--trace] [--setup-only]

It imports the program, builds every case (symbolic encoding included) and
prints ``READY``; the parent times interpreter start to that line as one
``setup_s`` sample.  With ``--setup-only`` it exits there.  Otherwise it
runs whole passes over the cases (order drawn from the seed) and prints
one JSON line.  A pass synthesizes every case, re-checks every result with
the program's checkers, and then checks it again with the benchmark's own
checks (``oracle.py``, untimed).  The number of passes follows from
``--seconds`` alone (see ``PASS_SECONDS``), so every run of a given length
attempts the same operations.

With ``--trace`` a :class:`repro.trace.Tracer` records the program's spans
and counters plus the benchmark's spans around each call into a layer; the
JSON line then carries the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import Ops, median, peak_rss_mb, span_self_times, span_totals  # noqa: E402
from oracle import program_bdd_nodes, strong_convergence_violations  # noqa: E402

import repro.cli  # noqa: E402,F401  -- the start-up a `stsyn` user pays
from repro.bdd import ZERO  # noqa: E402
from repro.cert import (  # noqa: E402
    check_certificate,
    check_certificate_symbolic,
)
from repro.core import add_strong_convergence, synthesize  # noqa: E402
from repro.metrics import SynthesisStats  # noqa: E402
from repro.protocols import matching, token_ring, two_ring  # noqa: E402
from repro.protocols.coloring import coloring_symbolic  # noqa: E402
from repro.symbolic import (  # noqa: E402
    SymbolicProtocol,
    add_strong_convergence_symbolic,
)
from repro.trace import NULL_TRACER, Tracer, use_tracer  # noqa: E402
from repro.verify import check_solution  # noqa: E402

#: TR K=6 |D|=5, matching K=11 (Fig. 6's largest) and TR² (two rings, 8
#: processes): the explicit engine's paper-scale cases
EXPLICIT_CASES = {
    "tr-k6-d5": (token_ring, (6, 5)),
    "matching-k11": (matching, (11,)),
    "two-ring": (two_ring, ()),
}

#: a run makes round(--seconds / this) passes, at least one, so the work a
#: run does is fixed by --seconds and not by how fast the program is; one
#: pass of either workload takes 15-35 s on a 2-CPU box
PASS_SECONDS = 30.0

BDD_GAUGES = ("peak_live_nodes", "unique_nodes")
BDD_COUNTERS = (
    "ite_calls", "ite_cache_hits", "op_cache_lookups", "op_cache_hits",
    "gc_runs", "gc_collected", "relprod_many_bfs",
)


class Pass(Ops):
    """Timings and operation outcomes of one pass over the cases."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer
        self.synth_s = 0.0
        self.check_s = 0.0
        self.program_bdd_nodes = 0
        self.cert_bytes = 0
        self.bdd: dict[str, int] = {}

    def timed(self, bucket: str, span: str, fn, *args, **kwargs):
        """Call ``fn`` inside a tracer span, adding its time to a bucket."""
        start = time.perf_counter()
        with self.tracer.span(span):
            value = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        setattr(self, bucket, getattr(self, bucket) + elapsed)
        return value

    def add_bdd(self, counters: dict) -> None:
        for name in BDD_COUNTERS:
            self.bdd[name] = self.bdd.get(name, 0) + counters[name]
        for name in BDD_GAUGES:
            self.bdd[name] = max(self.bdd.get(name, 0), counters[name])


# ----------------------------------------------------------------------
# case construction (the set-up)
# ----------------------------------------------------------------------
def build_cases(workload: str, tracer) -> dict:
    """The workload's cases.  Symbolic: coloring K=16 (Figs. 8-9) is
    image/ranking bound with zero SCCs; matching K=8 is bound by Gentilini
    SCC work."""
    cases = {}
    if workload == "paper-explicit":
        for name, (builder, args) in EXPLICIT_CASES.items():
            with tracer.span("protocols.build"):
                protocol, invariant = builder(*args)
            cases[name] = {"protocol": protocol, "invariant": invariant}
        return cases
    with tracer.span("encode.build"):
        protocol, sp, inv = coloring_symbolic(16)
    cases["coloring-k16"] = {
        "protocol": protocol, "sp": sp, "inv": inv,
        "encode_nodes": sp.sym.bdd.num_nodes(),
    }
    with tracer.span("protocols.build"):
        protocol, invariant = matching(8)
    with tracer.span("encode.build"):
        sp = SymbolicProtocol(protocol)
        inv = sp.sym.from_predicate(invariant)
    cases["matching-k8"] = {
        "protocol": protocol, "invariant": invariant, "sp": sp, "inv": inv,
        "encode_nodes": sp.sym.bdd.num_nodes(),
    }
    return cases


# ----------------------------------------------------------------------
# one case
# ----------------------------------------------------------------------
def run_explicit_case(name: str, case: dict, run: Pass) -> None:
    protocol, invariant = case["protocol"], case["invariant"]
    try:
        portfolio = run.timed(
            "synth_s", "synthesize", synthesize, protocol, invariant,
            tracer=run.tracer if run.tracer.enabled else None,
        )
    except Exception as exc:  # the whole case fails; count its checks too
        for what in ("synthesize", "check_solution", "certificate", "oracle"):
            run.op(name, what, False, repr(exc))
        return
    result = portfolio.result
    if not run.op(name, "synthesize", portfolio.success):
        for what in ("check_solution", "certificate", "oracle"):
            run.op(name, what, False, "no solution")
        return
    pss = result.protocol
    check = run.timed(
        "check_s", "verify.check_solution", check_solution,
        protocol, pss, invariant,
    )
    run.op(name, "check_solution", check.ok, str(check))
    try:
        cert = run.timed("check_s", "cert.emit", result.certificate)
        run.timed("check_s", "cert.check", check_certificate,
                  protocol, invariant, cert)
        run.cert_bytes += len(cert.dumps())
        run.op(name, "certificate", True)
    except Exception as exc:
        run.op(name, "certificate", False, repr(exc))
    problems = strong_convergence_violations(protocol, pss, invariant)
    run.op(name, "oracle", not problems, "; ".join(problems))
    run.program_bdd_nodes += program_bdd_nodes(protocol, pss.groups)


def coloring_recovery_problems(protocol, added_groups) -> list[str]:
    """Every recovery write of ring colouring must fix the writer's
    conflict: it fires only where the writer's colour equals a neighbour's
    and writes a colour unlike both.  The count of conflicting neighbour
    pairs then drops with every recovery step, which rules out cycles and
    keeps ``I`` closed without building the 3^K state graph."""
    problems = []
    for j, groups in enumerate(added_groups):
        table = protocol.tables[j]
        mine = table.read_vars.index(table.write_vars[0])
        for rcode, wcode in groups:
            values = table.values_of_rcode(rcode)
            others = [v for pos, v in enumerate(values) if pos != mine]
            (new,) = table.values_of_wcode(wcode)
            if values[mine] not in others or new in others:
                problems.append(f"group ({j},{rcode},{wcode}) reads {values} writes {new}")
    return problems


def run_symbolic_case(name: str, case: dict, run: Pass) -> None:
    protocol, sp, inv = case["protocol"], case["sp"], case["inv"]
    checks = (
        ("certificate", "oracle", "explicit-agreement")
        if name == "matching-k8"
        else ("zero-sccs", "recovery-shape")
    )
    stats = SynthesisStats(tracer=run.tracer)
    try:
        with use_tracer(run.tracer):
            result = run.timed(
                "synth_s", "synthesize", add_strong_convergence_symbolic,
                protocol, inv, sp=sp, stats=stats,
            )
    except Exception as exc:
        for what in ("synthesize", *checks):
            run.op(name, what, False, repr(exc))
        return
    run.add_bdd(sp.sym.bdd.counters())
    ok = result.success and result.remaining_deadlocks == ZERO
    if not run.op(name, "synthesize", ok):
        for what in checks:
            run.op(name, what, False, "no solution")
        return
    result.record_space_metrics()
    run.program_bdd_nodes += stats.bdd_nodes["total_program_size"]

    if name == "coloring-k16":
        # 3^16 states: beyond the certificate fingerprint limit and the
        # explicit oracle, so the checks are the paper's own claims
        run.op(name, "zero-sccs", not stats.scc_sizes,
               f"{len(stats.scc_sizes)} SCCs")
        problems = coloring_recovery_problems(protocol, result.added_groups)
        run.op(name, "recovery-shape", not problems, "; ".join(problems[:3]))
        return

    invariant = case["invariant"]
    try:
        cert = run.timed("check_s", "cert.emit", result.certificate)
        run.timed("check_s", "cert.check_symbolic", check_certificate_symbolic,
                  protocol, invariant, cert)
        run.cert_bytes += len(cert.dumps())
        run.op(name, "certificate", True)
    except Exception as exc:
        run.op(name, "certificate", False, repr(exc))
    pss = result.to_protocol()
    problems = strong_convergence_violations(protocol, pss, invariant)
    run.op(name, "oracle", not problems, "; ".join(problems))
    explicit = add_strong_convergence(protocol, invariant)
    same = explicit.success and [set(g) for g in explicit.protocol.groups] == [
        set(g) for g in result.pss_groups
    ]
    run.op(name, "explicit-agreement", same, "group sets differ")


def run_pass(workload: str, cases: dict, order: list[str], tracer) -> Pass:
    run = Pass(tracer)
    for name in order:
        if workload == "paper-explicit":
            run_explicit_case(name, cases[name], run)
        else:
            run_symbolic_case(name, cases[name], run)
    return run


# ----------------------------------------------------------------------
# per-layer figures of a traced pass
# ----------------------------------------------------------------------
def layer_metrics(tracer, cases: dict, run: Pass) -> dict:
    self_s = span_self_times(tracer.records)
    total_s = span_totals(tracer.records)
    counters = tracer.counters
    layers = {
        "protocols.build_s": self_s.get("protocols.build", 0.0),
        "protocol.states": sum(int(c["protocol"].space.size) for c in cases.values()),
        "encode.build_s": self_s.get("encode.build", 0.0),
        "encode.relation_nodes": sum(c.get("encode_nodes", 0) for c in cases.values()),
        # parallel.precompute and core.ranking are one row: inclusive time
        "precompute.s": total_s.get("portfolio.precompute", 0.0),
        "ranking.levels": counters.get("rank_levels", 0),
        "ranking.states_explored": counters.get("rank_states_explored", 0),
        "heuristic.pass1_s": self_s.get("heuristic.pass1", 0.0),
        "heuristic.pass2_s": self_s.get("heuristic.pass2", 0.0),
        "heuristic.pass3_s": self_s.get("heuristic.pass3", 0.0),
        "heuristic.add_recovery_s": self_s.get("add_recovery", 0.0),
        "heuristic.identify_resolve_cycles_s": self_s.get("identify_resolve_cycles", 0.0),
        "symbolic.ranking_s": self_s.get("symbolic.rank.backward_bfs", 0.0),
        "symbolic.scc_gentilini_s": self_s.get("scc.gentilini", 0.0),
        "symbolic.gentilini_tasks": counters.get("scc.gentilini_tasks", 0),
        "verify.check_solution_s": self_s.get("verify.check_solution", 0.0),
        "cert.emit_s": self_s.get("cert.emit", 0.0),
        "cert.check_s": self_s.get("cert.check", 0.0),
        "cert.check_symbolic_s": self_s.get("cert.check_symbolic", 0.0),
        "cert.bytes": run.cert_bytes,
    }
    for name in (
        "identify_resolve_cycles_calls", "groups_added", "groups_rejected_cycles",
        "scc_detections", "portfolio_attempts",
    ):
        layers[f"heuristic.{name}"] = counters.get(name, 0)
    for name in BDD_COUNTERS + BDD_GAUGES:
        layers[f"bdd.{name}"] = run.bdd.get(name, 0)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("paper-explicit", "paper-symbolic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer(None, command="perfbench") if args.trace else NULL_TRACER
    with use_tracer(tracer):
        cases = build_cases(args.workload, tracer)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rng = random.Random(args.seed)
    n_passes = 1 if args.trace else max(1, round(args.seconds / PASS_SECONDS))
    passes: list[Pass] = []
    pass_times: list[float] = []
    for index in range(n_passes):
        if index:
            # a fresh build per pass, so no pass reuses another's BDD memo
            # tables or lazily built group arrays
            cases = build_cases(args.workload, NULL_TRACER)
        order = sorted(cases)
        rng.shuffle(order)
        t0 = time.perf_counter()
        passes.append(run_pass(args.workload, cases, order, tracer))
        pass_times.append(time.perf_counter() - t0)

    first = passes[0]
    out = {
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": [msg for p in passes for msg in p.problems][:20],
        "synth_s": median(p.synth_s for p in passes),
        "check_s": median(p.check_s for p in passes),
        "pass_s": median(pass_times),
        "program_bdd_nodes": first.program_bdd_nodes,
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.trace:
        out["layers"] = layer_metrics(tracer, cases, first)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
