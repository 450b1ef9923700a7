"""One benchmark command for STSyn, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``paper-explicit``, ``paper-symbolic``, ``service`` (see
README.md).  Each runs in fresh interpreters with a fixed
``PYTHONHASHSEED``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of one traced
run.  Exits non-zero without a result when the program's source tree is
missing or a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SRC,
    WORK,
    WORKLOADS,
    median,
    python_child,
    stop,
)

HERE = Path(__file__).resolve().parent

#: fresh interpreters that time ``import repro.cli`` for startup.import_s
IMPORT_SAMPLES = 5
#: extra set-up-only interpreters per paper run; with the measured
#: interpreter's own set-up they give three setup_s samples
EXTRA_SETUPS = 2
#: hard limit on one child, inside the 180 s a run may take
CHILD_TIMEOUT = 170.0


class WorkloadError(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run a workload interpreter; returns (seconds from start to its READY
    line, its JSON result or None for a set-up-only child)."""
    start = time.perf_counter()
    child = python_child(args, stdout=subprocess.PIPE)
    try:
        first = child.stdout.readline()
        ready_s = time.perf_counter() - start
        if first.strip() not in (b"READY", b"") and not first.startswith(b"{"):
            raise WorkloadError(f"unexpected output {first[:200]!r}")
        rest, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkloadError(f"{args[0]} exceeded the time limit") from None
    finally:
        stop(child)
    if child.returncode != 0:
        raise WorkloadError(f"{' '.join(args)} exited {child.returncode}")
    lines = (first + rest).decode().strip().splitlines()
    if lines and lines[-1].startswith("{"):
        return ready_s, json.loads(lines[-1])
    return ready_s, None


def import_seconds(deadline: float) -> float:
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        child = python_child(["-c", code], stdout=subprocess.PIPE)
        try:
            out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            stop(child)
        samples.append(float(out.decode().strip()))
    return median(samples)


def paper_args(workload: str, seed: int, seconds: float, *flags) -> list[str]:
    return [str(HERE / "paper.py"), workload, "--seed", str(seed),
            "--seconds", str(seconds), *flags]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    if workload == "service":
        _, result = run_child(
            [str(HERE / "service.py"), "--seed", str(seed), "--seconds", str(seconds)],
            deadline,
        )
        return result
    setups = [
        run_child(paper_args(workload, seed, seconds, "--setup-only"), deadline)[0]
        for _ in range(EXTRA_SETUPS)
    ]
    ready_s, result = run_child(paper_args(workload, seed, seconds), deadline)
    result["setup_s"] = median(setups + [ready_s])
    return result


def trace(workload: str, seed: int, deadline: float) -> dict:
    """Traced run: the per-layer metrics, plus the tracing overhead against
    an untraced interpreter doing the same single pass."""
    if workload == "service":
        _, result = run_child(
            [str(HERE / "service.py"), "--seed", str(seed), "--seconds", "0", "--trace"],
            deadline,
        )
    else:
        _, plain = run_child(paper_args(workload, seed, 0), deadline)
        _, result = run_child(paper_args(workload, seed, 0, "--trace"), deadline)
        result["layers"]["trace.overhead_s"] = result["pass_s"] - plain["pass_s"]
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
        result["problems"] += plain["problems"]
    result["layers"]["startup.import_s"] = import_seconds(deadline)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + CHILD_TIMEOUT
    try:
        if args.trace:
            result = trace(args.workload, args.seed, deadline)
            table, values = PER_LAYER, result["layers"]
        else:
            result = measure(args.workload, args.seed, args.seconds, deadline)
            table, values = END_TO_END, result
    except WorkloadError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload}: {result['passes']} pass(es)", file=sys.stderr)
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in table.items()
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
