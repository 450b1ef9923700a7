"""The benchmark's own tests: ``python -m pytest perfbench -q`` (~2 min).

The determinism guard runs each paper workload's traced pass twice, with
two seeds (so two case orders), and requires the program's own counts to
repeat exactly; later kernel or heuristic changes can then cite them as
exact counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    DETERMINISTIC,
    END_TO_END,
    PER_LAYER,
    ROOT,
    SRC,
    WORKLOADS,
    child_env,
)

sys.path.insert(0, str(SRC))

from oracle import (  # noqa: E402
    added_groups,
    section_v_recovery,
    strong_convergence_violations,
)


def test_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_oracle_accepts_dijkstra_and_rejects_the_input_ring():
    from repro.protocols.token_ring import (
        dijkstra_stabilizing_token_ring,
        token_ring,
    )

    protocol, invariant = token_ring(4, 3)
    stabilizing, _ = dijkstra_stabilizing_token_ring(4, 3)
    assert strong_convergence_violations(protocol, stabilizing, invariant) == []
    problems = strong_convergence_violations(protocol, protocol, invariant)
    assert any("deadlock" in p for p in problems)


def test_section_v_recovery_is_what_synthesis_adds():
    from repro.core import add_strong_convergence
    from repro.protocols.token_ring import token_ring

    protocol, invariant = token_ring(4, 3)
    result = add_strong_convergence(protocol, invariant, schedule=(1, 2, 3, 0))
    assert added_groups(protocol, result.protocol.groups) == section_v_recovery(
        protocol, 3
    )
    assert section_v_recovery(protocol, 3) != [set()] * 4


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "paper.py"), workload, "--seed", str(seed),
         "--seconds", "0", "--trace"],
        cwd=ROOT, env=child_env(), capture_output=True, check=True, timeout=600,
    )
    result = json.loads(out.stdout.decode().strip().splitlines()[-1])
    assert result["failed"] == 0, result["problems"]
    counts = {n: result["layers"][n] for n in DETERMINISTIC if n in result["layers"]}
    counts["program_bdd_nodes"] = result["program_bdd_nodes"]
    return counts


@pytest.mark.parametrize("workload", ["paper-explicit", "paper-symbolic"])
def test_counts_repeat_exactly(workload):
    first, second = traced_counts(workload, 1), traced_counts(workload, 2)
    assert first == second
    layer = "bdd.ite_calls" if workload == "paper-symbolic" else "heuristic.groups_added"
    assert first[layer] > 0
