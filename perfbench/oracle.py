"""The benchmark's own output checks, independent of ``repro.verify``.

``strong_convergence_violations`` re-derives Problem III.1 on the explicit
state graph with scipy's strongly-connected-components routine, so a fault
shared by the program's checkers (``check_solution``, the certificate
checkers) cannot hide a wrong answer.  The paper-property checks pin facts
the paper states in its own text.  ``program_bdd_nodes`` measures the
size of an answer the same way for both engines.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.symbolic import SymbolicProtocol


def _edge_codes(protocol, source_mask: np.ndarray) -> np.ndarray:
    """Sorted unique ``src * |S| + dst`` codes of the transitions that start
    in ``source_mask``."""
    src, dst = protocol.edge_arrays()
    keep = source_mask[src]
    n = np.int64(protocol.space.size)
    return np.unique(src[keep].astype(np.int64) * n + dst[keep].astype(np.int64))


def strong_convergence_violations(original, pss, invariant) -> list[str]:
    """The four properties of a strongly converging solution, as messages.

    An empty list means: ``I`` is closed in ``pss``; no state of ``¬I`` is a
    deadlock; ``pss`` has no cycle inside ``¬I``; and the transitions of
    ``pss`` that start in ``I`` are exactly those of ``original``.
    """
    inside = np.asarray(invariant.mask, dtype=bool)
    n = inside.size
    src, dst = pss.edge_arrays()
    problems: list[str] = []

    if (inside[src] & ~inside[dst]).any():
        problems.append("I is not closed")

    has_successor = np.zeros(n, dtype=bool)
    has_successor[src] = True
    deadlocks = int((~inside & ~has_successor).sum())
    if deadlocks:
        problems.append(f"{deadlocks} deadlock states in not-I")

    outside = ~inside[src] & ~inside[dst]
    s, d = src[outside], dst[outside]
    if (s == d).any():
        problems.append("self-loop in not-I")
    graph = csr_matrix(
        (np.ones(s.size, dtype=np.int8), (s, d)), shape=(n, n)
    )
    _count, labels = connected_components(graph, directed=True, connection="strong")
    cyclic = int((np.bincount(labels) > 1).sum())
    if cyclic:
        problems.append(f"{cyclic} non-trivial SCCs in not-I")

    if not np.array_equal(_edge_codes(original, inside), _edge_codes(pss, inside)):
        problems.append("transitions starting in I changed")
    return problems


def program_bdd_nodes(protocol, pss_groups) -> int:
    """The paper's space metric (Figs. 7/9/11): shared BDD size of the
    per-process relations of a synthesized program."""
    sp = SymbolicProtocol(protocol)
    return sp.sym.bdd.size_many(sp.process_relations(pss_groups))


def added_groups(original, pss_groups) -> list[set]:
    """Per-process groups of ``pss_groups`` that ``original`` lacks."""
    return [
        set(map(tuple, groups)) - set(original.groups[j])
        for j, groups in enumerate(pss_groups)
    ]


def section_v_recovery(protocol, domain: int) -> list[set]:
    """The recovery the paper's Section V derives for the token ring:
    ``x_j = x_{j-1} + 1 -> x_j := x_{j-1}`` for every ``j >= 1``, and none
    for ``P0``; as per-process ``(rcode, wcode)`` group sets."""
    names = [v.name for v in protocol.space.variables]
    expected: list[set] = [set()]
    for j in range(1, protocol.n_processes):
        table = protocol.tables[j]
        left, mine = names.index(f"x{j - 1}"), names.index(f"x{j}")
        groups = set()
        for value in range(domain):
            reads = {left: value, mine: (value + 1) % domain}
            rcode = table.rcode_of_values([reads[v] for v in table.read_vars])
            wcode = table.wcode_of_values([value])
            groups.add((rcode, wcode))
        expected.append(groups)
    return expected
