"""Matrix-oracle commutation checking and diagonal-block detection.

The matrix oracle is the single source of truth: no symbolic Pauli-algebra
shortcuts.  Two operators commute iff max|AB - BA| on their joint context is
within tolerance; operators on disjoint supports commute trivially.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .gates import embed, gates_unitary
from .gdg import GDG, AggregatedInstruction

TOL_COMMUTE = 1e-8
TOL_DIAG = 1e-8
DIAG_WINDOW_CAP = 10  # gates per 2-qubit detection window


def commutes(a, b) -> bool:
    """Embed both operators (gates or instructions) on the union context and
    compare AB with BA."""
    ia, ib = (x if isinstance(x, AggregatedInstruction)
              else AggregatedInstruction([x]) for x in (a, b))
    qa, qb = set(ia.qubits), set(ib.qubits)
    if not qa & qb:
        return True
    ctx = sorted(qa | qb)
    ua = gates_unitary(ia.gates, ctx)
    ub = gates_unitary(ib.gates, ctx)
    return bool(np.max(np.abs(ua @ ub - ub @ ua)) <= TOL_COMMUTE)


def _shape(gates, pos: dict[int, int]) -> tuple:
    """Everything embed reads of each gate, operands as their positions in
    pos.  With positions in the sorted context, equal shapes embed to equal
    matrices entry for entry.  With any other numbering of the wires, equal
    shapes are the same gates up to a wire relabelling, which conjugates
    every operator by one permutation and so keeps whether two commute."""
    return tuple((gt.name, gt.params, tuple(pos[q] for q in gt.qubits),
                  None if gt.custom_matrix is None
                  else np.asarray(gt.custom_matrix, dtype=complex).tobytes())
                 for gt in gates)


@cache
def _off_diagonal(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def is_diagonal(u: np.ndarray, tol: float = TOL_DIAG) -> bool:
    return bool(np.abs(u[_off_diagonal(len(u))]).max(initial=0.0) <= tol)


@dataclass
class CommutationGroupTable:
    """Per qubit, an ordered list of groups of mutually commuting node ids."""
    groups: dict[int, list[list[int]]]


def build_commutation_groups(g: GDG) -> CommutationGroupTable:
    """Greedy left-to-right grouping per qubit.

    A gate joins the current group iff it commutes (on the joint context)
    with every member; otherwise a new group starts.  The oracle is asked
    once per pair of shapes, with wires numbered in the order the pair's
    gates first use them; later pairs of the same shapes, on any wires,
    reuse its verdict.
    """
    verdicts: dict[tuple, bool] = {}

    def commute(a: AggregatedInstruction, b: AggregatedInstruction) -> bool:
        qa, qb = set(a.qubits), set(b.qubits)
        if not qa & qb:
            return True
        pos = {q: i for i, q in enumerate(dict.fromkeys(a.qubits + b.qubits))}
        key = (_shape(a.gates, pos), _shape(b.gates, pos))
        if key not in verdicts:
            verdicts[key] = commutes(a, b)
        return verdicts[key]

    groups: dict[int, list[list[int]]] = {}
    for q, path in g.qubit_paths().items():
        qgroups: list[list[int]] = []
        for nid in path:
            ins = g.nodes[nid].instruction
            if qgroups and all(commute(g.nodes[m].instruction, ins)
                               for m in qgroups[-1]):
                qgroups[-1].append(nid)
            else:
                qgroups.append([nid])
        groups[q] = qgroups
    return CommutationGroupTable(groups)


def singleton_groups(g: GDG) -> CommutationGroupTable:
    """Every node in its own group: plain dependence-DAG scheduling."""
    return CommutationGroupTable(
        {q: [[nid] for nid in path] for q, path in g.qubit_paths().items()})


def _interacting_pairs(g: GDG) -> list[tuple[int, int]]:
    pairs = set()
    for node in g.real_nodes():
        qs = node.qubits
        if len(qs) == 2:
            pairs.add(tuple(sorted(qs)))
    return sorted(pairs)


def _pair_runs(g: GDG, pair: tuple[int, int]) -> list[list[int]]:
    """Maximal contract-legal runs of nodes supported on pair, in topological
    order: a node joins the run when its parent on each qubit the run touches
    is the run's last node there, and none of its other parents is
    downstream of the run (which would close a cycle).

    While g is seq-ordered, the seq order of the pair's two chains is that
    order, so only their pair-supported nodes are visited, and a parent is
    downstream of the run when a backward search from it, over parents whose
    seq is at or above the run's first, meets a run member.  Otherwise one
    sweep of the whole topological order marks everything downstream of the
    run as it goes."""
    support = set(pair)
    if g.seq_ordered:
        order = sorted({nid for q in pair for nid in g.qubit_path(q)
                        if set(g.nodes[nid].qubits) <= support},
                       key=lambda i: g.nodes[i].seq)
    else:
        order = g.topological_order()
    runs: list[list[int]] = [[]]
    last_on: dict[int, int] = {}
    reached: set[int] = set()  # the run, and in a sweep everything downstream of it

    def downstream(p: int) -> bool:
        if not g.seq_ordered or not reached:
            return p in reached
        floor = g.nodes[runs[-1][0]].seq
        stack, seen = [p], {p}
        while stack:
            cur = stack.pop()
            if cur in reached:
                return True
            for up in g.nodes[cur].parents.values():
                if up not in seen and g.nodes[up].seq >= floor:
                    seen.add(up)
                    stack.append(up)
        return False

    for nid in order:
        node = g.nodes[nid]
        if not set(node.qubits) <= support:
            if reached.intersection(node.parents.values()):
                reached.add(nid)
            continue
        if not all(last_on.get(q) == p if q in last_on else not downstream(p)
                   for q, p in node.parents.items()):
            runs.append([])
            last_on, reached = {}, set()
        runs[-1].append(nid)
        last_on.update(dict.fromkeys(node.qubits, nid))
        reached.add(nid)
    return [run for run in runs if len(run) >= 2]


def detect_diagonal_blocks(g: GDG) -> GDG:
    """Contract maximal runs of 2-qubit-supported gates with diagonal product.

    One pass per interacting qubit pair: from each node of a run, the longest
    window of 2 or more nodes and at most DIAG_WINDOW_CAP gates whose product
    is diagonal becomes a single node, and the scan resumes after it.  A
    slice of a legal run is legal, and the run's topological order is the
    order contract joins the slice's gates in: the run is read before its
    earlier windows merge, but the graph gives a merged node its members'
    smallest seq, so a later slice keeps the order topological_order gives
    it (checked by test_callers_contract_in_the_graph_topological_order).
    Each gate shape is embedded once.  Mutates and returns g.
    """
    embedded: dict[tuple, np.ndarray] = {}
    for pair in _interacting_pairs(g):
        ctx, pos = list(pair), {pair[0]: 0, pair[1]: 1}
        for run in _pair_runs(g, pair):
            i = 0
            while i < len(run):
                u, count, end = np.eye(4, dtype=complex), 0, None
                for j in range(i, len(run)):
                    gates = g.nodes[run[j]].instruction.gates
                    count += len(gates)
                    if count > DIAG_WINDOW_CAP:
                        break
                    for gt, key in zip(gates, _shape(gates, pos)):
                        if key not in embedded:
                            embedded[key] = embed(gt, ctx)
                        u = embedded[key] @ u
                    if j > i and is_diagonal(u):
                        end = j + 1
                if end:
                    g.contract(run[i:end])
                i = end or i + 1
    return g
