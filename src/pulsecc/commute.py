"""Matrix-oracle commutation checking and diagonal-block detection.

The matrix oracle is the single source of truth: no symbolic Pauli-algebra
shortcuts.  Two operators commute iff max|AB - BA| on their joint context is
within tolerance; operators on disjoint supports commute trivially.
"""
from __future__ import annotations

from functools import cache

import numpy as np

from .gates import embed, embed_operator
from .gdg import GDG, AggregatedInstruction

TOL_COMMUTE = 1e-8
TOL_DIAG = 1e-8
DIAG_WINDOW_CAP = 10  # gates per 2-qubit detection window


def commutes(a, b) -> bool:
    """Embed both operators (gates or instructions) on the union context and
    compare AB with BA."""
    ia, ib = (x if isinstance(x, AggregatedInstruction)
              else AggregatedInstruction([x]) for x in (a, b))
    if set(ia.qubits).isdisjoint(ib.qubits):
        return True
    ctx = list(dict.fromkeys(ia.qubits + ib.qubits))
    ua = embed_operator(ia.target_unitary, ia.qubits, ctx)
    ub = embed_operator(ib.target_unitary, ib.qubits, ctx)
    return bool(np.max(np.abs(ua @ ub - ub @ ua)) <= TOL_COMMUTE)


def _overlap(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """b's wires as positions in a, each wire a lacks numbered from len(a) on
    in order: with both shapes, where two instructions' wires meet."""
    new = iter(range(len(a), len(a) + len(b)))
    return tuple(a.index(q) if q in a else next(new) for q in b)


@cache
def _off_diagonal(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def is_diagonal(u: np.ndarray, tol: float = TOL_DIAG) -> bool:
    return bool(np.abs(u[_off_diagonal(len(u))]).max(initial=0.0) <= tol)


def build_commutation_groups(g: GDG) -> dict[int, list[list[int]]]:
    """Per qubit, an ordered list of groups of mutually commuting node ids,
    by greedy left-to-right grouping.

    A gate joins the current group iff it commutes (on the joint context)
    with every member; otherwise a new group starts.  The oracle is asked
    once per key: both instructions' shapes and where their wires meet
    (_overlap).  Equal keys are the same pair up to a wire relabelling, which
    conjugates both operators by one permutation and so keeps whether they
    commute; later pairs of the key, on any wires, reuse its verdict, as do
    pairs of the mirrored key, since commuting is symmetric.
    """
    shape_ids: dict[tuple, int] = {}
    ids = {nid: shape_ids.setdefault(n.instruction.shape, len(shape_ids))
           for nid, n in g.nodes.items()}
    verdicts: dict[tuple, bool] = {}

    def commute(m: int, nid: int) -> bool:
        a, b = g.nodes[m].instruction, g.nodes[nid].instruction
        key = (ids[m], ids[nid], _overlap(a.qubits, b.qubits))
        if key not in verdicts:
            mirror = (ids[nid], ids[m], _overlap(b.qubits, a.qubits))
            verdicts[key] = (verdicts[mirror] if mirror in verdicts
                             else commutes(a, b))
        return verdicts[key]

    groups: dict[int, list[list[int]]] = {}
    for q, path in g.qubit_paths().items():
        qgroups: list[list[int]] = []
        for nid in path:
            if qgroups and all(commute(m, nid) for m in qgroups[-1]):
                qgroups[-1].append(nid)
            else:
                qgroups.append([nid])
        groups[q] = qgroups
    return groups


def singleton_groups(g: GDG) -> dict[int, list[list[int]]]:
    """Every node in its own group: plain dependence-DAG scheduling."""
    return {q: [[nid] for nid in path] for q, path in g.qubit_paths().items()}


def _interacting_pairs(g: GDG) -> list[tuple[int, int]]:
    pairs = set()
    for node in g.real_nodes():
        qs = node.qubits
        if len(qs) == 2:
            pairs.add(tuple(sorted(qs)))
    return sorted(pairs)


def _pair_runs(g: GDG, pair: tuple[int, int]) -> list[list[int]]:
    """Maximal contract-legal runs of nodes supported on pair, in seq order
    (a topological order): a node joins the current run when can_contract
    accepts the run plus the node, and otherwise starts a new run."""
    support = set(pair)
    order = sorted({nid for q in pair for nid in g.qubit_path(q)
                    if set(g.nodes[nid].qubits) <= support},
                   key=lambda i: g.nodes[i].seq)
    runs: list[list[int]] = [[]]
    for nid in order:
        if not g.can_contract({*runs[-1], nid})[0]:
            runs.append([])
        runs[-1].append(nid)
    return [run for run in runs if len(run) >= 2]


def detect_diagonal_blocks(g: GDG) -> GDG:
    """Contract maximal runs of 2-qubit-supported gates with diagonal product.

    One pass per interacting qubit pair: from each node of a run, the longest
    window of 2 or more nodes and at most DIAG_WINDOW_CAP gates whose product
    is diagonal becomes a single node, and the scan resumes after it.  A
    slice of a legal run is legal, and contract joins its gates in seq order.

    A node's factor is its instruction's shape with its wires as positions in
    the pair, and its gates embedded on the pair are computed once per
    factor.  Each run's windows to merge are computed once per factor
    sequence of the run.  Mutates and returns g.
    """
    shape_ids: dict[tuple, int] = {}
    embedded: dict[tuple, list[np.ndarray]] = {}  # factor -> gates on the pair
    plans: dict[tuple, list[tuple[int, int]]] = {}  # run -> windows to merge

    def plan(run: tuple) -> list[tuple[int, int]]:
        windows, i = [], 0
        while i < len(run):
            u, count, end = np.eye(4, dtype=complex), 0, None
            for j in range(i, len(run)):
                count += len(embedded[run[j]])
                if count > DIAG_WINDOW_CAP:
                    break
                for m in embedded[run[j]]:
                    u = m @ u
                if j > i and is_diagonal(u):
                    end = j + 1
            if end:
                windows.append((i, end))
            i = end or i + 1
        return windows

    for pair in _interacting_pairs(g):
        ctx = list(pair)
        for run in _pair_runs(g, pair):
            factors = []
            for nid in run:
                ins = g.nodes[nid].instruction
                factor = (shape_ids.setdefault(ins.shape, len(shape_ids)),
                          tuple(ctx.index(q) for q in ins.qubits))
                if factor not in embedded:
                    embedded[factor] = [embed(gt, ctx) for gt in ins.gates]
                factors.append(factor)
            factors = tuple(factors)
            if factors not in plans:
                plans[factors] = plan(factors)
            for i, end in plans[factors]:
                g.contract(run[i:end])
    return g
