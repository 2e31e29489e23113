import heapq
from collections import deque

import networkx as nx
import numpy as np
import pytest

from pulsecc.bench import qaoa_circuit
from pulsecc.commute import (DIAG_WINDOW_CAP, TOL_COMMUTE, _interacting_pairs,
                             _pair_runs, is_diagonal)
from pulsecc.gates import Circuit, Gate, GateName, embed, gates_unitary
from pulsecc.gdg import GDGError
from pulsecc.scheduler import Schedule, ScheduleError, max_matching


ONE_QUBIT = [
    lambda q, rng: Gate(GateName.H, (q,)),
    lambda q, rng: Gate(GateName.X, (q,)),
    lambda q, rng: Gate(GateName.Y, (q,)),
    lambda q, rng: Gate(GateName.Z, (q,)),
    lambda q, rng: Gate(GateName.RX, (q,), (float(rng.uniform(0, 2 * np.pi)),)),
    lambda q, rng: Gate(GateName.RY, (q,), (float(rng.uniform(0, 2 * np.pi)),)),
    lambda q, rng: Gate(GateName.RZ, (q,), (float(rng.uniform(0, 2 * np.pi)),)),
]

TWO_QUBIT = [
    lambda a, b, rng: Gate(GateName.CNOT, (a, b)),
    lambda a, b, rng: Gate(GateName.SWAP, (a, b)),
    lambda a, b, rng: Gate(GateName.CPHASE, (a, b), (float(rng.uniform(0, 2 * np.pi)),)),
    lambda a, b, rng: Gate(GateName.ISWAP, (a, b)),
    lambda a, b, rng: Gate(GateName.XX, (a, b), (float(rng.uniform(0, 2 * np.pi)),)),
]


def random_gate(n: int, rng) -> Gate:
    if n >= 2 and rng.random() < 0.5:
        a, b = rng.choice(n, size=2, replace=False)
        return TWO_QUBIT[rng.integers(len(TWO_QUBIT))](int(a), int(b), rng)
    q = int(rng.integers(n))
    return ONE_QUBIT[rng.integers(len(ONE_QUBIT))](q, rng)


def random_circuit(n: int, num_gates: int, rng, name: str = "") -> Circuit:
    c = Circuit(n, name=name)
    for _ in range(num_gates):
        c.append(random_gate(n, rng))
    return c


def custom_pool(rng, size: int = 3) -> dict[int, list[np.ndarray]]:
    """Per width 1 and 2, size random unitaries and size random diagonal
    ones, drawn once so that circuits repeat them on different wires."""
    pool = {}
    for k in (1, 2):
        d = 2 ** k
        haar = [np.linalg.qr(rng.normal(size=(d, d))
                             + 1j * rng.normal(size=(d, d)))[0]
                for _ in range(size)]
        diag = [np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
                for _ in range(size)]
        pool[k] = haar + diag
    return pool


def custom_rich_circuit(n: int, num_gates: int, rng) -> Circuit:
    """random_gate's draws with CUSTOM gates from a custom_pool mixed in,
    about one gate in three."""
    pool = custom_pool(rng)
    c = Circuit(n)
    for _ in range(num_gates):
        if rng.random() >= 1 / 3:
            c.append(random_gate(n, rng))
            continue
        k = 2 if n >= 2 and rng.random() < 0.5 else 1
        wires = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        matrix = pool[k][rng.integers(len(pool[k]))]
        c.append(Gate(GateName.CUSTOM, wires, custom_matrix=matrix))
    return c


def qaoa3reg(n: int, seed: int) -> Circuit:
    """Two-layer QAOA on a seeded 3-regular graph, the benchmark's
    front-end input."""
    edges = nx.random_regular_graph(3, n, seed=seed).edges()
    return qaoa_circuit(n, sorted(map(sorted, edges)), layers=2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240825)


def chain_walk_can_contract(g, node_ids) -> tuple[bool, str]:
    """Reference contraction rule: walk every touched qubit's whole chain and
    require the members' positions on it to form one block, then search
    everything downstream of the members for a way back into them."""
    members = set(node_ids)
    for q in {q for nid in members for q in g.nodes[nid].qubits}:
        idx = [i for i, nid in enumerate(g.qubit_path(q)) if nid in members]
        if idx[-1] - idx[0] + 1 != len(idx):
            return False, f"members not contiguous on q{q} chain"
    stack = [c for nid in members for c in g.successors(nid) if c not in members]
    seen = set(stack)
    while stack:
        cur = stack.pop()
        if cur in members:
            return False, "contraction would create a cycle"
        for c in g.successors(cur) - seen:
            seen.add(c)
            stack.append(c)
    return True, ""


def kahn_order(g) -> list[int]:
    """Reference topological order: Kahn's loop over the whole graph, taking
    the ready node of smallest seq first; raises GDGError on a cycle."""
    indeg = {i: 0 for i in g.nodes}
    for n in g.nodes.values():
        for c in set(n.children.values()):
            indeg[c] += 1
    ready = [(g.nodes[i].seq, i)
             for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, nid = heapq.heappop(ready)
        order.append(nid)
        for c in g.successors(nid):
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, (g.nodes[c].seq, c))
    if len(order) != len(g.nodes):
        raise GDGError("cycle detected in GDG")
    return order


def audit(g):
    """Raise GDGError on any parent/child map inconsistency, chain start not
    recorded in g.first, cycle, node ids out of order, repeated seq, or a
    parent whose seq is not below its child's."""
    for nid, node in g.nodes.items():
        for q, cid in node.children.items():
            child = g.nodes.get(cid)
            if child is None or child.parents.get(q) != nid:
                raise GDGError(f"child link {nid}-[q{q}]->{cid} not mirrored")
        for q, pid in node.parents.items():
            parent = g.nodes.get(pid)
            if parent is None or parent.children.get(q) != nid:
                raise GDGError(f"parent link {nid}<-[q{q}]-{pid} not mirrored")
        for q in node.qubits:
            if q not in node.parents and g.first.get(q) != nid:
                raise GDGError(f"node {nid} has no parent on q{q} but is not "
                               f"first[{q}]")
    # also rejects a first entry for a qubit that has no chain
    for q, nid in g.first.items():
        node = g.nodes.get(nid)
        if node is None or q not in node.qubits or q in node.parents:
            raise GDGError(f"first[{q}] = {nid} is not a chain start on q{q}")
    kahn_order(g)  # raises on cycles, which the seq-order sort cannot see
    ids = list(g.nodes)
    if ids != sorted(ids):
        raise GDGError(f"nodes not in id order: {ids}")
    seqs = [n.seq for n in g.nodes.values()]
    if len(set(seqs)) != len(seqs):
        raise GDGError(f"repeated seq: {sorted(seqs)}")
    for nid, node in g.nodes.items():
        for pid in node.parents.values():
            if g.nodes[pid].seq >= node.seq:
                raise GDGError(f"parent {pid} has seq {g.nodes[pid].seq} "
                               f">= {node.seq} of its child {nid}")


def seqs(g) -> dict[int, int]:
    """Every node's seq, by id."""
    return {nid: n.seq for nid, n in g.nodes.items()}


def moved_seq(g, before: dict[int, int]) -> bool:
    """Whether a node that was in the graph at before = seqs(g) holds another
    seq now."""
    return any(g.nodes[nid].seq != s for nid, s in before.items()
               if nid in g.nodes)


def sweep_pair_runs(g, pair):
    """Reference pair runs: one sweep of the whole topological order, marking
    the current run and everything downstream of it as it goes.  _pair_runs
    must return exactly its runs."""
    support = set(pair)
    runs = [[]]
    last_on = {}
    reached = set()
    for nid in g.topological_order():
        node = g.nodes[nid]
        if not set(node.qubits) <= support:
            if reached.intersection(node.parents.values()):
                reached.add(nid)
            continue
        if not all(last_on.get(q) == p if q in last_on else p not in reached
                   for q, p in node.parents.items()):
            runs.append([])
            last_on, reached = {}, set()
        runs[-1].append(nid)
        last_on.update(dict.fromkeys(node.qubits, nid))
        reached.add(nid)
    return [run for run in runs if len(run) >= 2]


def gate_shapes(gates, pos: dict[int, int]) -> tuple:
    """Per gate, everything embed reads of it, operands as positions in pos."""
    return tuple((gt.name, gt.params, tuple(pos[q] for q in gt.qubits),
                  None if gt.custom_matrix is None
                  else np.asarray(gt.custom_matrix, dtype=complex).tobytes())
                 for gt in gates)


def gate_commutes(a, b) -> bool:
    """Reference oracle on instructions: every member gate embedded on the
    union context."""
    ctx = sorted(set(a.qubits) | set(b.qubits))
    ua, ub = gates_unitary(a.gates, ctx), gates_unitary(b.gates, ctx)
    return bool(np.max(np.abs(ua @ ub - ub @ ua)) <= TOL_COMMUTE)


def pair_shape_groups(g):
    """Reference grouping: the greedy per-qubit grouping with each verdict
    keyed by both instructions' gate_shapes, wires numbered in the order the
    pair first uses them.  build_commutation_groups must return exactly its
    groups."""
    verdicts = {}

    def commute(a, b):
        pos = {q: i for i, q in enumerate(dict.fromkeys(a.qubits + b.qubits))}
        key = (gate_shapes(a.gates, pos), gate_shapes(b.gates, pos))
        if key not in verdicts:
            verdicts[key] = gate_commutes(a, b)
        return verdicts[key]

    groups = {}
    for q, path in g.qubit_paths().items():
        qgroups = []
        for nid in path:
            ins = g.nodes[nid].instruction
            if qgroups and all(commute(g.nodes[m].instruction, ins)
                               for m in qgroups[-1]):
                qgroups[-1].append(nid)
            else:
                qgroups.append([nid])
        groups[q] = qgroups
    return groups


def window_scan_detect(g):
    """Reference diagonal-block detection: per pair and run, every window's
    product multiplied afresh from its first gate, each gate shape embedded
    once.  detect_diagonal_blocks must make exactly its contractions."""
    embedded = {}
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
                    for gt, key in zip(gates, gate_shapes(gates, pos)):
                        if key not in embedded:
                            embedded[key] = embed(gt, ctx)
                        u = embedded[key] @ u
                    if j > i and is_diagonal(u):
                        end = j + 1
                if end:
                    g.contract(run[i:end])
                i = end or i + 1
    return g


def random_merges(g, rng, count: int):
    """Up to count contractions of a random node with a random child, each
    legal one applied; some move other nodes' seqs."""
    for _ in range(count):
        ids = list(g.nodes)
        node = g.nodes[ids[rng.integers(len(ids))]]
        children = list(node.children.values())
        if not children:
            continue
        members = {node.id, children[rng.integers(len(children))]}
        if g.can_contract(members)[0]:
            g.contract(members)
    return g


def full_scan_run(g, groups):
    """Reference scheduler loop: every step rescans every unscheduled node for
    candidates and runs the matching whenever there is one.  cls_schedule and
    list_schedule must return exactly its schedules."""
    unscheduled = {n.id for n in g.real_nodes()}
    queues = {q: deque(lst) for q, lst in groups.items()}
    current: dict[int, set[int]] = {q: set() for q in queues}
    busy_until: dict[int, float] = {q: 0.0 for q in range(g.num_qubits)}
    entries: list[tuple[int, float]] = []
    now = 0.0

    def refill():
        for q, dq in queues.items():
            while not current[q] and dq:
                current[q] = set(dq.popleft())

    while unscheduled:
        refill()
        candidates = []
        for nid in sorted(unscheduled):
            node = g.nodes[nid]
            if all(busy_until[q] <= now + 1e-12 and nid in current[q]
                   for q in node.qubits):
                candidates.append(nid)
        instant = False  # a zero-duration placement may free successors now
        if candidates:
            edges, self_loops = [], []
            for nid in candidates:
                qs = g.nodes[nid].qubits
                if len(qs) == 1:
                    self_loops.append((qs[0], nid))
                else:
                    edges.append((qs[0], qs[1], nid))
            claimed: set[int] = set()
            for nid in sorted(max_matching(edges, self_loops)):
                node = g.nodes[nid]
                if node.duration is None:
                    raise ScheduleError(f"node {nid} has no duration")
                # wide nodes enter the matching as one edge; guard the rest
                if any(q in claimed for q in node.qubits):
                    continue
                claimed.update(node.qubits)
                entries.append((nid, now))
                unscheduled.discard(nid)
                instant = instant or node.duration <= 1e-12
                for q in node.qubits:
                    busy_until[q] = now + node.duration
                    current[q].discard(nid)
        if unscheduled and not instant:
            future = [t for t in busy_until.values() if t > now + 1e-12]
            if not future:
                frontier = sorted(unscheduled)[:10]
                raise ScheduleError(
                    f"scheduling deadlock; stuck frontier (first 10): {frontier}")
            now = min(future)
    makespan = max(busy_until.values(), default=0.0)
    return Schedule(entries, makespan)


def einsum_steps(u_amp: np.ndarray, m):
    """Reference step propagators U_j = Q_j diag(e^{-i lam_j dt}) Q_j^dag by
    einsum over the channel operators; returns (steps, lam, q, phase, ops)."""
    ops = np.stack([2 * np.pi * ch.op for ch in m.channels])
    h = np.einsum("kn,kab->nab", u_amp, ops)
    lam, q = np.linalg.eigh(h)
    phase = np.exp(-1j * lam * m.dt)
    steps = np.einsum("nab,nb,ncb->nac", q, phase, q.conj())
    return steps, lam, q, phase, ops


def einsum_gradient(u_amp: np.ndarray, m, v_target: np.ndarray) -> np.ndarray:
    """Reference GRAPE gradient: the multi-operand einsum contraction through
    the K x N x d x d tensor of channel operators in every step's eigenbasis,
    with backward products built step by step. Its divided differences are
    zero on degenerate pairs, so compare it only at amplitudes whose step
    Hamiltonians have distinct eigenvalues."""
    n, d = u_amp.shape[1], m.dim
    steps, lam, q, phase, ops = einsum_steps(u_amp, m)
    fwd = np.empty((n + 1, d, d), dtype=complex)
    fwd[0] = np.eye(d)
    for j in range(n):
        fwd[j + 1] = steps[j] @ fwd[j]
    bwd = np.empty((n + 1, d, d), dtype=complex)
    bwd[n] = np.eye(d)
    for j in range(n - 1, -1, -1):
        bwd[j] = bwd[j + 1] @ steps[j]
    tau = np.trace(v_target.conj().T @ fwd[n])

    dlam = lam[:, :, None] - lam[:, None, :]
    df = phase[:, :, None] - phase[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(np.abs(dlam) > 1e-12, df / np.where(dlam == 0, 1, dlam), 0)
    ii = np.arange(d)
    phi[:, ii, ii] = -1j * m.dt * phase

    vh = v_target.conj().T
    w = np.einsum("nab,bc,ncd->nad", fwd[:n], vh, bwd[1:])
    x = np.einsum("nba,nbc,ncd->nad", q.conj(), w, q)
    y = np.einsum("nba,kbc,ncd->knad", q.conj(), ops, q)
    dtau = np.einsum("nab,nba,knba->kn", x, phi, y)
    return (-2.0 / d ** 2) * np.real(np.conj(tau) * dtau)


def full_cost_refine(gr, mapping, topo) -> None:
    """Reference placement hill climb: price every candidate move by re-summing
    the weighted distance over every interaction edge.  _refine_placement must
    make exactly its moves."""
    def cost() -> int:
        return sum(w * topo.distance(mapping[a], mapping[b])
                   for (a, b), w in gr.weights.items())

    qubits = sorted(mapping)
    improved = True
    while improved:
        improved = False
        free = sorted(set(range(topo.num_sites)) - set(mapping.values()))
        base = cost()
        best, best_move = base, None
        for i, a in enumerate(qubits):
            for b in qubits[i + 1:]:
                mapping[a], mapping[b] = mapping[b], mapping[a]
                c = cost()
                mapping[a], mapping[b] = mapping[b], mapping[a]
                if c < best:
                    best, best_move = c, ("swap", a, b)
            for s in free:
                old = mapping[a]
                mapping[a] = s
                c = cost()
                mapping[a] = old
                if c < best:
                    best, best_move = c, ("move", a, s)
        if best_move:
            kind, a, x = best_move
            if kind == "swap":
                mapping[a], mapping[x] = mapping[x], mapping[a]
            else:
                mapping[a] = x
            improved = True
