import heapq
from collections import deque

import networkx as nx
import numpy as np
import pytest

from pulsecc.bench import qaoa_circuit
from pulsecc.gates import Circuit, Gate, GateName
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
    """Reference topological order: Kahn's loop over the whole graph, ties
    broken by instruction seq then id; raises GDGError on a cycle."""
    indeg = {i: 0 for i in g.nodes}
    for n in g.nodes.values():
        for c in set(n.children.values()):
            indeg[c] += 1
    ready = [(g.nodes[i].instruction.seq, i)
             for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, nid = heapq.heappop(ready)
        order.append(nid)
        for c in g.successors(nid):
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, (g.nodes[c].instruction.seq, c))
    if len(order) != len(g.nodes):
        raise GDGError("cycle detected in GDG")
    return order


def audit(g):
    """Raise GDGError on any parent/child map inconsistency, chain start not
    recorded in g.first, or cycle."""
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


def contract(g, members):
    """Contract members, handing GDG.contract the graph's topological order
    restricted to them."""
    members = set(members)
    return g.contract([nid for nid in g.topological_order() if nid in members])


def full_scan_run(g, groups):
    """Reference scheduler loop: every step rescans every unscheduled node for
    candidates and runs the matching whenever there is one.  cls_schedule and
    list_schedule must return exactly its schedules."""
    unscheduled = {n.id for n in g.real_nodes()}
    queues = {q: deque(lst) for q, lst in groups.groups.items()}
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
