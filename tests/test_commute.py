import numpy as np
import pytest

from pulsecc.bench import qaoa_triangle
from pulsecc.commute import (build_commutation_groups, commutes,
                             detect_diagonal_blocks, is_diagonal,
                             singleton_groups)
from pulsecc.gates import (Circuit, Gate, GateName, circuit_unitary, embed,
                           gates_unitary, phases_equal)
from pulsecc.gdg import build_gdg

from conftest import (audit, chain_walk_can_contract, contract, random_circuit,
                      random_gate)


def brute_commutes(a: Gate, b: Gate) -> bool:
    ctx = sorted(set(a.qubits) | set(b.qubits))
    ua, ub = embed(a, ctx), embed(b, ctx)
    return np.max(np.abs(ua @ ub - ub @ ua)) <= 1e-8


def test_disjoint_supports_commute_without_matrices():
    assert commutes(Gate(GateName.H, (0,)), Gate(GateName.CNOT, (5, 9))) is True


def test_named_relations():
    # Rz(a) q0 with CNOT q0 q1: control-side diagonal commutes
    assert commutes(Gate(GateName.RZ, (0,), (1.3,)),
                    Gate(GateName.CNOT, (0, 1)))
    # Rx(a) q1 with CNOT q0 q1: target-side X-axis commutes
    assert commutes(Gate(GateName.RX, (1,), (0.7,)),
                    Gate(GateName.CNOT, (0, 1)))
    # CNOTs sharing a control commute
    assert commutes(Gate(GateName.CNOT, (0, 1)),
                    Gate(GateName.CNOT, (0, 2)))
    # CNOTs sharing a target commute
    assert commutes(Gate(GateName.CNOT, (0, 2)),
                    Gate(GateName.CNOT, (1, 2)))
    # and the classic non-commuting cases
    assert not commutes(Gate(GateName.RX, (0,), (0.7,)),
                        Gate(GateName.CNOT, (0, 1)))
    assert not commutes(Gate(GateName.H, (0,)),
                        Gate(GateName.RZ, (0,), (1.0,)))


def test_matrix_oracle_agrees_with_brute_force(rng):
    for _ in range(200):
        a, b = random_gate(3, rng), random_gate(3, rng)
        assert commutes(a, b) == brute_commutes(a, b)


def test_groups_partition_each_chain():
    g = build_gdg(qaoa_triangle())
    t = build_commutation_groups(g)
    for q, path in g.qubit_paths().items():
        flat = [nid for grp in t.groups[q] for nid in grp]
        assert flat == path  # order-preserving partition


def test_groups_members_mutually_commute():
    g = build_gdg(qaoa_triangle())
    t = build_commutation_groups(g)
    for q, grps in t.groups.items():
        for grp in grps:
            for i, a in enumerate(grp):
                for b in grp[i + 1:]:
                    assert commutes(g.nodes[a].instruction,
                                    g.nodes[b].instruction)


def test_singleton_groups_are_all_size_one():
    g = build_gdg(qaoa_triangle())
    t = singleton_groups(g)
    assert all(len(grp) == 1 for grps in t.groups.values() for grps2 in [grps]
               for grp in grps2)


def test_diagonal_block_detection_on_worked_example():
    g = build_gdg(qaoa_triangle())
    before = circuit_unitary(g.flatten())
    detect_diagonal_blocks(g)
    audit(g)
    # three CNOT-Rz-CNOT blocks collapse: 16 gates -> 10 nodes
    assert len(g.real_nodes()) == 10
    blocks = [n for n in g.real_nodes() if len(n.instruction.gates) == 3]
    assert len(blocks) == 3
    for n in blocks:
        assert is_diagonal(n.instruction.target_unitary)
    assert phases_equal(before, circuit_unitary(g.flatten()))


def test_diagonal_blocks_co_grouped():
    g = build_gdg(qaoa_triangle())
    detect_diagonal_blocks(g)
    t = build_commutation_groups(g)
    # the two ZZ blocks sharing qubit 1 land in one commutation group
    blocks = sorted(n.id for n in g.real_nodes()
                    if len(n.instruction.gates) == 3 and 1 in n.qubits)[:2]
    assert any(set(blocks) <= set(grp) for grp in t.groups[1])


def test_detection_preserves_semantics_random(rng):
    from conftest import random_circuit
    for _ in range(10):
        c = random_circuit(3, 12, rng)
        g = build_gdg(c)
        before = circuit_unitary(g.flatten())
        detect_diagonal_blocks(g)
        audit(g)
        assert phases_equal(before, circuit_unitary(g.flatten()))


def test_window_cap_limits_block_size(rng):
    from pulsecc.gates import Circuit
    c = Circuit(2)
    for _ in range(30):
        c.add(GateName.CPHASE, 0, 1, params=(0.3,))
    g = build_gdg(c)
    detect_diagonal_blocks(g)
    assert all(len(n.instruction.gates) <= 10 for n in g.real_nodes())


def restart_loop_detect(g, window_cap=10, tol=1e-8):
    """Reference diagonal-block detection: rebuild the pair's runs and rescan
    them from the start after every contraction, re-multiplying and
    re-checking legality of every window."""
    pairs = sorted({tuple(sorted(n.qubits)) for n in g.real_nodes()
                    if len(n.qubits) == 2})
    for pair in pairs:
        changed = True
        while changed:
            changed = False
            runs, current = [], []
            for nid in g.topological_order():
                if not set(g.nodes[nid].qubits) <= set(pair):
                    continue
                if current and chain_walk_can_contract(g, current + [nid])[0]:
                    current.append(nid)
                else:
                    runs.append(current)
                    current = [nid]
            runs.append(current)
            for run in runs:
                for i in range(len(run)):
                    for j in range(min(len(run), i + window_cap), i + 1, -1):
                        members = run[i:j]
                        gates = [gt for nid in members
                                 for gt in g.nodes[nid].instruction.gates]
                        if (len(gates) <= window_cap
                                and is_diagonal(gates_unitary(gates, list(pair)), tol)
                                and chain_walk_can_contract(g, members)[0]):
                            contract(g, members)
                            changed = True
                            break
                    if changed:
                        break
                if changed:
                    break
    return g


def diagonal_rich_circuit(n, num_gates, rng):
    c = Circuit(n)
    for _ in range(num_gates):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        kind = rng.integers(6)
        if kind == 0:
            c.add(GateName.CPHASE, a, b, params=(float(rng.uniform(0, 6)),))
        elif kind == 1:
            c.add(GateName.RZ, a, params=(float(rng.uniform(0, 6)),))
        elif kind == 2:
            c.add(GateName.CNOT, a, b)
        elif kind == 3:
            c.add(GateName.Z, a)
        else:
            c.add(GateName.H if kind == 4 else GateName.X, a)
    return c


def graph_signature(g):
    return [(nid, n.instruction.seq, [repr(x) for x in n.instruction.gates],
             list(n.parents.items()), list(n.children.items()))
            for nid, n in sorted(g.nodes.items())]


def test_detection_matches_restart_loop_reference(rng):
    # rz q0 and rz q1 may not share a run: cnot q0 q2; cnot q2 q1 is a path
    # from one to the other outside the pair
    detour = Circuit(3)
    detour.add(GateName.RZ, 0, params=(0.4,))
    detour.add(GateName.CNOT, 0, 2)
    detour.add(GateName.CNOT, 2, 1)
    detour.add(GateName.RZ, 1, params=(0.7,))
    detour.add(GateName.CPHASE, 0, 1, params=(0.9,))
    circuits = [qaoa_triangle(), detour]
    for _ in range(40):
        circuits.append(random_circuit(int(rng.integers(2, 6)),
                                       int(rng.integers(5, 30)), rng))
        circuits.append(diagonal_rich_circuit(int(rng.integers(2, 6)),
                                              int(rng.integers(5, 40)), rng))
    merged = 0
    for c in circuits:
        got = detect_diagonal_blocks(build_gdg(c))
        want = restart_loop_detect(build_gdg(c))
        assert graph_signature(got) == graph_signature(want)
        merged += len(c.gates) - len(got.real_nodes())
    assert merged > 100


def greedy_groups_reference(g):
    """Reference grouping: per qubit, a node joins the current group iff the
    oracle says it commutes with every member, asked afresh for every pair."""
    groups = {}
    for q, path in g.qubit_paths().items():
        qgroups = []
        for nid in path:
            ins = g.nodes[nid].instruction
            if qgroups and all(commutes(g.nodes[m].instruction, ins)
                               for m in qgroups[-1]):
                qgroups[-1].append(nid)
            else:
                qgroups.append([nid])
        groups[q] = qgroups
    return groups


def shape_rich_circuit(n, num_gates, rng):
    """Few gate shapes on many wires: the same gate on different wires and
    with different params (at 2 pi, rx and rz are -I and cphase is I),
    CNOT(a, b) beside CNOT(b, a), and CUSTOM gates, one of them a CNOT
    matrix and one a diagonal given as a real array."""
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    phases = np.diag(np.exp(1j * np.array([0.0, 0.3, 0.3, 1.2])))
    haar = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    c = Circuit(n)
    for _ in range(num_gates):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        kind = int(rng.integers(10))
        if kind == 0:
            c.add(GateName.CNOT, a, b)
            c.add(GateName.CNOT, b, a)
        elif kind == 1:
            c.add(GateName.CNOT, a, b)
        elif kind == 2:
            c.add(GateName.RZ, a, params=(float(rng.choice([0.5, 2.0, 2 * np.pi])),))
        elif kind == 3:
            c.add(GateName.RX, a, params=(float(rng.choice([0.5, 2 * np.pi])),))
        elif kind == 4:
            c.add(GateName.CPHASE, a, b, params=(float(rng.choice([0.5, 1.5, 2 * np.pi])),))
        elif kind == 5:
            c.add(GateName.H, a)
        elif kind == 6:
            c.add(GateName.CUSTOM, a, b, matrix=cnot)
        elif kind == 7:
            c.add(GateName.CUSTOM, a, b, matrix=phases)
        elif kind == 8:
            c.add(GateName.CUSTOM, a, b, matrix=haar)
        else:
            c.add(GateName.CUSTOM, a, matrix=np.diag([1.0, -1.0]))
    return c


def test_groups_match_pairwise_oracle_reference(rng):
    # the same pattern on two wire pairs; only the rx angle tells them apart
    twins = Circuit(4)
    for a, b, angle in ((0, 1, 0.5), (2, 3, 2 * np.pi)):
        twins.add(GateName.H, a)
        twins.add(GateName.RX, a, params=(angle,))
        twins.add(GateName.CNOT, a, b)
    # one pattern again on relabelled wires, which shares its verdicts
    n = 5
    pattern = shape_rich_circuit(n, 30, rng)
    perm = {q: n + int(p) for q, p in enumerate(rng.permutation(n))}
    relabelled = Circuit(2 * n, pattern.gates
                         + [gt.remap(perm) for gt in pattern.gates])
    circuits = [qaoa_triangle(), twins, relabelled]
    for _ in range(30):
        circuits.append(shape_rich_circuit(int(rng.integers(2, 7)),
                                           int(rng.integers(8, 40)), rng))
    shared = 0
    for i, c in enumerate(circuits):
        g = build_gdg(c)
        if i % 2:
            detect_diagonal_blocks(g)  # multi-gate instructions too
        got = build_commutation_groups(g).groups
        assert got == greedy_groups_reference(g)
        shared += sum(len(grp) - 1 for grps in got.values() for grp in grps)
    assert shared > 100


def test_relabelled_pairs_share_one_oracle_verdict(monkeypatch):
    from pulsecc import commute
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return commutes(a, b)

    monkeypatch.setattr(commute, "commutes", counted)
    # CNOT-RZ on the target, once on (0, 1) and once on (3, 2)
    c = Circuit(4)
    c.add(GateName.CNOT, 0, 1)
    c.add(GateName.RZ, 1, params=(0.5,))
    c.add(GateName.CNOT, 3, 2)
    c.add(GateName.RZ, 2, params=(0.5,))
    g = build_gdg(c)
    got = build_commutation_groups(g).groups
    assert len(calls) == 1
    assert got == greedy_groups_reference(g)
    assert len(got[1]) == len(got[2]) == 2  # neither RZ commutes with its CNOT
