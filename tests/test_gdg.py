import functools
import json

import numpy as np
import pytest

from pulsecc.aggregator import aggregate_loop
from pulsecc.bench import qaoa_triangle
from pulsecc.commute import detect_diagonal_blocks
from pulsecc.gates import (Circuit, Gate, GateName, circuit_unitary,
                           gates_unitary, phases_equal)
from pulsecc.gdg import GDG, AggregatedInstruction, GDGError, build_gdg
from pulsecc.latency import table_price
from pulsecc.mapper import Topology
from pulsecc.pipeline import CompileOptions, compile_circuit
from pulsecc.scheduler import list_schedule

from conftest import (audit, chain_walk_can_contract, kahn_order,
                      moved_seq, qaoa3reg, random_circuit, seqs)
from test_aggregator import routed_gdg


def table_durations(g):
    g.set_durations(table_price())


def test_build_structure():
    c = qaoa_triangle()
    g = build_gdg(c)
    assert len(g.real_nodes()) == 16
    # every chain starts at its first gate's node (ids count gates from 1),
    # which has no parent there
    firsts = {q: 1 + next(i for i, gt in enumerate(c.gates) if q in gt.qubits)
              for q in range(3)}
    assert g.first == firsts
    for q in range(3):
        assert g.qubit_path(q)[0] == firsts[q]
        assert q not in g.nodes[firsts[q]].parents
    audit(g)


def test_instruction_equality_ignores_its_cached_unitary():
    gates = [Gate(GateName.H, (0,)), Gate(GateName.CNOT, (0, 1))]
    a, b = AggregatedInstruction(list(gates)), AggregatedInstruction(list(gates))
    a.target_unitary
    assert a == b
    b.target_unitary
    assert a == b
    assert a != AggregatedInstruction(gates[:1])


def test_shape_numbers_operands_by_first_use():
    phase = np.diag([1, 1j])
    ins = AggregatedInstruction([Gate(GateName.CNOT, (3, 1)),
                                 Gate(GateName.RZ, (1,), (0.5,)),
                                 Gate(GateName.CUSTOM, (3,), custom_matrix=phase)])
    assert ins.shape == (("cnot", (), (0, 1), None), ("rz", (0.5,), (1,), None),
                         ("custom", (), (0,), phase.astype(complex).tobytes()))


def test_remap_keeps_shape():
    gates = [Gate(GateName.CNOT, (3, 1)), Gate(GateName.RZ, (1,), (0.5,)),
             Gate(GateName.CUSTOM, (3,), custom_matrix=np.diag([1, -1]))]
    ins = AggregatedInstruction(gates)
    u = ins.target_unitary
    moved = ins.remap({1: 0, 3: 7})
    assert moved.qubits == (7, 0)
    assert moved.shape == ins.shape == AggregatedInstruction(moved.gates).shape
    # the shape and the unitary are carried over, not recomputed
    assert moved.shape is ins.shape
    assert moved.target_unitary is u
    assert u.tobytes() == gates_unitary(moved.gates, moved.qubits).tobytes()


def test_instruction_takes_only_its_gates():
    with pytest.raises(TypeError):
        AggregatedInstruction([Gate(GateName.H, (0,))], 0)


def test_chain_end_is_implicit_sink():
    g = build_gdg(qaoa_triangle())
    for q in range(3):
        last = g.qubit_path(q)[-1]
        assert q not in g.nodes[last].children


def test_topological_order_respects_chains(rng):
    for _ in range(20):
        c = random_circuit(4, 15, rng)
        g = build_gdg(c)
        order = g.topological_order()
        pos = {nid: i for i, nid in enumerate(order)}
        for q in range(4):
            path = g.qubit_path(q)
            assert [pos[n] for n in path] == sorted(pos[n] for n in path)


def test_flatten_preserves_semantics(rng):
    for _ in range(10):
        c = random_circuit(4, 12, rng)
        g = build_gdg(c)
        assert phases_equal(circuit_unitary(c), circuit_unitary(g.flatten()))


def test_contract_contiguity_enforced():
    g = build_gdg(qaoa_triangle())
    # nodes 4 and 6 are the two CNOTs of the first ZZ block; node 5 (rz)
    # sits between them on qubit 1's chain, so {4, 6} is not contiguous
    ok, why = g.can_contract({4, 6})
    assert not ok and "contiguous" in why
    ok, _ = g.can_contract({4, 5, 6})
    assert ok


def test_contract_cycle_rejected():
    # triangle of CNOTs: A(0,1), B(1,2), C(0,2); merging {A, C} is chain-
    # contiguous on every qubit but B lies on a path from A to C
    from pulsecc.gates import Circuit, GateName
    c = Circuit(3)
    c.add(GateName.CNOT, 0, 1)
    c.add(GateName.CNOT, 1, 2)
    c.add(GateName.CNOT, 0, 2)
    g = build_gdg(c)
    ok, why = g.can_contract({1, 3})
    assert not ok and "cycle" in why


def test_can_contract_unknown_node():
    g = build_gdg(qaoa_triangle())
    assert g.can_contract({1, 99}) == (False, "unknown node 99")


def test_contract_raises_can_contracts_reason():
    g = build_gdg(qaoa_triangle())
    with pytest.raises(GDGError, match="members not contiguous on q1 chain"):
        g.contract({4, 6})
    c = Circuit(3)
    for a, b in ((0, 1), (1, 2), (0, 2)):
        c.add(GateName.CNOT, a, b)
    g = build_gdg(c)
    with pytest.raises(GDGError, match="contraction would create a cycle"):
        g.contract({1, 3})
    assert sorted(g.nodes) == [1, 2, 3]


def test_contract_joins_members_in_seq_order():
    # node 5 (rz) is node 4's child and node 6's parent on qubit 1's chain:
    # however the members are given, their gates are joined in graph order
    for members in ([6, 4, 5], {4, 5, 6}, (5, 4, 6)):
        g = build_gdg(qaoa_triangle())
        merged = g.contract(members)
        assert [repr(gt) for gt in merged.instruction.gates] == \
            ["cnot q0 q1", "rz(5.67) q1", "cnot q0 q1"]
        audit(g)


def test_contract_preserves_semantics_and_structure(rng):
    for _ in range(10):
        c = random_circuit(3, 10, rng)
        g = build_gdg(c)
        before = circuit_unitary(g.flatten())
        # contract the first legal adjacent pair found
        done = False
        for node in g.real_nodes():
            for q, child in node.children.items():
                if g.can_contract({node.id, child})[0]:
                    g.contract({node.id, child})
                    done = True
                    break
            if done:
                break
        audit(g)
        assert phases_equal(before, circuit_unitary(g.flatten()))


def test_critical_path_worked_example():
    g = build_gdg(qaoa_triangle())
    table_durations(g)
    total, path = g.critical_path()
    # 13.7 + 3 * (2*47.1 + 9.8) + 50.1 + 6.1
    assert total == pytest.approx(381.9, abs=1e-9)
    assert len(path) >= 5


def test_critical_path_aggregated_arithmetic():
    # five-instruction shape of the aggregated worked example:
    # G1 -> G3 -> G4 chain carries the critical path
    g = GDG(3)
    last = {}
    durs = {"g1": 54.9, "g2": 13.7, "g3": 42.0, "g4": 31.4, "g5": 6.1}
    from pulsecc.gates import Gate, GateName
    nodes = {}
    nodes["g1"] = g.add_instruction(AggregatedInstruction(
        [Gate(GateName.H, (0,)), Gate(GateName.H, (1,))]), last)
    nodes["g2"] = g.add_instruction(AggregatedInstruction(
        [Gate(GateName.H, (2,))]), last)
    nodes["g3"] = g.add_instruction(AggregatedInstruction(
        [Gate(GateName.CNOT, (0, 1)), Gate(GateName.CNOT, (1, 2))]), last)
    nodes["g4"] = g.add_instruction(AggregatedInstruction(
        [Gate(GateName.CNOT, (1, 2)), Gate(GateName.RX, (1,), (1.26,))]), last)
    nodes["g5"] = g.add_instruction(AggregatedInstruction(
        [Gate(GateName.RX, (0,), (1.26,))]), last)
    for k, n in nodes.items():
        n.duration = durs[k]
    total, path = g.critical_path()
    assert total == pytest.approx(128.3, abs=1e-9)
    assert path == [nodes["g1"].id, nodes["g3"].id, nodes["g4"].id]


def test_longest_paths_match_list_schedule_and_a_reference(rng):
    # routed random circuits with some durations zeroed: a node's head is its
    # ASAP finish and its tail the longest path from it to a chain end, and
    # critical_path's witness is a path from a chain start of head's length,
    # past which only zero durations follow
    for trial in range(20):
        n = int(rng.integers(3, 7))
        g = routed_gdg(random_circuit(n, int(rng.integers(6, 25)), rng),
                       Topology(2, (n + 1) // 2), seed=trial)
        for node in g.real_nodes():
            if rng.random() < 0.25:
                node.duration = 0.0
        head, tail = g.longest_paths()
        finish = {nid: start + g.nodes[nid].duration
                  for nid, start in list_schedule(g).entries}
        assert head.keys() == tail.keys() == finish.keys() == g.nodes.keys()
        assert all(abs(head[i] - finish[i]) <= 1e-9 for i in g.nodes)

        @functools.cache
        def to_end(nid):
            return g.nodes[nid].duration + max(
                (to_end(c) for c in g.successors(nid)), default=0.0)

        assert all(abs(tail[i] - to_end(i)) <= 1e-9 for i in g.nodes)
        total, path = g.critical_path()
        assert total == max(head.values())
        assert not g.nodes[path[0]].parents
        assert tail[path[-1]] == g.nodes[path[-1]].duration
        assert all(b in g.successors(a) for a, b in zip(path, path[1:]))
        assert abs(sum(g.nodes[i].duration for i in path) - total) <= 1e-9

        # an unpriced node counts 0, and critical_path refuses it
        ids = list(g.nodes)
        unpriced = ids[rng.integers(len(ids))]
        zeroed = g.copy()
        zeroed.nodes[unpriced].duration = 0.0
        g.nodes[unpriced].duration = None
        assert g.longest_paths() == zeroed.longest_paths()
        with pytest.raises(GDGError, match="no duration"):
            g.critical_path()


def test_copy_independent(rng):
    c = random_circuit(3, 8, rng)
    g = build_gdg(c)
    table_durations(g)
    h = g.copy()
    first = g.real_nodes()[0]
    h.nodes[first.id].duration = 999.0
    assert g.nodes[first.id].duration != 999.0


def test_contract_at_chain_start_in_copy_leaves_original():
    # CNOT.Rz.CNOT opens both chains; its diagonal block merges into one node
    c = Circuit(2)
    for gate in (Gate(GateName.CNOT, (0, 1)), Gate(GateName.RZ, (1,), (0.7,)),
                 Gate(GateName.CNOT, (0, 1)), Gate(GateName.H, (0,)),
                 Gate(GateName.H, (1,))):
        c.append(gate)
    g = build_gdg(c)
    paths = {q: g.qubit_path(q) for q in range(2)}
    h = g.copy()
    detect_diagonal_blocks(h)
    merged = h.qubit_path(0)[0]
    assert h.nodes[merged].instruction.gates == c.gates[:3]
    for q in range(2):
        assert h.first[q] == merged
        assert h.qubit_path(q) == [merged, paths[q][-1]]
        assert g.first[q] == 1
        assert g.qubit_path(q) == paths[q]
    audit(g)
    audit(h)


def test_to_json_roundtrips_counts():
    g = build_gdg(qaoa_triangle())
    table_durations(g)
    doc = json.loads(g.to_json())
    assert doc["num_qubits"] == 3
    assert len(doc["nodes"]) == 16  # one per gate


def test_can_contract_matches_chain_walk(rng):
    # node sets grown from a random seed node through parent/child links, with
    # an occasional unrelated node; legal sets are sometimes contracted so
    # later sets contain merged nodes.  Some merges put a parent above the
    # merged node's seq, so contract moves other nodes' seqs and the sort in
    # topological_order meets Kahn's loop on repaired graphs too
    checked = {True: 0, False: 0}
    moved = {True: 0, False: 0}
    for _ in range(200):
        g = build_gdg(random_circuit(int(rng.integers(2, 6)),
                                     int(rng.integers(6, 30)), rng))
        for _ in range(12):
            ids = [n.id for n in g.real_nodes()]
            members = {ids[rng.integers(len(ids))]}
            for _ in range(int(rng.integers(1, 6))):
                node = g.nodes[sorted(members)[rng.integers(len(members))]]
                links = [*node.parents.values(), *node.children.values()]
                if links and rng.random() < 0.85:
                    members.add(links[rng.integers(len(links))])
                else:
                    members.add(ids[rng.integers(len(ids))])
                ok, why = g.can_contract(members)
                ref_ok, ref_why = chain_walk_can_contract(g, members)
                assert ok == ref_ok
                assert ("cycle" in why) == ("cycle" in ref_why)
                checked[ok] += 1
            if ok and rng.random() < 0.5:
                before, old = circuit_unitary(g.flatten()), seqs(g)
                g.contract(members)
                moved[moved_seq(g, old)] += 1
                audit(g)
                assert phases_equal(before, circuit_unitary(g.flatten()))
            assert g.topological_order() == g.copy().topological_order() \
                == kahn_order(g)
    assert min(checked.values()) > 100
    assert min(moved.values()) > 100, moved


def test_merge_that_follows_another_chain_leaves_seq_order():
    # qubits a, x, b, y = 0, 1, 2, 3: RZ(a); CNOT(a,x); H(y); CNOT(b,y); RZ(b)
    c = Circuit(4)
    for gate in (Gate(GateName.RZ, (0,), (0.3,)), Gate(GateName.CNOT, (0, 1)),
                 Gate(GateName.H, (3,)), Gate(GateName.CNOT, (2, 3)),
                 Gate(GateName.RZ, (2,), (0.5,))):
        c.append(gate)
    g = build_gdg(c)
    assert g.topological_order() == kahn_order(g) == [1, 2, 3, 4, 5]
    # {RZ(a), RZ(b)} keeps RZ(a)'s seq 1 but now follows CNOT(b,y), seq 4:
    # H(y) and CNOT(b,y) take seqs 1 and 2, the merged node and CNOT(a,x),
    # which follows it, 3 and 4
    merged = g.contract([1, 5]).id
    audit(g)
    assert seqs(g) == {2: 4, 3: 1, 4: 2, merged: 3}
    assert g.topological_order() == g.copy().topological_order() \
        == kahn_order(g) == [3, 4, merged, 2]
    # the path H(y) -> CNOT(b,y) -> merged passes a seq above both members'
    ok, why = g.can_contract({3, merged})
    assert not ok and "cycle" in why
    assert chain_walk_can_contract(g, {3, merged}) == (ok, why)


def test_contract_repairs_seq_order_locally(rng, monkeypatch):
    # random legal contractions of a node with a child or with all its
    # parents.  With no parent above the merged node's seq lo, no other
    # node's seq changes; otherwise the live seqs are permuted, each moving
    # within [lo, hi], hi the highest such parent's seq
    repaired = {True: 0, False: 0}
    for _ in range(120):
        g = build_gdg(random_circuit(int(rng.integers(3, 7)),
                                     int(rng.integers(10, 40)), rng))
        for _ in range(12):
            ids = list(g.nodes)
            node = g.nodes[ids[rng.integers(len(ids))]]
            children = list(node.children.values())
            if rng.random() < 0.5 and children:
                members = {node.id, children[rng.integers(len(children))]}
            else:
                members = {node.id, *node.parents.values()}
            if len(members) < 2 or not g.can_contract(members)[0]:
                continue
            before = seqs(g)
            lo = min(before[m] for m in members)
            late = [before[p] for m in members
                    for p in g.nodes[m].parents.values()
                    if p not in members and before[p] > lo]
            merged = g.contract(members).id
            audit(g)
            before[merged] = lo
            for m in members:
                del before[m]
            after = seqs(g)
            assert sorted(after.values()) == sorted(before.values())
            if late:
                hi = max(late)
                assert all(lo <= s <= hi for nid in after if after[nid] != before[nid]
                           for s in (before[nid], after[nid]))
            else:
                assert after == before
            repaired[bool(late)] += 1
    assert min(repaired.values()) > 100, repaired

    # every contraction aggregate_loop makes on routed grid graphs leaves the
    # sort and Kahn's loop in the same order, repairs included
    real_contract, moved = GDG.contract, []

    def checked(g, members):
        before = seqs(g)
        node = real_contract(g, members)
        moved.append(moved_seq(g, before))
        assert g.topological_order() == kahn_order(g)
        return node

    monkeypatch.setattr(GDG, "contract", checked)
    price = table_price()
    for n, seed, shape in [(12, 1, (3, 4)), (16, 6, (4, 4))]:
        g = compile_circuit(qaoa3reg(n, seed), CompileOptions(
            strategy="cls", latency_mode="table", topology=Topology(*shape),
            compare_baseline=False)).gdg
        aggregate_loop(g, price, max_width=3)
    assert any(moved), moved
