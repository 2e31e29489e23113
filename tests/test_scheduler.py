import itertools

import numpy as np
import pytest

from pulsecc.aggregator import aggregate_loop
from pulsecc.bench import qaoa_triangle
from pulsecc.commute import (build_commutation_groups, detect_diagonal_blocks,
                             singleton_groups)
from pulsecc.gates import Circuit, Gate, GateName, circuit_unitary, phases_equal
from pulsecc.gdg import GDG, AggregatedInstruction, build_gdg
from pulsecc.latency import table_price
from pulsecc.mapper import (Topology, build_interaction_graph, initial_mapping,
                            route_swaps)
from pulsecc.scheduler import (ScheduleError, cls_schedule, list_schedule,
                               max_matching)

from conftest import full_scan_run, qaoa3reg, random_circuit


def brute_max_matching_size(edges):
    """Exhaustive maximum cardinality over vertex-disjoint edge subsets."""
    best = 0
    for r in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, r):
            verts = [v for (a, b, _) in combo for v in (a, b)]
            if len(verts) == len(set(verts)):
                return r
    return best


def test_matching_matches_exhaustive(rng):
    for _ in range(200):
        n_verts = int(rng.integers(2, 8))
        n_edges = int(rng.integers(1, 11))
        edges = []
        for i in range(n_edges):
            a, b = rng.choice(n_verts, size=2, replace=False)
            edges.append((int(a), int(b), i))
        got = max_matching(edges, [])
        # count vertex-disjoint chosen edges
        chosen = [e for e in edges if e[2] in got]
        verts = [v for (a, b, _) in chosen for v in (a, b)]
        assert len(verts) == len(set(verts))           # valid matching
        assert len(chosen) == brute_max_matching_size(edges)


def test_matching_self_loops_fill_free_vertices():
    got = max_matching([(0, 1, 5)], [(2, 7), (2, 9), (0, 3)])
    assert 5 in got          # the edge
    assert 7 in got          # lowest node id wins vertex 2
    assert 9 not in got
    assert 3 not in got      # vertex 0 taken by the edge


def schedule_is_valid(sched, g):
    """No two instructions overlap in time on any qubit."""
    intervals = {}
    for nid, start in sched.entries:
        node = g.nodes[nid]
        for q in node.qubits:
            intervals.setdefault(q, []).append((start, start + node.duration))
    for q, iv in intervals.items():
        iv.sort()
        for (s0, e0), (s1, e1) in zip(iv, iv[1:]):
            if s1 < e0 - 1e-9:
                return False
    return True


def scheduled_unitary(sched, g):
    """Unitary of the instructions applied in scheduled start order."""
    c = Circuit(g.num_qubits)
    order = sorted(sched.entries, key=lambda e: (e[1], e[0]))
    for nid, _ in order:
        for gate in g.nodes[nid].instruction.gates:
            c.append(gate)
    return circuit_unitary(c)


def test_cls_schedules_all_nodes_once():
    g = build_gdg(qaoa_triangle())
    g.set_durations(table_price())
    sched = cls_schedule(g, build_commutation_groups(g))
    assert sorted(nid for nid, _ in sched.entries) == \
           sorted(n.id for n in g.real_nodes())


def test_cls_rejects_unpriced_node():
    g = build_gdg(qaoa_triangle())
    g.set_durations(table_price())
    g.nodes[1].duration = None
    with pytest.raises(ScheduleError, match="node 1 has no duration"):
        cls_schedule(g, build_commutation_groups(g))


def test_list_schedule_worked_example_makespan():
    g = build_gdg(qaoa_triangle())
    g.set_durations(table_price())
    sched = list_schedule(g)
    total, _ = g.critical_path()
    assert sched.makespan_ns == pytest.approx(total, abs=1e-9)


def test_zero_duration_gate_does_not_delay_its_successors():
    # each rz(0) takes 0 ns, so the cnot behind it may start at once; the
    # x gates on q2 must not decide when the next cnot starts
    c = Circuit(3)
    for _ in range(3):
        c.add(GateName.RZ, 0, params=(0.0,))
        c.add(GateName.CNOT, 0, 1)
        c.add(GateName.X, 2)
    g = build_gdg(c)
    g.set_durations(table_price({"rz": 0}))
    sched = list_schedule(g)
    total, _ = g.critical_path()
    assert total == pytest.approx(141.3)
    assert sched.makespan_ns == pytest.approx(total, abs=1e-9)
    assert schedule_is_valid(sched, g)


def test_cls_not_slower_on_worked_example():
    # greedy group scheduling is a heuristic, so no universal dominance over
    # plain list scheduling; on the commutation-rich worked example it wins
    from pulsecc.commute import detect_diagonal_blocks
    g = build_gdg(qaoa_triangle())
    detect_diagonal_blocks(g)
    g.set_durations(table_price())
    cls = cls_schedule(g, build_commutation_groups(g))
    isa = list_schedule(g)
    assert cls.makespan_ns <= isa.makespan_ns + 1e-9


def test_validity_and_semantics_random(rng):
    for _ in range(100):
        c = random_circuit(4, int(rng.integers(1, 21)), rng)
        g = build_gdg(c)
        g.set_durations(table_price())
        sched = cls_schedule(g, build_commutation_groups(g))
        assert schedule_is_valid(sched, g)
        assert phases_equal(circuit_unitary(c), scheduled_unitary(sched, g))


def test_makespan_equals_latest_finish(rng):
    c = random_circuit(3, 12, rng)
    g = build_gdg(c)
    g.set_durations(table_price())
    sched = list_schedule(g)
    finish = max(start + g.nodes[nid].duration for nid, start in sched.entries)
    assert sched.makespan_ns == pytest.approx(finish)


def routed_graph(c, topo):
    """c after diagonal-block detection, CLS-scheduled on table estimates
    and routed on topo, priced by the table."""
    g = detect_diagonal_blocks(build_gdg(c))
    g.set_durations(table_price())
    mapping = initial_mapping(build_interaction_graph(c), topo, seed=7)
    routed = route_swaps(cls_schedule(g, build_commutation_groups(g)),
                         g, mapping, topo).gdg
    routed.set_durations(table_price())
    return routed


def assert_matches_full_scan(g):
    groups = build_commutation_groups(g)
    assert cls_schedule(g, groups) == full_scan_run(g, groups)
    assert list_schedule(g) == full_scan_run(g, singleton_groups(g))


def test_frontier_loop_matches_full_scan_on_random_circuits(rng):
    # free RZ gates, and durations drawn per node with a third of them zero,
    # make the loop look again at the same time before the clock moves
    def drawn(_ins):
        return float(rng.choice([0.0, 0.0, 5.0, 10.0, 12.5, 30.0]))

    for table in (table_price(), table_price({"rz": 0}), drawn):
        for _ in range(60):
            c = random_circuit(int(rng.integers(2, 6)), int(rng.integers(1, 40)), rng)
            g = build_gdg(c)
            if rng.random() < 0.5:
                detect_diagonal_blocks(g)
            g.set_durations(table)
            assert_matches_full_scan(g)


def test_deadlocking_groups_raise_the_full_scan_error():
    # H(0); H(1); CNOT(0,1) twice; twelve RZ(1); three X(2).  Listing the two
    # CNOTs in opposite orders on q0 and q1 stalls both after the H gates,
    # while q2 runs to its end
    c = Circuit(3)
    c.add(GateName.H, 0)
    c.add(GateName.H, 1)
    c.add(GateName.CNOT, 0, 1)
    c.add(GateName.CNOT, 0, 1)
    for _ in range(12):
        c.add(GateName.RZ, 1, params=(0.3,))
    for _ in range(3):
        c.add(GateName.X, 2)
    g = build_gdg(c)
    g.set_durations(table_price())
    groups = singleton_groups(g)
    q0 = groups[0]
    q0[1], q0[2] = q0[2], q0[1]
    messages = []
    for run in (cls_schedule, full_scan_run):
        with pytest.raises(ScheduleError) as err:
            run(g, groups)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == ("scheduling deadlock; stuck "
                                          "frontier (first 10): "
                                          f"{list(range(3, 13))}")


@pytest.mark.parametrize("n,seed,shape", [(10, 6, (3, 4)), (12, 11, (3, 4)),
                                          (16, 6, (4, 5))])
def test_frontier_loop_matches_full_scan_on_qaoa(n, seed, shape):
    c = qaoa3reg(n, seed)
    g = detect_diagonal_blocks(build_gdg(c))
    g.set_durations(table_price())
    assert_matches_full_scan(g)
    assert_matches_full_scan(routed_graph(c, Topology(*shape)))


def test_frontier_loop_matches_full_scan_after_aggregation(rng):
    price = table_price()
    wide = 0
    circuits = [random_circuit(4, int(rng.integers(8, 30)), rng) for _ in range(20)]
    circuits.append(qaoa3reg(10, 6))
    for c in circuits:
        g = detect_diagonal_blocks(build_gdg(c))
        g.set_durations(price)
        aggregate_loop(g, price, max_width=4)
        wide += sum(len(n.qubits) >= 3 for n in g.real_nodes())
        assert_matches_full_scan(g)
    assert wide > 0


def test_list_schedule_never_builds_a_matching(monkeypatch):
    from pulsecc import scheduler

    def refuse(*_args):
        raise AssertionError("list_schedule built a matching")

    g = routed_graph(qaoa3reg(12, 11), Topology(3, 4))
    monkeypatch.setattr(scheduler, "max_matching", refuse)
    sched = list_schedule(g)
    assert len(sched.entries) == len(g.real_nodes())
    assert schedule_is_valid(sched, g)


def test_wide_node_keeps_the_qubit_its_matching_edge_leaves_out():
    # a 3-qubit node enters the matching as its first two qubits' edge, so
    # the matching also picks the cphase that shares its third qubit; the
    # cphase must wait until the wide node frees that qubit
    g = GDG(4)
    last = {}
    wide = g.add_instruction(AggregatedInstruction(
        [Gate(GateName.CPHASE, (0, 1), (0.3,)),
         Gate(GateName.CPHASE, (1, 2), (0.4,))]), last)
    cp = g.add_instruction(AggregatedInstruction(
        [Gate(GateName.CPHASE, (2, 3), (0.5,))]), last)
    wide.duration, cp.duration = 10.0, 4.0
    groups = {0: [[wide.id]], 1: [[wide.id]], 2: [[wide.id, cp.id]],
              3: [[cp.id]]}
    assert max_matching([(0, 1, wide.id), (2, 3, cp.id)], []) == {wide.id, cp.id}
    sched = cls_schedule(g, groups)
    assert sched.entries == [(wide.id, 0.0), (cp.id, 10.0)]
    assert sched.makespan_ns == 14.0


def test_cls_matches_conflicting_commuting_blocks(monkeypatch):
    # the triangle's three ZZ blocks commute and pairwise share a qubit, so
    # they are candidates together and only a matching can pick among them
    from pulsecc import scheduler

    calls = []
    real = scheduler.max_matching

    def counting(edges, self_loops):
        calls.append(len(edges) + len(self_loops))
        return real(edges, self_loops)

    g = detect_diagonal_blocks(build_gdg(qaoa_triangle()))
    g.set_durations(table_price())
    monkeypatch.setattr(scheduler, "max_matching", counting)
    sched = cls_schedule(g, build_commutation_groups(g))
    assert calls and max(calls) >= 2
    assert sched.entries == full_scan_run(g, build_commutation_groups(g)).entries
