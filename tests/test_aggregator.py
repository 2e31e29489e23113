import numpy as np
import pytest

from pulsecc.aggregator import (Action, aggregate_loop, can_aggregate,
                                enumerate_actions, is_monotonic)
from pulsecc.gates import Gate, GateName, circuit_unitary, phases_equal
from pulsecc.gdg import GDG, AggregatedInstruction, build_gdg
from pulsecc.latency import table_price

from conftest import random_circuit


def toy_instance():
    """Long chain C1 parallel to two 100 ns branches feeding a 10 ns pair.

    C1 on q0 (120 ns); G1 on q1 and G2 on q2 (100 ns each) feed G3 on
    (q1, q2) (10 ns), followed by G6 on (q1, q2) (10 ns).  Only the
    (G3, G6) merge is monotonic: pulling G3 into G1 or G2 serializes the
    other 100 ns branch behind it.
    """
    g = GDG(3)
    last = {}
    mk = lambda gates, seq: g.add_instruction(AggregatedInstruction(gates, seq), last)
    c1 = mk([Gate(GateName.RX, (0,), (1.0,))], 0)
    g1 = mk([Gate(GateName.RX, (1,), (1.0,))], 1)
    g2 = mk([Gate(GateName.RX, (2,), (1.0,))], 2)
    g3 = mk([Gate(GateName.CNOT, (1, 2))], 3)
    g6 = mk([Gate(GateName.CNOT, (1, 2))], 4)
    for node, d in [(c1, 120.0), (g1, 100.0), (g2, 100.0),
                    (g3, 10.0), (g6, 10.0)]:
        node.duration = d
    return g, {"c1": c1.id, "g1": g1.id, "g2": g2.id,
               "g3": g3.id, "g6": g6.id}


def test_can_aggregate_requires_shared_qubits():
    g, ids = toy_instance()
    assert not can_aggregate(ids["c1"], ids["g1"], g)     # disjoint
    assert can_aggregate(ids["g3"], ids["g6"], g)
    assert can_aggregate(ids["g1"], ids["g3"], g)         # adjacent on q1


def test_can_aggregate_respects_width():
    g, ids = toy_instance()
    assert not can_aggregate(ids["g3"], ids["g6"], g, max_width=1)


def test_toy_instance_monotonic_actions():
    g, ids = toy_instance()
    actions = enumerate_actions(g)
    merges = {frozenset((a.node_a, a.node_b)) for a in actions}
    assert merges == {frozenset((ids["g3"], ids["g6"]))}
    # the rejected merges are aggregable but not monotonic
    for other in ("g1", "g2"):
        act = Action(ids[other], ids["g3"], 0.0)
        assert can_aggregate(ids[other], ids["g3"], g)
        assert not is_monotonic(act, g)


def test_monotonicity_uses_sum_of_durations():
    g, ids = toy_instance()
    before, _ = g.critical_path()
    assert before == pytest.approx(120.0)
    # merging g1+g3 would put 100+10 in front of g2's 100 -> 210 path
    act = Action(ids["g1"], ids["g3"], 0.0)
    assert not is_monotonic(act, g)


def test_aggregate_loop_never_increases_makespan(rng):
    price = table_price()
    for _ in range(50):
        c = random_circuit(4, int(rng.integers(5, 16)), rng)
        g = build_gdg(c)
        g.set_durations(price)
        before, _ = g.critical_path()
        before_u = circuit_unitary(g.flatten())
        aggregate_loop(g, price)
        g.audit()
        after, _ = g.critical_path()
        assert after <= before + 1e-9
        assert phases_equal(before_u, circuit_unitary(g.flatten()))


def test_aggregate_loop_applies_toy_merge():
    g, ids = toy_instance()
    trace = []
    aggregate_loop(g, table_price(), trace=trace)
    assert len(trace) == 1
    assert set(trace[0]["merged"]) == {ids["g3"], ids["g6"]}


def test_width_cap_respected(rng):
    price = table_price()
    for _ in range(10):
        c = random_circuit(5, 15, rng)
        g = build_gdg(c)
        g.set_durations(price)
        aggregate_loop(g, price, max_width=2)
        assert all(n.instruction.width <= 2 for n in g.real_nodes())
