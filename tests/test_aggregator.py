import pytest

from pulsecc import aggregator
from pulsecc.aggregator import aggregate_loop, can_aggregate, enumerate_actions
from pulsecc.gates import Gate, GateName, circuit_unitary, phases_equal
from pulsecc.gdg import GDG, AggregatedInstruction, build_gdg
from pulsecc.latency import table_price
from pulsecc.mapper import (Topology, build_interaction_graph, initial_mapping,
                            route_swaps)
from pulsecc.scheduler import list_schedule

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


def action_pairs(g, **kw) -> set[frozenset]:
    return {frozenset((a.node_a, a.node_b)) for a in enumerate_actions(g, **kw)}


def test_toy_instance_monotonic_actions():
    g, ids = toy_instance()
    assert action_pairs(g) == {frozenset((ids["g3"], ids["g6"]))}
    # the rejected merges are aggregable but not monotonic
    for other in ("g1", "g2"):
        assert can_aggregate(ids[other], ids["g3"], g)


def test_monotonicity_uses_sum_of_durations():
    g, ids = toy_instance()
    before, _ = g.critical_path()
    assert before == pytest.approx(120.0)
    # merging g1+g3 would put 100+10 in front of g2's 100 -> 210 path
    assert frozenset((ids["g1"], ids["g3"])) not in action_pairs(g)


def routed_gdg(c, topo, seed):
    """Criterion 10's input: c list-scheduled, placed and routed on topo,
    priced by the gate table."""
    price = table_price()
    g = build_gdg(c)
    g.set_durations(price)
    mapping = initial_mapping(build_interaction_graph(c), topo, seed=seed)
    routed = route_swaps(list_schedule(g), g, mapping, topo).gdg
    routed.set_durations(price)
    return routed


def aggregable_pairs(g, max_width) -> list[tuple[int, int]]:
    return sorted({tuple(sorted((n.id, c))) for n in g.real_nodes()
                   for c in n.children.values()
                   if can_aggregate(n.id, c, g, max_width)})


def copy_and_contract_actions(g, max_width) -> set[frozenset]:
    """Reference rule: the aggregable pairs whose trial contraction at the
    summed duration leaves the critical path no longer."""
    before, _ = g.critical_path()
    out = set()
    for a, b in aggregable_pairs(g, max_width):
        trial = g.copy()
        trial.contract({a, b}).duration = g.nodes[a].duration + g.nodes[b].duration
        if trial.critical_path()[0] <= before + 1e-9:
            out.add(frozenset((a, b)))
    return out


def test_enumerate_actions_matches_copy_and_contract(rng):
    states = 0
    for trial in range(30):
        n = int(rng.integers(3, 7))
        topo = Topology(1, n) if trial % 2 == 0 else Topology(2, (n + 1) // 2)
        g = routed_gdg(random_circuit(n, int(rng.integers(6, 20)), rng),
                       topo, seed=trial)
        width = int(rng.integers(2, 5))
        while True:
            assert action_pairs(g, max_width=width) == \
                copy_and_contract_actions(g, width)
            states += 1
            pairs = aggregable_pairs(g, width)
            if not pairs:
                break
            # any legal merge, priced at or below its parts' sum
            a, b = pairs[int(rng.integers(len(pairs)))]
            dur = g.nodes[a].duration + g.nodes[b].duration
            g.contract({a, b}).duration = dur * float(rng.uniform(0.5, 1.0))
    assert states > 100


def test_gain_is_zero_without_hint(rng, monkeypatch):
    gains = []

    def recording(*args, **kwargs):
        actions = enumerate_actions(*args, **kwargs)
        gains.extend(a.predicted_gain_ns for a in actions)
        return actions

    monkeypatch.setattr(aggregator, "enumerate_actions", recording)
    price = table_price()
    for trial in range(100):  # criterion 10's routed graphs
        topo = Topology(1, 4) if trial % 2 == 0 else Topology(2, 2)
        c = random_circuit(4, int(rng.integers(4, 16)), rng)
        aggregate_loop(routed_gdg(c, topo, seed=trial), price)
    assert gains and all(gain == 0.0 for gain in gains)


def test_hint_gain_matches_trial_contraction(rng):
    price = table_price()
    hits = 0
    for trial in range(20):
        topo = Topology(1, 4) if trial % 2 == 0 else Topology(2, 2)
        g = routed_gdg(random_circuit(4, int(rng.integers(6, 16)), rng),
                       topo, seed=trial)
        before, _ = g.critical_path()
        # a cache of every contracted pair, in contract()'s gate order,
        # priced at half its parts
        cached = {}
        for pair in aggregable_pairs(g, aggregator.DEFAULT_MAX_WIDTH):
            ins = g.copy().contract(set(pair)).instruction
            cached[tuple(ins.gates)] = 0.5 * price(ins)
        hint = lambda ins: cached.get(tuple(ins.gates))
        for act in enumerate_actions(g, duration_hint=hint):
            trial_g = g.copy()
            merged = trial_g.contract({act.node_a, act.node_b})
            merged.duration = hint(merged.instruction)
            expected = max(0.0, before - trial_g.critical_path()[0])
            assert act.predicted_gain_ns == pytest.approx(expected, abs=1e-9)
            hits += act.predicted_gain_ns > 0
    assert hits > 0


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
