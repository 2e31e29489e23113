import pytest

from pulsecc.aggregator import (DEFAULT_MAX_WIDTH, _fits, aggregate_loop,
                                enumerate_actions)
from pulsecc.gates import Gate, GateName, circuit_unitary, phases_equal
from pulsecc.gdg import GDG, AggregatedInstruction, build_gdg
from pulsecc.latency import table_price
from pulsecc.mapper import (Topology, build_interaction_graph, initial_mapping,
                            route_swaps)
from pulsecc.scheduler import list_schedule

from conftest import audit, chain_walk_can_contract, random_circuit


def toy_instance():
    """Long chain C1 parallel to two 100 ns branches feeding a 10 ns pair.

    C1 on q0 (120 ns); G1 on q1 and G2 on q2 (100 ns each) feed G3 on
    (q1, q2) (10 ns), followed by G6 on (q1, q2) (10 ns).  Exactly two merges
    are monotonic: {G3, G6}, and {G1, G2, G3}, where G1 and G2 run side by
    side for 100 ns, then G3 takes 10 ns, and 110 + 10 = 120 ns is the
    makespan.  Pulling G3 into G1 or G2 alone serializes the other 100 ns
    branch behind it.
    """
    g = GDG(3)
    last = {}
    mk = lambda gates: g.add_instruction(AggregatedInstruction(gates), last)
    c1 = mk([Gate(GateName.RX, (0,), (1.0,))])
    g1 = mk([Gate(GateName.RX, (1,), (1.0,))])
    g2 = mk([Gate(GateName.RX, (2,), (1.0,))])
    g3 = mk([Gate(GateName.CNOT, (1, 2))])
    g6 = mk([Gate(GateName.CNOT, (1, 2))])
    for node, d in [(c1, 120.0), (g1, 100.0), (g2, 100.0),
                    (g3, 10.0), (g6, 10.0)]:
        node.duration = d
    return g, {"c1": c1.id, "g1": g1.id, "g2": g2.id,
               "g3": g3.id, "g6": g6.id}


def test_can_aggregate_respects_width():
    g, ids = toy_instance()
    assert _fits((ids["g3"], ids["g6"]), g, 2)
    assert not _fits((ids["g3"], ids["g6"]), g, 1)


def action_sets(g, **kw) -> set[frozenset]:
    return {frozenset(a.members) for a in enumerate_actions(g, **kw)}


def toy_action_sets(ids) -> set[frozenset]:
    return {frozenset((ids["g3"], ids["g6"])),
            frozenset((ids["g1"], ids["g2"], ids["g3"]))}


def test_toy_instance_monotonic_actions():
    g, ids = toy_instance()
    assert action_sets(g) == toy_action_sets(ids)
    # the rejected pair merges are aggregable but not monotonic
    for other in ("g1", "g2"):
        assert _fits((ids[other], ids["g3"]), g, DEFAULT_MAX_WIDTH)


def test_monotonicity_uses_internal_critical_path():
    g, ids = toy_instance()
    before, _ = g.critical_path()
    assert before == pytest.approx(120.0)
    # merging g1+g3 would put 100+10 in front of g2's 100 -> 210 path
    assert frozenset((ids["g1"], ids["g3"])) not in action_sets(g)
    # g1 and g2 side by side, then g3: 110 ns, not the 210 ns sum
    spans = {a.members: a.span_ns for a in enumerate_actions(g)}
    assert spans[(ids["g1"], ids["g2"], ids["g3"])] == pytest.approx(110.0)
    assert spans[(ids["g3"], ids["g6"])] == pytest.approx(20.0)


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
                   if _fits((n.id, c), g, max_width)})


def candidate_sets(g, max_width) -> list[tuple[int, ...]]:
    """The aggregable pairs, and every node with all its parents or with
    all its children where that set is contractible and within max_width."""
    out = set(aggregable_pairs(g, max_width))
    for n in g.real_nodes():
        for group in (set(n.parents.values()), set(n.children.values())):
            members = group | {n.id}
            width = len({q for m in members for q in g.nodes[m].qubits})
            if len(members) > 1 and width <= max_width and \
                    chain_walk_can_contract(g, members)[0]:
                out.add(tuple(sorted(members)))
    return sorted(out)


def internal_critical_path(g, members) -> float:
    """The critical path with every non-member at zero duration: no outside
    path runs from one member of a contractible set to another."""
    z = g.copy()
    for nid, node in z.nodes.items():
        if nid not in members:
            node.duration = 0.0
    return z.critical_path()[0]


def copy_and_contract_actions(g, max_width) -> set[frozenset]:
    """Reference rule: the candidate sets whose trial contraction at their
    internal critical path leaves the critical path no longer."""
    before, _ = g.critical_path()
    out = set()
    for members in candidate_sets(g, max_width):
        trial = g.copy()
        trial.contract(members).duration = \
            internal_critical_path(g, members)
        if trial.critical_path()[0] <= before + 1e-9:
            out.add(frozenset(members))
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
            assert action_sets(g, max_width=width) == \
                copy_and_contract_actions(g, width)
            states += 1
            sets = candidate_sets(g, width)
            if not sets:
                break
            # any legal merge, priced at or below its internal critical path
            members = sets[int(rng.integers(len(sets)))]
            dur = internal_critical_path(g, members)
            g.contract(members).duration = dur * float(rng.uniform(0.5, 1.0))
    assert states > 100


def test_aggregate_loop_never_increases_makespan(rng):
    price = table_price()
    for _ in range(50):
        c = random_circuit(4, int(rng.integers(5, 16)), rng)
        g = build_gdg(c)
        g.set_durations(price)
        before, _ = g.critical_path()
        before_u = circuit_unitary(g.flatten())
        aggregate_loop(g, price)
        audit(g)
        after, _ = g.critical_path()
        assert after <= before + 1e-9
        assert phases_equal(before_u, circuit_unitary(g.flatten()))


def test_aggregate_loop_applies_toy_merge():
    g, ids = toy_instance()
    trace = []
    aggregate_loop(g, table_price(), trace=trace)
    # of the two toy actions the smaller member tuple goes first; the merged
    # 110 ns node and G6 then fit the makespan as a pair
    first = sorted((ids["g1"], ids["g2"], ids["g3"]))
    assert tuple(first) < tuple(sorted((ids["g3"], ids["g6"])))
    second = sorted((trace[0]["into"], ids["g6"]))
    assert [t["merged"] for t in trace] == [first, second]
    assert ids["c1"] in g.nodes and len(g.real_nodes()) == 2


def test_actions_order_by_gain_then_members(rng):
    # no gain is ranked: every monotonic action ties, and the smallest member
    # tuple goes first, even where another action spans less
    g, ids = toy_instance()
    acts = {a.members: a.span_ns for a in enumerate_actions(g)}
    big = tuple(sorted((ids["g1"], ids["g2"], ids["g3"])))
    small = tuple(sorted((ids["g3"], ids["g6"])))
    assert acts == {big: 110.0, small: 20.0}
    trace = []
    aggregate_loop(g, table_price(), trace=trace)
    assert trace[0]["merged"] == list(big)
    price = table_price()
    applied = 0
    for _ in range(20):
        g = build_gdg(random_circuit(4, int(rng.integers(5, 16)), rng))
        g.set_durations(price)
        acts = enumerate_actions(g)
        trace = []
        aggregate_loop(g, price, trace=trace)
        if acts:
            assert trace[0]["merged"] == list(min(a.members for a in acts))
            applied += 1
    assert applied > 0


def test_width_cap_respected(rng):
    price = table_price()
    for _ in range(10):
        c = random_circuit(5, 15, rng)
        g = build_gdg(c)
        g.set_durations(price)
        aggregate_loop(g, price, max_width=2)
        assert all(len(n.qubits) <= 2 for n in g.real_nodes())
