import itertools

import networkx as nx
import numpy as np
import pytest

from pulsecc.bench import qaoa_circuit
from pulsecc.gates import Circuit, GateName, circuit_unitary, permute_wires, phases_equal
from pulsecc.gdg import build_gdg
from pulsecc.latency import table_price
from pulsecc.mapper import (InteractionGraph, MappingError, Topology, bisect,
                            build_interaction_graph, initial_mapping,
                            permutation_operator, route_swaps)
from pulsecc.scheduler import list_schedule

from conftest import audit, full_cost_refine, random_circuit


def test_topology_basics():
    t = Topology(2, 3)
    assert t.num_sites == 6
    assert t.site(1, 2) == 5
    assert t.coords(4) == (1, 1)
    assert t.adjacent(0, 1) and t.adjacent(0, 3) and not t.adjacent(0, 4)
    assert t.distance(0, 5) == 3


def test_topology_shortest_path_valid():
    t = Topology(3, 4)
    p = t.shortest_path(0, 11)
    assert p[0] == 0 and p[-1] == 11
    assert len(p) == t.distance(0, 11) + 1
    assert all(t.adjacent(a, b) for a, b in zip(p, p[1:]))


def test_topology_parse():
    assert Topology.parse("grid:2x3") == Topology(2, 3)
    with pytest.raises(MappingError):
        Topology.parse("ring:5")
    with pytest.raises(MappingError):
        Topology.parse("grid:2")
    with pytest.raises(MappingError):
        Topology.parse("grid:-2x-3")
    with pytest.raises(MappingError):
        Topology(0, 3)


def brute_min_cut(gr, k):
    verts = sorted(gr.vertices)
    best = None
    for combo in itertools.combinations(verts, k):
        side = set(combo)
        cut = sum(w for (a, b), w in gr.weights.items()
                  if (a in side) != (b in side))
        best = cut if best is None else min(best, cut)
    return best


def test_bisect_two_cliques():
    # two 3-cliques joined by nothing: optimal cut is 0
    w = {}
    for a, b in itertools.combinations([0, 1, 2], 2):
        w[(a, b)] = 5
    for a, b in itertools.combinations([3, 4, 5], 2):
        w[(a, b)] = 5
    gr = InteractionGraph(list(range(6)), w)
    pa, pb = bisect(gr)
    side = set(pa)
    assert sum(v for (a, b), v in w.items() if (a in side) != (b in side)) == 0


def test_bisect_path_of_four():
    gr = InteractionGraph([0, 1, 2, 3], {(0, 1): 1, (1, 2): 1, (2, 3): 1})
    pa, pb = bisect(gr)
    side = set(pa)
    cut = sum(w for (a, b), w in gr.weights.items() if (a in side) != (b in side))
    assert cut == 1  # optimal: split the middle edge


@pytest.mark.parametrize("vertices", [[], [3]])
def test_bisect_needs_two_vertices(vertices):
    with pytest.raises(MappingError, match="at least 2 vertices"):
        bisect(InteractionGraph(vertices))


def test_bisect_matches_exhaustive_random(rng):
    for _ in range(20):
        n = int(rng.integers(4, 8))
        w = {}
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                w[(a, b)] = int(rng.integers(1, 6))
        gr = InteractionGraph(list(range(n)), w)
        pa, pb = bisect(gr)
        side = set(pa)
        cut = sum(v for (a, b), v in w.items() if (a in side) != (b in side))
        assert cut == brute_min_cut(gr, (n + 1) // 2)


def test_initial_mapping_injective(rng):
    for rows, cols, n in [(1, 4, 4), (2, 2, 4), (2, 3, 5), (3, 3, 7)]:
        c = random_circuit(n, 12, rng)
        mp = initial_mapping(build_interaction_graph(c), Topology(rows, cols),
                             seed=1)
        assert len(mp) == n
        assert len(set(mp.values())) == n
        assert all(0 <= s < rows * cols for s in mp.values())


def test_initial_mapping_rejects_overflow():
    gr = InteractionGraph(list(range(5)), {})
    with pytest.raises(MappingError):
        initial_mapping(gr, Topology(2, 2))


def test_mapping_places_triangle_contiguously():
    from pulsecc.bench import qaoa_triangle
    c = qaoa_triangle()
    mp = initial_mapping(build_interaction_graph(c), Topology.line(3), seed=7)
    # heaviest pairs (0,1) and (1,2) must be adjacent: q1 in the middle
    assert mp[1] == 1


def route(c, topo, seed=0):
    g = build_gdg(c)
    g.set_durations(table_price())
    sched = list_schedule(g)
    mp = initial_mapping(build_interaction_graph(c), topo, seed=seed)
    return route_swaps(sched, g, mp, topo)


def test_routing_adjacency_and_semantics(rng):
    for trial in range(30):
        topo = Topology(2, 2) if trial % 2 == 0 else Topology(2, 3)
        n = topo.num_sites
        c = random_circuit(n, 12, rng)
        r = route(c, topo, seed=trial)
        audit(r.gdg)
        routed = r.gdg.flatten()
        for gate in routed.gates:
            if len(gate.qubits) == 2:
                assert topo.adjacent(*gate.qubits)
        u_src = circuit_unitary(c)
        u_routed = circuit_unitary(routed)
        u_init = permute_wires(u_src, [r.initial_mapping[q] for q in range(n)],
                               list(range(n)))
        p = permutation_operator(n, [r.initial_mapping[q] for q in range(n)],
                                 [r.final_mapping[q] for q in range(n)])
        assert phases_equal(u_routed, p @ u_init)


def test_no_swaps_when_already_adjacent():
    c = Circuit(3)
    c.add(GateName.CNOT, 0, 1)
    c.add(GateName.CNOT, 1, 2)
    r = route(c, Topology.line(3))
    assert r.swap_count == 0


def four_sum_kl_refine(gr, part_a, part_b):
    """Reference Kernighan-Lin round: re-sum both vertices' crossing and
    same-side weights for every candidate swap."""
    verts = part_a + part_b
    side = {v: 0 for v in part_a} | {v: 1 for v in part_b}
    improved = True
    while improved:
        improved = False
        best_gain, best_pair = 0, None
        for a, b in itertools.product(part_a, part_b):
            before = sum(gr.weight(a, v) for v in verts if side[v] != side[a]) + \
                     sum(gr.weight(b, v) for v in verts if side[v] != side[b])
            after = sum(gr.weight(a, v) for v in verts if side[v] == side[a] and v != a) + \
                    sum(gr.weight(b, v) for v in verts if side[v] == side[b] and v != b) + \
                    2 * gr.weight(a, b)
            if before - after > best_gain:
                best_gain, best_pair = before - after, (a, b)
        if best_pair:
            a, b = best_pair
            part_a[part_a.index(a)] = b
            part_b[part_b.index(b)] = a
            side[a], side[b] = 1, 0
            improved = True


def test_kl_refine_matches_four_sum_reference(rng, monkeypatch):
    from pulsecc import mapper
    fast = mapper._kl_refine

    def placement(gr, topo, seed):
        try:
            return initial_mapping(gr, topo, seed=seed)
        except MappingError as e:
            return str(e)

    failures = 0
    for trial in range(60):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        n = int(rng.integers(2, rows * cols + 1))
        w = {(a, b): int(rng.integers(1, 6))
             for a, b in itertools.combinations(range(n), 2) if rng.random() < 0.4}
        gr = InteractionGraph(list(range(n)), w)
        order = [int(v) for v in rng.permutation(n)]
        k = (n + 1) // 2
        got_a, got_b, want_a, want_b = order[:k], order[k:], order[:k], order[k:]
        fast(gr, got_a, got_b)
        four_sum_kl_refine(gr, want_a, want_b)
        assert (got_a, got_b) == (want_a, want_b)
        monkeypatch.setattr(mapper, "_kl_refine", fast)
        got = placement(gr, Topology(rows, cols), trial)
        monkeypatch.setattr(mapper, "_kl_refine", four_sum_kl_refine)
        want = placement(gr, Topology(rows, cols), trial)
        assert got == want
        failures += isinstance(got, str)
    assert failures > 0


def regular_graph(n, seed):
    """Interaction graph of QAOA on a seeded 3-regular graph; for odd n, one
    drawn on n + 1 vertices with the extra vertex removed; below 4, all pairs."""
    if n < 4:
        edges = list(itertools.combinations(range(n), 2))
    else:
        g = nx.random_regular_graph(3, n + n % 2, seed=seed)
        edges = sorted(tuple(sorted(e)) for e in g.edges() if max(e) < n)
    return build_interaction_graph(qaoa_circuit(n, edges))


class WriteBudget(dict):
    """A mapping that fails a hill climb after 10,000 writes.  _refine_placement
    writes only the moves it makes, each of which lowers the integer cost, so
    a climb that misprices moves into a cycle fails instead of hanging."""
    writes = 0

    def __setitem__(self, q, site):
        self.writes += 1
        assert self.writes <= 10_000, "refinement keeps moving"
        super().__setitem__(q, site)


def test_refine_placement_matches_full_cost_reference(rng, monkeypatch):
    from pulsecc import mapper
    fast = mapper._refine_placement

    def placement(refine, gr, topo, seed):
        monkeypatch.setattr(mapper, "_refine_placement", refine)
        try:
            return initial_mapping(gr, topo, seed=seed)
        except MappingError as e:
            return str(e)

    # every grid of the benchmark's placement sweep, at every size
    cases = [(Topology(rows, cols), regular_graph(n, rows * 100 + n))
             for rows in range(1, 5) for cols in range(rows, 6)
             for n in range(2, rows * cols + 1)]
    for _ in range(40):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(3, 6))
        n = int(rng.integers(2, rows * cols))  # at least one free site
        w = {(a, b): int(rng.integers(1, 5))
             for a, b in itertools.combinations(range(n), 2) if rng.random() < 0.4}
        cases.append((Topology(rows, cols), InteractionGraph(list(range(n)), w)))
    relocated = 0
    for seed, (topo, gr) in enumerate(cases):
        # from a scattered start, on sites not all taken, so qubits relocate
        sites = [int(s) for s in rng.permutation(topo.num_sites)]
        start = dict(zip(gr.vertices, sites))
        got, want = WriteBudget(start), dict(start)
        fast(gr, got, topo)
        full_cost_refine(gr, want, topo)
        assert got == want
        relocated += set(got.values()) != set(start.values())
        assert placement(fast, gr, topo, seed) == \
            placement(full_cost_refine, gr, topo, seed)
    assert relocated > 20

