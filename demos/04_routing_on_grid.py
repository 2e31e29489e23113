"""Placement and SWAP routing of a 6-qubit circuit onto a 2x3 grid.

Builds the interaction graph, shows the recursive-bisection placement, routes
with meet-in-the-middle SWAP chains, and verifies the permutation relation
between the source and routed unitaries.
"""
import numpy as np

from pulsecc.bench import maxcut_line
from pulsecc.gates import Circuit, GateName, circuit_unitary, permute_wires, phases_equal
from pulsecc.gdg import build_gdg
from pulsecc.latency import table_price
from pulsecc.mapper import (Topology, build_interaction_graph, initial_mapping,
                            permutation_operator, route_swaps)
from pulsecc.scheduler import list_schedule


def main():
    # a ring interaction pattern stresses a 2x3 grid more than a line does
    c = Circuit(6, name="ring")
    for q in range(6):
        c.add(GateName.H, q)
    for a in range(6):
        c.add(GateName.CNOT, a, (a + 1) % 6)

    topo = Topology(2, 3)
    gr = build_interaction_graph(c)
    print("interaction weights:", dict(sorted(gr.weights.items())))

    mapping = initial_mapping(gr, topo, seed=0)
    print("\nplacement (logical qubit at each grid site):")
    site2q = {s: q for q, s in mapping.items()}
    for r in range(topo.rows):
        print("   " + "  ".join(f"q{site2q[topo.site(r, col)]}"
                                for col in range(topo.cols)))

    g = build_gdg(c)
    g.set_durations(table_price())
    result = route_swaps(list_schedule(g), g, mapping, topo)
    print(f"\ninserted SWAPs: {result.swap_count}")
    print("final permutation (logical -> site):", result.final_mapping)

    n = topo.num_sites
    u_init = permute_wires(circuit_unitary(c),
                           [result.initial_mapping[q] for q in range(6)],
                           list(range(n)))
    p = permutation_operator(n, [result.initial_mapping[q] for q in range(6)],
                             [result.final_mapping[q] for q in range(6)])
    ok = phases_equal(circuit_unitary(result.gdg.flatten()), p @ u_init)
    print(f"semantics preserved up to the reported permutation: {ok}")


if __name__ == "__main__":
    main()
