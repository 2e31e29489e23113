"""Worked example: the 3-qubit QAOA triangle, step by step with table latencies.

Shows the dependence graph, diagonal-block detection, commutation groups, and
the CLS schedule next to the plain list schedule.
"""
from pulsecc.bench import qaoa_triangle
from pulsecc.commute import build_commutation_groups, detect_diagonal_blocks
from pulsecc.gdg import build_gdg
from pulsecc.latency import table_price
from pulsecc.scheduler import cls_schedule, list_schedule


def main():
    circuit = qaoa_triangle()
    print(f"input: {len(circuit.gates)} gates on {circuit.num_qubits} qubits")
    for g in circuit.gates:
        print(f"  {g!r}")

    table = table_price()
    g = build_gdg(circuit)
    g.set_durations(table)
    total, path = g.critical_path()
    print(f"\nflattened dependence graph: {len(g.real_nodes())} nodes, "
          f"critical path {total:.1f} ns (gate-by-gate baseline)")

    isa = list_schedule(g)
    print("\nlist schedule (one gate at a time per qubit):")
    print(isa.timeline(g))

    detect_diagonal_blocks(g)
    g.set_durations(table)
    print(f"\nafter diagonal-block detection: {len(g.real_nodes())} nodes")
    for n in g.real_nodes():
        print(f"  node {n.id}: {n.instruction.label()} "
              f"({n.duration:.1f} ns table estimate)")

    groups = build_commutation_groups(g)
    print("\ncommutation groups per qubit (node ids):")
    for q, grps in sorted(groups.items()):
        print(f"  q{q}: {grps}")

    cls = cls_schedule(g, groups)
    print("\ncommutativity-aware schedule:")
    print(cls.timeline(g))
    print(f"\ntable-latency makespans: list {isa.makespan_ns:.1f} ns, "
          f"cls {cls.makespan_ns:.1f} ns")


if __name__ == "__main__":
    main()
