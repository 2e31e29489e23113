"""Acceptance suite: one test per advertised guarantee, each printing a
single pass/fail line (live, bypassing capture) plus the usual assertion.
"""
import itertools
import math
import time

import numpy as np
import pytest

from pulsecc.aggregator import aggregate_loop, enumerate_actions
from pulsecc.bench import ising_chain, maxcut_line, qaoa_triangle, uccsd
from pulsecc.commute import build_commutation_groups, commutes
from pulsecc.gates import (Gate, GateName, circuit_unitary, embed,
                           gate_unitary, permute_wires, phases_equal)
from pulsecc.gdg import build_gdg
from pulsecc.latency import table_price
from pulsecc.mapper import (Topology, build_interaction_graph, initial_mapping,
                            permutation_operator, route_swaps)
from pulsecc.optctrl import (ControlPulses, HamiltonianModel,
                             OptimalControlUnit, OptimizerConfig, evolve,
                             gradient, infidelity, min_time,
                             min_time_bound)
from pulsecc.pipeline import CompileOptions, compile_circuit
from pulsecc.scheduler import cls_schedule, list_schedule, max_matching
from pulsecc.verify import verify_instruction

from conftest import random_circuit
from test_aggregator import toy_action_sets, toy_instance
from test_scheduler import (brute_max_matching_size, schedule_is_valid,
                            scheduled_unitary)


def report(capfd, num: int, desc: str, passed: bool, elapsed: float):
    with capfd.disabled():
        print(f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d}: {desc} "
              f"({elapsed:.1f} s)")
    assert passed, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def line_ocu():
    """One shared pulse-synthesis oracle (and cache) for all line topologies."""
    cfg = OptimizerConfig(fidelity_threshold=0.999, seed=7)
    return OptimalControlUnit(cfg=cfg, adjacency=lambda a, b: abs(a - b) == 1)


@pytest.fixture(scope="module")
def compiled_store():
    """Compiled results accumulated by criteria 2 and 3, reused by 11."""
    return []


def test_criterion_1_worked_example_arithmetic(capfd):
    t0 = time.time()
    g = build_gdg(qaoa_triangle())
    g.set_durations(table_price())
    sched = list_schedule(g)
    ok = abs(sched.makespan_ns - 381.9) <= 1e-9

    # aggregated critical path: chain of published G-durations 54.9+42.0+31.4
    from pulsecc.gdg import GDG, AggregatedInstruction
    agg = GDG(3)
    last = {}
    chain = [54.9, 42.0, 31.4]
    for d in chain:
        node = agg.add_instruction(AggregatedInstruction(
            [Gate(GateName.CNOT, (0, 1))]), last)
        node.duration = d
    for d in [13.7, 6.1]:  # off-path single-qubit work
        node = agg.add_instruction(AggregatedInstruction(
            [Gate(GateName.RX, (2,), (1.0,))]), last)
        node.duration = d
    total, _ = agg.critical_path()
    ok = ok and abs(total - 128.3) <= 1e-9
    elapsed = time.time() - t0
    report(capfd, 1, "worked-example makespans 381.9 / 128.3 ns exact",
           ok and elapsed < 1.0, elapsed)


def test_criterion_2_triangle_speedup(capfd, line_ocu, compiled_store):
    t0 = time.time()
    opts = CompileOptions(strategy="cls+agg", max_width=3,
                          optimizer=OptimizerConfig(fidelity_threshold=0.999))
    res = compile_circuit(qaoa_triangle(), opts, ocu=line_ocu)
    compiled_store.append(res)
    speedup = res.manifest["speedup"]
    elapsed = time.time() - t0
    report(capfd, 2, f"QAOA-triangle cls+agg speedup {speedup:.2f}x >= 2.0x, "
           f"makespan {res.makespan_ns} <= 18 ns",
           speedup >= 2.0 and res.makespan_ns <= 18.0 and elapsed < 600,
           elapsed)


def test_criterion_3_bench_speedups_and_ordering(capfd, line_ocu,
                                                 compiled_store):
    t0 = time.time()
    benches = [maxcut_line(6), ising_chain(6), uccsd(4)]
    # cls+agg makespans at seed 1, reached by merging instruction sets
    limits = {"maxcut-line-6": 16.0, "ising-chain-6": 26.0, "uccsd-4": 82.0}
    ok = True
    detail = []
    for circ in benches:
        makespans = {}
        for seed in range(1, 6):
            for strat in ("isa", "cls", "cls+agg"):
                opts = CompileOptions(strategy=strat, max_width=3, seed=seed,
                                      compare_baseline=False)
                r = compile_circuit(circ, opts, ocu=line_ocu)
                makespans[(strat, seed)] = r.makespan_ns
                if seed == 1:
                    compiled_store.append(r)
            ok = ok and (makespans[("cls+agg", seed)]
                         <= makespans[("cls", seed)] + 1e-9
                         <= makespans[("isa", seed)] + 2e-9)
        speedup = makespans[("isa", 1)] / makespans[("cls+agg", 1)]
        detail.append(f"{circ.name} {speedup:.2f}x")
        ok = ok and speedup >= 1.5
        ok = ok and makespans[("cls+agg", 1)] <= limits[circ.name]
    elapsed = time.time() - t0
    report(capfd, 3, "bench speedups >= 1.5x, isa >= cls >= cls+agg and "
           f"cls+agg within 16/26/82 ns ({', '.join(detail)})",
           ok and elapsed < 1800, elapsed)


def test_two_qubit_pulses_respect_min_time_bound(line_ocu):
    # after criteria 2 and 3 the shared cache holds every 2-qubit pulse they
    # synthesized; none may beat the relaxed minimum-time bound of its target,
    # whose rounded matrix the cache key carries
    if not line_ocu.cache:
        compile_circuit(qaoa_triangle(), CompileOptions(
            strategy="cls+agg", max_width=3), ocu=line_ocu)
    checked = 0
    for key, (duration, _, model) in line_ocu.cache.items():
        if model.num_qubits == 2:
            target = np.frombuffer(key[1], dtype=complex).reshape(4, 4)
            bound = min_time_bound(target, model, 0.999)
            assert duration >= bound, (duration, bound)
            checked += 1
    assert checked > 0


def test_wide_pulses_respect_min_time_bound(line_ocu):
    # the same for every cached pulse of 3 or more qubits: none may beat the
    # cut speed limit of its target on its cached model's pairs
    if not line_ocu.cache:
        compile_circuit(qaoa_triangle(), CompileOptions(
            strategy="cls+agg", max_width=3), ocu=line_ocu)
    bounds = []
    for key, (duration, _, model) in line_ocu.cache.items():
        if model.num_qubits >= 3:
            target = np.frombuffer(key[1], dtype=complex).reshape(
                model.dim, model.dim)
            bounds.append(min_time_bound(target, model, 0.999))
            assert duration >= bounds[-1], (duration, bounds[-1])
    assert max(bounds) > 0


def test_criterion_4_commutation_oracle(capfd, rng):
    t0 = time.time()
    from conftest import random_gate
    ok = True
    for _ in range(500):
        a, b = random_gate(3, rng), random_gate(3, rng)
        ctx = sorted(set(a.qubits) | set(b.qubits))
        ua, ub = embed(a, ctx), embed(b, ctx)
        brute = np.max(np.abs(ua @ ub - ub @ ua)) <= 1e-8
        ok = ok and (commutes(a, b) == brute)
    # the four named relations
    named = [
        (Gate(GateName.RZ, (0,), (1.3,)), Gate(GateName.CNOT, (0, 1)), True),
        (Gate(GateName.RX, (1,), (0.7,)), Gate(GateName.CNOT, (0, 1)), True),
        (Gate(GateName.CNOT, (0, 1)), Gate(GateName.CNOT, (0, 2)), True),
        (Gate(GateName.CNOT, (0, 2)), Gate(GateName.CNOT, (1, 2)), True),
    ]
    for a, b, expect in named:
        ok = ok and commutes(a, b) == expect
    elapsed = time.time() - t0
    report(capfd, 4, "commutation oracle matches brute force on 500 pairs "
           "+ 4 named relations", ok and elapsed < 10, elapsed)


def test_criterion_5_matching_optimality(capfd, rng):
    t0 = time.time()
    ok = True
    for _ in range(200):
        n_verts = int(rng.integers(2, 9))
        edges = [(int(a), int(b), i)
                 for i, (a, b) in enumerate(
                     rng.choice(n_verts, size=(int(rng.integers(1, 11)), 2))
                     .tolist())
                 if a != b]
        if not edges:
            continue
        got = max_matching(edges, [])
        chosen = [e for e in edges if e[2] in got]
        verts = [v for (a, b, _) in chosen for v in (a, b)]
        ok = ok and len(verts) == len(set(verts))
        ok = ok and len(chosen) == brute_max_matching_size(edges)
    elapsed = time.time() - t0
    report(capfd, 5, "max matching equals exhaustive optimum on 200 graphs",
           ok and elapsed < 10, elapsed)


def test_criterion_6_scheduling_validity_semantics(capfd, rng):
    t0 = time.time()
    ok = True
    for _ in range(100):
        c = random_circuit(4, int(rng.integers(1, 21)), rng)
        g = build_gdg(c)
        g.set_durations(table_price())
        sched = cls_schedule(g, build_commutation_groups(g))
        ok = ok and schedule_is_valid(sched, g)
        ok = ok and phases_equal(circuit_unitary(c),
                                 scheduled_unitary(sched, g), tol=1e-8)
    elapsed = time.time() - t0
    report(capfd, 6, "100 random CLS schedules overlap-free and "
           "semantics-preserving", ok and elapsed < 120, elapsed)


def test_criterion_7_routing_legality_semantics(capfd, rng):
    t0 = time.time()
    ok = True
    for trial in range(100):
        topo = Topology(2, 2) if trial % 2 == 0 else Topology(2, 3)
        n = topo.num_sites
        c = random_circuit(n, int(rng.integers(1, 16)), rng)
        g = build_gdg(c)
        g.set_durations(table_price())
        sched = list_schedule(g)
        mp = initial_mapping(build_interaction_graph(c), topo, seed=trial)
        r = route_swaps(sched, g, mp, topo)
        routed = r.gdg.flatten()
        ok = ok and all(topo.adjacent(*gt.qubits)
                        for gt in routed.gates if len(gt.qubits) == 2)
        u_init = permute_wires(circuit_unitary(c),
                               [r.initial_mapping[q] for q in range(n)],
                               list(range(n)))
        p = permutation_operator(n, [r.initial_mapping[q] for q in range(n)],
                                 [r.final_mapping[q] for q in range(n)])
        ok = ok and phases_equal(circuit_unitary(routed), p @ u_init,
                                 tol=1e-8)
    elapsed = time.time() - t0
    report(capfd, 7, "100 routed circuits adjacent-only and permutation-"
           "equivalent to source", ok, elapsed)


def test_criterion_8_grape_numerics(capfd, rng):
    t0 = time.time()
    ok = True
    for nq in (1, 2):
        m = HamiltonianModel.build(nq)
        target = gate_unitary(Gate(GateName.H, (0,))) if nq == 1 else \
            gate_unitary(Gate(GateName.CNOT, (0, 1)))
        for _ in range(10):
            amps = rng.uniform(-0.015, 0.015, size=(len(m.channels), 6))
            p = ControlPulses(amps, m.dt)
            exact = gradient(p, m, target)
            fd = np.zeros_like(amps)
            eps = 1e-6
            for k in range(amps.shape[0]):
                for j in range(amps.shape[1]):
                    up = amps.copy(); up[k, j] += eps
                    dn = amps.copy(); dn[k, j] -= eps
                    fd[k, j] = (infidelity(evolve(ControlPulses(up, m.dt), m), target)
                                - infidelity(evolve(ControlPulses(dn, m.dt), m), target)) / (2 * eps)
            scale = max(np.max(np.abs(fd)), 1e-12)
            ok = ok and np.max(np.abs(exact - fd)) / scale <= 1e-4
            u = evolve(p, m)
            ok = ok and np.max(np.abs(u.conj().T @ u - np.eye(m.dim))) <= 1e-8

    m1 = HamiltonianModel.build(1)
    t_id, _ = min_time(np.eye(2, dtype=complex), m1)
    ok = ok and t_id == 0.0
    t_pi, _ = min_time(gate_unitary(Gate(GateName.RX, (0,), (math.pi,))), m1)
    t_half, _ = min_time(gate_unitary(Gate(GateName.RX, (0,), (math.pi / 2,))), m1)
    ok = ok and abs(t_pi - 2 * t_half) <= 4 * m1.dt + 1e-9
    elapsed = time.time() - t0
    report(capfd, 8, "gradient vs FD <= 1e-4, unitary evolution, min_time "
           f"identities (Rx(pi)={t_pi} ns, Rx(pi/2)={t_half} ns)", ok, elapsed)


def test_criterion_9_swap_synthesis_beats_decomposition(capfd, line_ocu):
    t0 = time.time()
    from pulsecc.gdg import AggregatedInstruction
    lat = line_ocu.latency
    t_cnot = lat(AggregatedInstruction([Gate(GateName.CNOT, (0, 1))]))
    t_swap = lat(AggregatedInstruction([Gate(GateName.SWAP, (0, 1))]))
    t_rz = lat(AggregatedInstruction([Gate(GateName.RZ, (0,), (5.67,))]))
    t_blk = lat(AggregatedInstruction([Gate(GateName.CNOT, (0, 1)),
                                       Gate(GateName.RZ, (1,), (5.67,)),
                                       Gate(GateName.CNOT, (0, 1))]))
    ok = t_swap < 3 * t_cnot and t_blk < 2 * t_cnot + t_rz
    elapsed = time.time() - t0
    report(capfd, 9, f"SWAP {t_swap} < 3xCNOT {3 * t_cnot}; block {t_blk} < "
           f"2xCNOT+Rz {2 * t_cnot + t_rz} ns", ok, elapsed)


def test_criterion_10_monotonic_aggregation(capfd, rng):
    t0 = time.time()
    price = table_price()
    ok = True
    for trial in range(100):
        topo = Topology(1, 4) if trial % 2 == 0 else Topology(2, 2)
        c = random_circuit(4, int(rng.integers(4, 16)), rng)
        g = build_gdg(c)
        g.set_durations(price)
        sched = list_schedule(g)
        mp = initial_mapping(build_interaction_graph(c), topo, seed=trial)
        routed = route_swaps(sched, g, mp, topo).gdg
        routed.set_durations(price)
        before, _ = routed.critical_path()
        aggregate_loop(routed, price)
        after, _ = routed.critical_path()
        ok = ok and after <= before + 1e-9
    # the toy instance admits exactly the final pair and the set that
    # gathers both 100 ns branches into the first 10 ns gate
    g, ids = toy_instance()
    merges = {frozenset(a.members) for a in enumerate_actions(g)}
    ok = ok and merges == toy_action_sets(ids)
    elapsed = time.time() - t0
    report(capfd, 10, "aggregation never raises critical path (100 routed "
           "GDGs); toy instance has exactly two monotonic actions", ok, elapsed)


def test_criterion_11_verification_closure(capfd, compiled_store):
    t0 = time.time()
    ok = len(compiled_store) >= 4
    for res in compiled_store:
        ok = ok and res.report is not None and res.report.passed
        ok = ok and all(c.fidelity >= 0.999 for c in res.report.checks)
    # fault injection: zeroed pulses must fail
    nid, ins, pulses, model = compiled_store[0].instructions[0]
    broken = ControlPulses(np.zeros_like(pulses.amplitudes), pulses.dt)
    ok = ok and verify_instruction(ins, broken, model) < 0.999
    elapsed = time.time() - t0
    report(capfd, 11, f"verification of every pulse passed on "
           f"{len(compiled_store)} compiled benchmarks; fault injection "
           "detected", ok, elapsed)
