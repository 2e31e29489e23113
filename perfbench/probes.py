"""Single-layer probes reported only by traced runs.

grad_ms: one public optctrl.gradient() call on seeded random pulses over a
line-coupled HamiltonianModel, the cost GRAPE pays per iteration.
scale_s: one aggregate_loop call (max_width 3, member-gate table pricing) on
a routed grid-frontend GDG, which shows how aggregation grows with size.
"""
from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

GRAD_QUBITS = (1, 2, 3, 4)
GRAD_STEPS = 64
GRAD_REPEATS = {1: 9, 2: 9, 3: 7, 4: 3}
SCALE_MAX_WIDTH = 3


def _random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def grad_ms(pc, seed: int) -> dict[int, float]:
    """Median milliseconds of one gradient evaluation per qubit count."""
    rng = np.random.default_rng([seed, 2])
    out = {}
    for q in GRAD_QUBITS:
        model = pc.HamiltonianModel.build(q, [(i, i + 1) for i in range(q - 1)])
        amps = rng.uniform(-0.5, 0.5, size=(len(model.channels), GRAD_STEPS))
        pulses = pc.ControlPulses(amps * model.bounds[:, None], model.dt)
        target = _random_unitary(model.dim, rng)
        times = []
        for _ in range(GRAD_REPEATS[q]):
            t0 = time.perf_counter()
            pc.optctrl.gradient(pulses, model, target)
            times.append(time.perf_counter() - t0)
        out[q] = 1e3 * statistics.median(times)
    return out


def scale_s(pc, circuit, opts) -> float:
    """Seconds of one aggregate_loop call on the circuit's routed GDG."""
    opts = dataclasses.replace(opts, compare_baseline=False)
    routed = pc.compile_circuit(circuit, opts).gdg
    table = pc.default_table()

    def price(ins) -> float:
        return sum(table[g.name.value] for g in ins.gates)

    t0 = time.perf_counter()
    pc.aggregator.aggregate_loop(routed, price, max_width=SCALE_MAX_WIDTH)
    return time.perf_counter() - t0
