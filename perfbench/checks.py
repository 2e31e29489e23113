"""Output checks made from outside the compiler.

Every emitted pulse is re-simulated with verify.verify_instruction, not only
the sample the pipeline checks.  For up to EQUIV_MAX_SITES sites the final
schedule's instruction targets, applied in start order to seeded random
states, must match the source circuit followed by the recorded qubit
permutation, up to global phase.  State vectors keep the check at 2^sites
memory instead of 4^sites.
"""
from __future__ import annotations

import numpy as np

EQUIV_MAX_SITES = 12
EQUIV_STATES = 2
EQUIV_TOL = 1e-8


def pulse_fidelities(pc, result) -> list[float]:
    return [pc.verify.verify_instruction(ins, pulses, model)
            for _nid, ins, pulses, model in result.instructions]


def _apply(state: np.ndarray, u: np.ndarray, axes) -> np.ndarray:
    """Apply u to the listed axes of a (2,)*n state tensor; axes[0] is the
    most significant wire of u, as in gates.embed."""
    k = len(axes)
    front = np.moveaxis(state, axes, range(k))
    out = (u @ front.reshape(2 ** k, -1)).reshape(front.shape)
    return np.moveaxis(out, range(k), axes)


def _place(psi: np.ndarray, n: int, sites: int, where: dict[int, int]) -> np.ndarray:
    """Tensor a logical n-qubit state into a sites-qubit register with logical
    qubit q on site where[q] and every other site in |0>."""
    full = np.zeros((2,) * sites, dtype=complex)
    placed = sorted(where[q] for q in range(n))
    index = tuple(slice(None) if s in placed else 0 for s in range(sites))
    # the indexed view keeps the placed sites' axes in site order
    full[index] = np.moveaxis(psi.reshape((2,) * n), range(n),
                              [placed.index(where[q]) for q in range(n)])
    return full


def equivalence_fidelity(pc, result, seed: int) -> float:
    """Smallest |<expected|compiled>|^2 over EQUIV_STATES random states."""
    src = result.circuit
    n, sites = src.num_qubits, result.gdg.num_qubits
    rng = np.random.default_rng(seed)
    worst = 1.0
    for _ in range(EQUIV_STATES):
        psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        psi /= np.linalg.norm(psi)
        expected = psi.reshape((2,) * n)
        for g in src.gates:
            expected = _apply(expected, pc.gate_unitary(g), list(g.qubits))
        expected = _place(expected.reshape(-1), n, sites,
                          result.routing.final_mapping)
        got = _place(psi, n, sites, result.routing.initial_mapping)
        for nid, _start in result.schedule.entries:
            ins = result.gdg.nodes[nid].instruction
            got = _apply(got, ins.target_unitary, ins.context)
        overlap = abs(np.vdot(expected.reshape(-1), got.reshape(-1))) ** 2
        worst = min(worst, float(overlap))
    return worst


def mapping_valid(mapping: dict[int, int], n: int, sites: int) -> bool:
    placed = [mapping.get(q) for q in range(n)]
    return (None not in placed and len(set(placed)) == n
            and all(0 <= s < sites for s in placed))
