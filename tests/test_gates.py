import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pulsecc.gates import (_ARITY, _NUM_PARAMS, DENSE_LIMIT, SIGMA_X, SIGMA_Y,
                           SIGMA_Z, Circuit, Gate, GateError, GateName,
                           circuit_unitary, embed, embed_operator,
                           gate_unitary, gates_unitary, permute_wires,
                           phases_equal)
from pulsecc.optctrl import _XY, TWO_PI, HamiltonianModel

from conftest import random_circuit


def test_cnot_convention():
    u = gate_unitary(Gate(GateName.CNOT, (0, 1)))
    # |10> -> |11>, control is the first (most significant) operand
    state = np.zeros(4); state[0b10] = 1
    out = u @ state
    assert abs(out[0b11] - 1) < 1e-12


def test_rotation_convention():
    # Rz(2*pi) = -I under R(theta) = exp(-i theta sigma / 2)
    u = gate_unitary(Gate(GateName.RZ, (0,), (2 * math.pi,)))
    assert np.allclose(u, -np.eye(2))
    # Rx(pi) = -i X
    u = gate_unitary(Gate(GateName.RX, (0,), (math.pi,)))
    assert np.allclose(u, -1j * gate_unitary(Gate(GateName.X, (0,))))


def test_all_library_gates_unitary():
    rng = np.random.default_rng(3)
    for name in GateName:
        if name is GateName.CUSTOM:
            continue
        arity = 2 if name in (GateName.CNOT, GateName.CPHASE, GateName.SWAP,
                              GateName.ISWAP, GateName.SQRTSWAP, GateName.XX) else 1
        params = ((float(rng.uniform(0, 6)),)
                  if name in (GateName.RX, GateName.RY, GateName.RZ,
                              GateName.CPHASE, GateName.XX) else ())
        u = gate_unitary(Gate(name, tuple(range(arity)), params))
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-10, name


def test_gate_validation():
    with pytest.raises(GateError):
        Gate(GateName.CNOT, (1, 1))
    with pytest.raises(GateError):
        Gate(GateName.H, (0, 1))
    with pytest.raises(GateError):
        Gate(GateName.RX, (0,))          # missing parameter
    with pytest.raises(GateError):
        Gate(GateName.CUSTOM, (0,))      # missing matrix
    with pytest.raises(GateError):
        Gate(GateName.CUSTOM, (0, 1), (), np.eye(2))  # wrong shape
    for angle in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(GateError, match="non-finite"):
            Gate(GateName.RX, (0,), (angle,))
        with pytest.raises(GateError, match="non-finite"):
            Gate(GateName.CPHASE, (0, 1), (angle,))


def test_embed_matches_kron_for_msb_gate():
    g = Gate(GateName.H, (0,))
    full = embed(g, [0, 1])
    assert np.allclose(full, np.kron(gate_unitary(g), np.eye(2)))
    g = Gate(GateName.H, (1,))
    full = embed(g, [0, 1])
    assert np.allclose(full, np.kron(np.eye(2), gate_unitary(g)))


def test_embed_reversed_operands():
    # cnot q1 q0 equals SWAP . cnot q0 q1 . SWAP on context [0, 1]
    swap = gate_unitary(Gate(GateName.SWAP, (0, 1)))
    fwd = embed(Gate(GateName.CNOT, (0, 1)), [0, 1])
    rev = embed(Gate(GateName.CNOT, (1, 0)), [0, 1])
    assert np.allclose(rev, swap @ fwd @ swap)


def kron_embed(op, wires, context):
    """Reference embedding: np.kron with the identity on the other wires,
    then the wires moved into context order."""
    ctx = list(context)
    rest = [q for q in ctx if q not in wires]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    return permute_wires(full, list(wires) + rest, ctx)


def same_bytes(a, b) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def test_embed_operator_places_any_operator_on_its_wires(rng):
    with pytest.raises(GateError, match="not in context"):
        embed_operator(np.eye(4), [3, 0], [0, 1, 2])
    # every named gate, and non-unitary operators as the model's channels are
    ops = [gate_unitary(Gate(name, tuple(range(k)),
                             tuple(rng.uniform(0, 2 * np.pi, _NUM_PARAMS.get(name, 0)))))
           for name, k in _ARITY.items()]
    ops += [rng.normal(size=(2 ** k, 2 ** k)) + 1j * rng.normal(size=(2 ** k, 2 ** k))
            for k in (1, 2, 3)]
    ops.append(np.diag([1.0, -1.0]))  # a real array, as CUSTOM gates may carry
    checked = 0
    for op in ops:
        k = op.shape[0].bit_length() - 1
        for m in range(k, 6):
            ctx = [int(q) for q in rng.permutation(6)[:m]]
            for wires in itertools.permutations(ctx, k):
                assert same_bytes(embed_operator(op, wires, ctx),
                                  kron_embed(op, wires, ctx))
                checked += 1
    assert checked > 500
    # the model's channel operators, and their stack, byte for byte
    sigmas = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
    for q in range(1, 5):
        m = HamiltonianModel.build(q)
        want = [kron_embed(_XY if ch.name.startswith("xy") else sigmas[ch.name[1]],
                           ch.qubits, range(q)) for ch in m.channels]
        assert all(same_bytes(ch.op, w) for ch, w in zip(m.channels, want))
        assert same_bytes(m.ops, np.array([TWO_PI * w for w in want]))


def test_gates_unitary_stops_at_the_dense_limit():
    wires = range(DENSE_LIMIT + 1)
    with pytest.raises(GateError, match="dense-matrix limit"):
        gates_unitary([Gate(GateName.H, (0,))], wires)
    with pytest.raises(GateError, match="dense-matrix limit"):
        circuit_unitary(Circuit(DENSE_LIMIT + 1))


def test_permute_wires_roundtrip(rng):
    u = circuit_unitary(random_circuit(3, 8, rng))
    v = permute_wires(u, [0, 1, 2], [2, 0, 1])
    w = permute_wires(v, [2, 0, 1], [0, 1, 2])
    assert np.allclose(u, w)


def test_circuit_unitary_program_order():
    c = Circuit(1)
    c.add(GateName.H, 0)
    c.add(GateName.Z, 0)
    u = circuit_unitary(c)
    h = gate_unitary(Gate(GateName.H, (0,)))
    z = gate_unitary(Gate(GateName.Z, (0,)))
    assert np.allclose(u, z @ h)   # first gate applied first


@given(st.floats(0, 2 * math.pi))
def test_phases_equal_tolerates_global_phase(phi):
    rng = np.random.default_rng(11)
    c = random_circuit(2, 6, rng)
    u = circuit_unitary(c)
    assert phases_equal(u, np.exp(1j * phi) * u)


def test_phases_equal_rejects_different_unitaries():
    x = gate_unitary(Gate(GateName.X, (0,)))
    z = gate_unitary(Gate(GateName.Z, (0,)))
    assert not phases_equal(x, z)


def test_circuit_needs_a_qubit():
    for n in (0, -1):
        with pytest.raises(GateError, match="at least 1 qubit"):
            Circuit(n)


def test_qubit_range_checked():
    c = Circuit(2)
    with pytest.raises(GateError):
        c.add(GateName.H, 2)
