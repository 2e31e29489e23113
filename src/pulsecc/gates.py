"""Gate library and circuit data model.

Conventions used throughout the package:
    - Qubit 0 is the most-significant bit in state indexing.
    - Rotations follow R_a(theta) = exp(-i * theta * sigma_a / 2), so
      Rz(2*pi) = -I and downstream comparisons must tolerate global phase.
    - CNOT takes (control, target): |10> -> |11>, |11> -> |10>.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class GateName(Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CNOT = "cnot"
    CPHASE = "cphase"
    SWAP = "swap"
    ISWAP = "iswap"
    SQRTSWAP = "sqrtswap"
    XX = "xx"
    ID = "id"
    CUSTOM = "custom"


# arity by name; CUSTOM is variable
_ARITY = {
    GateName.H: 1, GateName.X: 1, GateName.Y: 1, GateName.Z: 1,
    GateName.RX: 1, GateName.RY: 1, GateName.RZ: 1, GateName.ID: 1,
    GateName.CNOT: 2, GateName.CPHASE: 2, GateName.SWAP: 2,
    GateName.ISWAP: 2, GateName.SQRTSWAP: 2, GateName.XX: 2,
}

_NUM_PARAMS = {
    GateName.RX: 1, GateName.RY: 1, GateName.RZ: 1,
    GateName.CPHASE: 1, GateName.XX: 1,
}

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

DENSE_LIMIT = 12  # widest wire context, in qubits, given a dense matrix


class GateError(ValueError):
    """Invalid gate construction or use."""


@dataclass(frozen=True)
class Gate:
    name: GateName
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    custom_matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        self._check_operands()
        if not all(math.isfinite(p) for p in self.params):
            raise GateError(f"{self.name.value}: non-finite parameter in {self.params}")
        if self.name is GateName.CUSTOM:
            if self.custom_matrix is None:
                raise GateError("CUSTOM gate requires an explicit matrix")
            dim = 2 ** len(self.qubits)
            if self.custom_matrix.shape != (dim, dim):
                raise GateError(
                    f"CUSTOM matrix shape {self.custom_matrix.shape} does not "
                    f"match {len(self.qubits)} qubits")
        else:
            if self.custom_matrix is not None:
                raise GateError("only CUSTOM gates carry an explicit matrix")
            if len(self.qubits) != _ARITY[self.name]:
                raise GateError(
                    f"{self.name.value} expects {_ARITY[self.name]} operands, "
                    f"got {len(self.qubits)}")
            if len(self.params) != _NUM_PARAMS.get(self.name, 0):
                raise GateError(
                    f"{self.name.value} expects {_NUM_PARAMS.get(self.name, 0)} "
                    f"parameter(s), got {len(self.params)}")

    def _check_operands(self):
        if len(set(self.qubits)) != len(self.qubits):
            raise GateError(f"{self.name.value}: duplicate qubit operands {self.qubits}")

    def remap(self, perm: dict[int, int]) -> "Gate":
        """Return the same gate with qubit indices rewritten through perm.

        Only the operands change, so only their duplicate check runs again:
        the arity, parameter and matrix checks passed when self was built."""
        g = object.__new__(Gate)
        g.__dict__.update(self.__dict__,
                          qubits=tuple(perm[q] for q in self.qubits))
        g._check_operands()
        return g

    def __repr__(self):
        args = f"({', '.join(f'{p:g}' for p in self.params)})" if self.params else ""
        return f"{self.name.value}{args} {' '.join(f'q{q}' for q in self.qubits)}"


def gate_unitary(g: Gate) -> np.ndarray:
    """Dense matrix of g on its own wires (first operand = most-significant bit)."""
    n = g.name
    if n is GateName.CUSTOM:
        return np.array(g.custom_matrix, dtype=complex)
    if n is GateName.ID:
        return np.eye(2, dtype=complex)
    if n is GateName.H:
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if n is GateName.X:
        return SIGMA_X.copy()
    if n is GateName.Y:
        return SIGMA_Y.copy()
    if n is GateName.Z:
        return SIGMA_Z.copy()
    if n in (GateName.RX, GateName.RY, GateName.RZ):
        axis = {GateName.RX: SIGMA_X, GateName.RY: SIGMA_Y, GateName.RZ: SIGMA_Z}[n]
        th = g.params[0]
        return math.cos(th / 2) * np.eye(2) - 1j * math.sin(th / 2) * axis
    if n is GateName.CNOT:
        return np.array([[1, 0, 0, 0],
                         [0, 1, 0, 0],
                         [0, 0, 0, 1],
                         [0, 0, 1, 0]], dtype=complex)
    if n is GateName.CPHASE:
        return np.diag([1, 1, 1, cmath.exp(1j * g.params[0])]).astype(complex)
    if n is GateName.SWAP:
        return np.array([[1, 0, 0, 0],
                         [0, 0, 1, 0],
                         [0, 1, 0, 0],
                         [0, 0, 0, 1]], dtype=complex)
    if n is GateName.ISWAP:
        return np.array([[1, 0, 0, 0],
                         [0, 0, 1j, 0],
                         [0, 1j, 0, 0],
                         [0, 0, 0, 1]], dtype=complex)
    if n is GateName.SQRTSWAP:
        return np.array([[1, 0, 0, 0],
                         [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
                         [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
                         [0, 0, 0, 1]], dtype=complex)
    if n is GateName.XX:
        th = g.params[0]
        xx = np.kron(SIGMA_X, SIGMA_X)
        return math.cos(th / 2) * np.eye(4) - 1j * math.sin(th / 2) * xx
    raise GateError(f"no matrix for {n}")


def permute_wires(u: np.ndarray, src_order: list[int], dst_order: list[int]) -> np.ndarray:
    """Reorder the wires of a 2^k x 2^k matrix from src_order to dst_order."""
    k = len(src_order)
    assert set(src_order) == set(dst_order) and u.shape == (2 ** k, 2 ** k)
    t = u.reshape((2,) * (2 * k))
    perm = [src_order.index(q) for q in dst_order]
    t = t.transpose(perm + [k + p for p in perm])
    return np.ascontiguousarray(t.reshape(2 ** k, 2 ** k))


def embed_operator(op: np.ndarray, wires, context) -> np.ndarray:
    """Tensor an operator on wires with identity over the remaining context
    wires.  The output wire ordering matches context (first entry = MSB)."""
    ctx = list(context)
    for q in wires:
        if q not in ctx:
            raise GateError(f"operand q{q} not in context {ctx}")
    rest = [q for q in ctx if q not in wires]
    d, r = op.shape[0], 2 ** len(rest)
    # np.kron(op, I_r) as one broadcast multiply: [i, k, j, l] = op[i, j] I[k, l]
    full = (op[:, None, :, None]
            * np.eye(r, dtype=complex)[None, :, None, :]).reshape(d * r, d * r)
    return permute_wires(full, list(wires) + rest, ctx)


def embed(g: Gate, qubit_context) -> np.ndarray:
    """g's unitary tensored with identity over the remaining context wires."""
    return embed_operator(gate_unitary(g), g.qubits, qubit_context)


@dataclass
class Circuit:
    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    name: str = ""

    def __post_init__(self):
        if self.num_qubits < 1:
            raise GateError(f"a circuit needs at least 1 qubit, "
                            f"not {self.num_qubits}")
        for g in self.gates:
            self._check(g)

    def _check(self, g: Gate):
        for q in g.qubits:
            if not 0 <= q < self.num_qubits:
                raise GateError(f"gate {g!r}: qubit index out of range "
                                f"(circuit has {self.num_qubits} qubits)")

    def append(self, g: Gate):
        self._check(g)
        self.gates.append(g)

    def add(self, name: GateName, *qubits: int, params: tuple[float, ...] = (),
            matrix: np.ndarray | None = None):
        self.append(Gate(name, tuple(qubits), tuple(params), matrix))

    def __len__(self):
        return len(self.gates)


def gates_unitary(gates: list[Gate], context) -> np.ndarray:
    """Product of the gates embedded on context, first gate applied first."""
    ctx = list(context)
    if len(ctx) > DENSE_LIMIT:
        raise GateError(f"{len(ctx)} qubits exceeds dense-matrix limit {DENSE_LIMIT}")
    u = np.eye(2 ** len(ctx), dtype=complex)
    for g in gates:
        u = embed(g, ctx) @ u
    return u


def circuit_unitary(c: Circuit) -> np.ndarray:
    """gates_unitary of the whole circuit on wires 0 .. num_qubits - 1."""
    return gates_unitary(c.gates, range(c.num_qubits))


def phases_equal(u: np.ndarray, v: np.ndarray, tol: float = 1e-8) -> bool:
    """True iff u = e^{i phi} v for some global phase phi."""
    if u.shape != v.shape:
        return False
    d = u.shape[0]
    tr = np.trace(v.conj().T @ u)
    if abs(tr) < 1e-12:
        # orthogonal in trace inner product: cannot differ only by phase
        # unless both are (near) zero, which unitaries are not
        return bool(np.max(np.abs(u - v)) <= tol)
    phase = tr / abs(tr)
    return bool(np.max(np.abs(u - phase * v)) <= tol)
