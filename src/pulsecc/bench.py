"""Benchmark circuit generators.

Trotterized-ansatz families used throughout the demos and tests:
QAOA maxcut on a path or triangle, transverse-field Ising chain steps, and a
UCCSD-style Pauli-string exponential ladder.
"""
from __future__ import annotations

import math

from .gates import Circuit, GateName

GAMMA, BETA = 5.67, 1.26          # QAOA cost and mixer angles
J_ANGLE, H_ANGLE = 1.9, 0.8       # Ising coupling and field angles
THETA = 0.45                      # UCCSD excitation angle


def _zz_block(c: Circuit, a: int, b: int, angle: float):
    c.add(GateName.CNOT, a, b)
    c.add(GateName.RZ, b, params=(angle,))
    c.add(GateName.CNOT, a, b)


def qaoa_circuit(n: int, edges, layers: int = 1, name: str = "qaoa") -> Circuit:
    """One-or-more QAOA layers: H wall, ZZ cost blocks per edge, Rx mixer."""
    c = Circuit(n, name=name)
    for q in range(n):
        c.add(GateName.H, q)
    for _ in range(layers):
        for a, b in edges:
            _zz_block(c, a, b, GAMMA)
        for q in range(n):
            c.add(GateName.RX, q, params=(BETA,))
    return c


def maxcut_line(n: int, layers: int = 1) -> Circuit:
    edges = [(i, i + 1) for i in range(n - 1)]
    return qaoa_circuit(n, edges, layers, name=f"maxcut-line-{n}")


def qaoa_triangle() -> Circuit:
    """3-qubit maxcut on a triangle, pre-routed for a line: the (0,2) edge is
    reached by swapping qubits 0 and 1 and reusing the (1,2) pair."""
    c = Circuit(3, name="qaoa-triangle")
    for q in range(3):
        c.add(GateName.H, q)
    _zz_block(c, 0, 1, GAMMA)
    _zz_block(c, 1, 2, GAMMA)
    c.add(GateName.SWAP, 0, 1)
    _zz_block(c, 1, 2, GAMMA)
    for q in range(3):
        c.add(GateName.RX, q, params=(BETA,))
    return c


def ising_chain(n: int, layers: int = 1) -> Circuit:
    """First-order Trotter step(s) of a transverse-field Ising chain."""
    c = Circuit(n, name=f"ising-chain-{n}")
    for _ in range(layers):
        for i in range(n - 1):
            _zz_block(c, i, i + 1, J_ANGLE)
        for q in range(n):
            c.add(GateName.RX, q, params=(H_ANGLE,))
    return c


def uccsd(n: int) -> Circuit:
    """UCCSD-style ansatz: basis changes around CNOT-ladder Rz exponentials.

    Two Pauli-string terms (X...Y and Y...X flavor) over all n qubits.
    """
    if n < 2:
        raise ValueError("uccsd needs at least 2 qubits")
    c = Circuit(n, name=f"uccsd-{n}")
    half_pi = math.pi / 2

    def term(y_qubit: int, angle: float):
        for q in range(n):
            if q == y_qubit:
                c.add(GateName.RX, q, params=(half_pi,))
            else:
                c.add(GateName.H, q)
        for i in range(n - 1):
            c.add(GateName.CNOT, i, i + 1)
        c.add(GateName.RZ, n - 1, params=(angle,))
        for i in reversed(range(n - 1)):
            c.add(GateName.CNOT, i, i + 1)
        for q in range(n):
            if q == y_qubit:
                c.add(GateName.RX, q, params=(-half_pi,))
            else:
                c.add(GateName.H, q)

    term(0, THETA)
    term(n - 1, -THETA)
    return c


_GENERATORS = {
    "maxcut-line": maxcut_line,
    "ising-chain": ising_chain,
    "uccsd": uccsd,
    "qaoa-triangle": qaoa_triangle,
}

BENCH_NAMES = tuple(_GENERATORS)


def make_bench(name: str, n: int | None = None, **kw) -> Circuit:
    if name not in _GENERATORS:
        raise ValueError(f"unknown benchmark {name!r}; choose from {BENCH_NAMES}")
    if name == "qaoa-triangle":
        if n not in (None, 3):
            raise ValueError(f"benchmark 'qaoa-triangle' has 3 qubits, not {n}")
        return qaoa_triangle(**kw)
    if n is None:
        raise ValueError(f"benchmark {name!r} requires a qubit count")
    return _GENERATORS[name](n, **kw)
