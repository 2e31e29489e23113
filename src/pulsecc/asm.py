"""Line-oriented quantum assembly frontend.

Dialect (case-insensitive):
    qubits N;
    h q0; rx(1.5708) q2; cnot q0 q1; swap q1 q2; rz(5.67) q1;
with '#' comments.  Statements are separated by ';'.  This is a deliberate
minimal dialect, not full OpenQASM.
"""
from __future__ import annotations

import re

from .gates import Circuit, Gate, GateName

_STMT_RE = re.compile(
    r"^(?P<name>[a-z]+)\s*(?:\(\s*(?P<params>[^)]*)\s*\))?"
    r"(?P<qubits>(?:\s+q\d+)+)$")

_GATE_NAMES = {g.value: g for g in GateName if g is not GateName.CUSTOM}


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


def _statements(text: str):
    """Yield (stmt, line, col) with comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while True:
            idx = line.find(";", pos)
            if idx < 0:
                tail = line[pos:].strip()
                if tail:
                    raise ParseError("missing ';'", lineno, pos + 1)
                break
            stmt = line[pos:idx].strip()
            if stmt:
                col = line.index(stmt[0], pos) + 1
                yield stmt, lineno, col
            pos = idx + 1


def parse_asm(text: str) -> Circuit:
    """Parse the assembly dialect into a Circuit, preserving statement order."""
    circuit = None
    for stmt, line, col in _statements(text):
        low = stmt.lower()
        if circuit is None:
            m = re.match(r"^qubits\s+(\d+)$", low)
            if not m:
                raise ParseError("expected 'qubits N;' header", line, col)
            n = int(m.group(1))
            if n <= 0:
                raise ParseError("qubit count must be positive", line, col)
            circuit = Circuit(n)
            continue
        m = _STMT_RE.match(low)
        if not m:
            raise ParseError(f"cannot parse statement {stmt!r}", line, col)
        name = m.group("name")
        if name not in _GATE_NAMES:
            raise ParseError(f"unknown gate {name!r}", line, col)
        params = ()
        if m.group("params") is not None:
            try:
                params = tuple(float(p) for p in m.group("params").split(",") if p.strip())
            except ValueError:
                raise ParseError(f"bad parameter list in {stmt!r}", line, col)
        qubits = tuple(int(q[1:]) for q in m.group("qubits").split())
        try:
            gate = Gate(_GATE_NAMES[name], qubits, params)
        except ValueError as e:
            raise ParseError(str(e), line, col)
        for q in qubits:
            if q >= circuit.num_qubits:
                raise ParseError(
                    f"qubit index q{q} out of range (declared {circuit.num_qubits})",
                    line, col)
        circuit.append(gate)
    if circuit is None:
        raise ParseError("empty program: missing 'qubits N;' header", 1, 1)
    return circuit


def gate_asm(g: Gate) -> str:
    """One gate's statement, every parameter written exactly (repr(float))."""
    if g.name is GateName.CUSTOM:
        raise ValueError("CUSTOM gates have no assembly form")
    p = f"({', '.join(repr(float(x)) for x in g.params)})" if g.params else ""
    return f"{g.name.value}{p} {' '.join(f'q{q}' for q in g.qubits)};"


def emit_asm(c: Circuit) -> str:
    """Inverse of parse_asm for circuits without CUSTOM gates."""
    return "\n".join([f"qubits {c.num_qubits};", *map(gate_asm, c.gates)]) + "\n"
