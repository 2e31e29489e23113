import numpy as np
import pytest

from pulsecc.asm import ParseError, emit_asm, parse_asm
from pulsecc.gates import GateName, circuit_unitary, phases_equal

from conftest import random_circuit


def test_parse_basic():
    c = parse_asm("""
        qubits 3;
        h q0; h q1;   # comment
        cnot q0 q1;
        rz(5.67) q1;
        swap q1 q2;
    """)
    assert c.num_qubits == 3
    assert [g.name for g in c.gates] == [GateName.H, GateName.H, GateName.CNOT,
                                         GateName.RZ, GateName.SWAP]
    assert c.gates[3].params == (5.67,)
    assert c.gates[4].qubits == (1, 2)


def test_parse_case_insensitive():
    c = parse_asm("QUBITS 2; CNOT Q0 Q1;")
    assert c.gates[0].name is GateName.CNOT


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_asm("qubits 2;\nfrobnicate q0;")
    assert e.value.line == 2

    with pytest.raises(ParseError):
        parse_asm("h q0;")                  # missing header
    with pytest.raises(ParseError):
        parse_asm("qubits 0;")
    with pytest.raises(ParseError):
        parse_asm("qubits 2; h q5;")        # out of range
    with pytest.raises(ParseError):
        parse_asm("qubits 2; rx q0;")       # missing parameter
    with pytest.raises(ParseError):
        parse_asm("qubits 2; h q0")         # missing semicolon
    with pytest.raises(ParseError):
        parse_asm("")


def test_malformed_statement_and_parameter_list_rejected():
    with pytest.raises(ParseError, match="cannot parse statement 'h q0 q'"):
        parse_asm("qubits 2; h q0 q;")
    with pytest.raises(ParseError, match=r"bad parameter list in 'rz\(1\.0\.2\) q0'") as e:
        parse_asm("qubits 2;\nrz(1.0.2) q0;")
    assert (e.value.line, e.value.col) == (2, 1)


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_non_finite_angle_is_parse_error(angle):
    with pytest.raises(ParseError, match="non-finite") as e:
        parse_asm(f"qubits 2;\nh q1;  rz({angle}) q0;")
    assert (e.value.line, e.value.col) == (2, 8)


def test_roundtrip_preserves_semantics(rng):
    for _ in range(10):
        c = random_circuit(3, 12, rng)
        again = parse_asm(emit_asm(c))
        assert phases_equal(circuit_unitary(c), circuit_unitary(again))


def test_roundtrip_exact_gate_list(rng):
    c = random_circuit(4, 15, rng)
    # numpy scalars are written as plain floats
    c.add(GateName.RZ, 0, params=(np.float64(0.5),))
    c.add(GateName.RX, 1, params=(np.float32(0.1),))
    again = parse_asm(emit_asm(c))
    assert [(g.name, g.qubits, g.params) for g in again.gates] == \
           [(g.name, g.qubits, g.params) for g in c.gates]
