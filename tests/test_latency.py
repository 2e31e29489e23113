import pytest

from pulsecc.gates import Gate, GateName
from pulsecc.gdg import AggregatedInstruction
from pulsecc.latency import default_table, table_price


def ins_of(*gates):
    return AggregatedInstruction(list(gates))


def test_default_table_worked_example_values():
    t = default_table()
    assert t["cnot"] == 47.1
    assert t["swap"] == 50.1
    assert t["h"] == 13.7
    assert t["rz"] == 9.8
    assert t["rx"] == 6.1


def test_table_mode_single_gates():
    price = table_price()
    assert price(ins_of(Gate(GateName.CNOT, (0, 1)))) == 47.1
    assert price(ins_of(Gate(GateName.RZ, (0,), (5.67,)))) == 9.8


def test_estimate_sums_members():
    price = table_price()
    ins = ins_of(Gate(GateName.CNOT, (0, 1)), Gate(GateName.RZ, (1,), (1.0,)),
                 Gate(GateName.CNOT, (0, 1)))
    assert price(ins) == pytest.approx(2 * 47.1 + 9.8)


def test_estimate_is_critical_path_of_members():
    # gates on disjoint qubits overlap; each starts when its qubits are free
    price = table_price()
    ins = ins_of(Gate(GateName.H, (0,)), Gate(GateName.RX, (1,), (1.0,)),
                 Gate(GateName.CNOT, (0, 1)), Gate(GateName.H, (2,)))
    assert price(ins) == pytest.approx(13.7 + 47.1)


def test_table_override():
    price = table_price({"cnot": 40.0})
    assert price(ins_of(Gate(GateName.CNOT, (0, 1)))) == 40.0
    assert price(ins_of(Gate(GateName.H, (0,)))) == 13.7


def test_empty_instruction_has_zero_duration():
    assert table_price()(ins_of()) == 0.0
