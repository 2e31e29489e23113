import json

import numpy as np
import pytest

from pulsecc.gates import Gate, GateName
from pulsecc.gdg import AggregatedInstruction
from pulsecc.optctrl import ControlPulses, OptimalControlUnit
from pulsecc.verify import (VerificationError, sample_verify,
                            verify_instruction)


@pytest.fixture(scope="module")
def synthesized():
    ocu = OptimalControlUnit()
    out = []
    for i, gates in enumerate([
        [Gate(GateName.H, (0,))],
        [Gate(GateName.RZ, (0,), (5.67,))],
        [Gate(GateName.RX, (1,), (1.26,))],
    ]):
        ins = AggregatedInstruction(gates)
        _, res, model = ocu.synthesize(ins)
        out.append((i + 1, ins, res.pulses, model))
    return out


def test_verify_instruction_passes_on_real_pulses(synthesized):
    for _, ins, pulses, model in synthesized:
        assert verify_instruction(ins, pulses, model) >= 0.999


def test_fault_injected_pulses_fail(synthesized):
    _, ins, pulses, model = synthesized[0]
    broken = ControlPulses(np.zeros_like(pulses.amplitudes), pulses.dt)
    assert verify_instruction(ins, broken, model) < 0.999


def test_missing_pulses_rejected(synthesized):
    _, ins, _, model = synthesized[0]
    with pytest.raises(VerificationError, match="no pulses recorded for h q0"):
        verify_instruction(ins, None, model)


def test_sample_verify_report(synthesized):
    report = sample_verify(synthesized)
    assert report.passed
    assert len(report.checks) == len(synthesized)
    doc = json.loads(report.to_json())
    assert doc["passed"] is True
    assert len(doc["instructions"]) == len(synthesized)
    assert "PASS" in report.summary()


def test_sample_verify_detects_fault(synthesized):
    nid, ins, pulses, model = synthesized[1]
    broken = list(synthesized)
    broken[1] = (nid, ins,
                 ControlPulses(np.zeros_like(pulses.amplitudes), pulses.dt),
                 model)
    report = sample_verify(broken)
    assert not report.passed
    assert "FAIL" in report.summary()


def test_sample_verify_empty_rejected():
    with pytest.raises(VerificationError):
        sample_verify([])
