"""Built-in unitary verification of aggregated instructions and their pulses."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .gdg import AggregatedInstruction
from .optctrl import (ControlPulses, HamiltonianModel, OptimizerConfig, evolve,
                      infidelity)


class VerificationError(RuntimeError):
    pass


@dataclass
class InstructionCheck:
    node_id: int
    label: str
    fidelity: float
    duration_ns: float
    passed: bool


@dataclass
class VerificationReport:
    checks: list[InstructionCheck] = field(default_factory=list)
    threshold: float = OptimizerConfig.fidelity_threshold

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({
            "passed": self.passed,
            "threshold": self.threshold,
            "instructions": [
                {"node": c.node_id, "label": c.label, "fidelity": c.fidelity,
                 "duration_ns": c.duration_ns, "passed": c.passed}
                for c in self.checks
            ],
        }, indent=2)

    def summary(self) -> str:
        lines = [f"verification: {'PASS' if self.passed else 'FAIL'} "
                 f"(threshold {self.threshold})"]
        for c in self.checks:
            mark = "ok " if c.passed else "BAD"
            lines.append(f"  [{mark}] node {c.node_id}: fidelity {c.fidelity:.6f} "
                         f"({c.duration_ns:.1f} ns) {c.label}")
        return "\n".join(lines)


def verify_instruction(ins: AggregatedInstruction, p: ControlPulses,
                       m: HamiltonianModel) -> float:
    """Fidelity of the pulse-evolved unitary against the instruction target."""
    if p is None:
        raise VerificationError(f"no pulses recorded for {ins.label()}")
    u = evolve(p, m)
    return 1.0 - infidelity(u, ins.target_unitary)


def sample_verify(instructions,
                  threshold: float = OptimizerConfig.fidelity_threshold
                  ) -> VerificationReport:
    """Verify every emitted instruction against its pulses.

    instructions: list of (node_id, AggregatedInstruction, ControlPulses,
    HamiltonianModel) tuples from the compile output.
    """
    if not instructions:
        raise VerificationError("compiled output contains no instructions")
    report = VerificationReport(threshold=threshold)
    for node_id, ins, pulses, model in instructions:
        fid = verify_instruction(ins, pulses, model)
        report.checks.append(InstructionCheck(
            node_id, ins.label(), fid, pulses.duration_ns, fid >= threshold))
    return report
