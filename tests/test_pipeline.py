import json

import numpy as np
import pytest

from pulsecc import cli
from pulsecc.bench import ising_chain, make_bench, maxcut_line, qaoa_triangle, uccsd
from pulsecc.gates import Circuit, Gate, GateName, circuit_unitary, phases_equal
from pulsecc.gdg import AggregatedInstruction
from pulsecc.optctrl import OptimalControlUnit
from pulsecc.pipeline import (CompileOptions, compile_circuit, write_artifacts)
from pulsecc.mapper import Topology


def test_bench_generators():
    assert len(qaoa_triangle().gates) == 16
    assert maxcut_line(4).num_qubits == 4
    assert ising_chain(5).num_qubits == 5
    assert uccsd(4).num_qubits == 4
    with pytest.raises(ValueError):
        make_bench("nope", 3)
    with pytest.raises(ValueError):
        make_bench("uccsd")  # missing qubit count


def test_uccsd_structure():
    c = uccsd(4)
    # two terms, each: 4 basis gates + 3 CNOTs + rz + 3 CNOTs + 4 basis gates
    assert len(c.gates) == 2 * (4 + 3 + 1 + 3 + 4)


def test_table_mode_isa_compile():
    res = compile_circuit(qaoa_triangle(),
                          CompileOptions(strategy="isa", latency_mode="table"))
    m = res.manifest
    assert m["strategy"] == "isa"
    assert m["stages"]["flattened"]["nodes"] == 16
    assert m["verification_passed"] is None       # no pulses in table mode
    assert m["makespan_ns"] == pytest.approx(381.9, abs=1e-9)
    assert m["swap_count"] == 0


def test_table_mode_cls_reduces_depth():
    isa = compile_circuit(qaoa_triangle(),
                          CompileOptions(strategy="isa", latency_mode="table",
                                         compare_baseline=False))
    cls = compile_circuit(qaoa_triangle(),
                          CompileOptions(strategy="cls", latency_mode="table",
                                         compare_baseline=False))
    assert "commutativity_detection" in cls.manifest["stages"]
    assert cls.makespan_ns <= isa.makespan_ns


def test_agg_requires_oracle():
    from pulsecc.pipeline import PipelineError
    with pytest.raises(PipelineError):
        compile_circuit(qaoa_triangle(),
                        CompileOptions(strategy="agg", latency_mode="table"))


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        CompileOptions(strategy="fastest")


def test_unknown_latency_mode_rejected():
    with pytest.raises(ValueError, match="latency mode"):
        CompileOptions(strategy="cls", latency_mode="orcale")


@pytest.mark.parametrize("flag, value", [("--fidelity", "1.5"), ("--fidelity", "0"),
                                         ("--dt", "0"), ("--mu-max", "-1"),
                                         ("--mu-max", "0"), ("--max-iters", "0")])
def test_invalid_pulse_options_rejected(flag, value):
    field = flag[2:].replace("-", "_")
    with pytest.raises(ValueError, match=field):
        CompileOptions(**{field: float(value)})
    rc = cli.main(["bench", "maxcut-line", "--n", "2", "--strategy", "isa",
                   flag, value])
    assert rc == cli.EXIT_PARSE


def test_table_override_reaches_baseline():
    override = {"cnot": 40.0, "h": 20.0}
    cls = compile_circuit(qaoa_triangle(), CompileOptions(
        strategy="cls", latency_mode="table", table_override=override))
    isa = compile_circuit(qaoa_triangle(), CompileOptions(
        strategy="isa", latency_mode="table", table_override=override))
    assert cls.manifest["baseline_makespan_ns"] == isa.makespan_ns
    assert isa.makespan_ns != compile_circuit(qaoa_triangle(), CompileOptions(
        strategy="isa", latency_mode="table")).makespan_ns


def test_oracle_compile_small_end_to_end(tmp_path):
    res = compile_circuit(ising_chain(2),
                          CompileOptions(strategy="cls+agg", max_width=2))
    m = res.manifest
    assert m["verification_passed"] is True
    assert m["speedup"] >= 1.0
    assert 0 < m["makespan_ns"] <= m["baseline_makespan_ns"]
    # compiled instructions preserve circuit semantics modulo the reported
    # placement and final permutation
    from pulsecc.gates import permute_wires
    from pulsecc.mapper import permutation_operator
    n = res.gdg.num_qubits
    init = res.routing.initial_mapping
    fin = res.routing.final_mapping
    u_src = circuit_unitary(ising_chain(2))
    u_init = permute_wires(u_src, [init[q] for q in range(2)], list(range(n)))
    p = permutation_operator(n, [init[q] for q in range(2)],
                             [fin[q] for q in range(2)])
    assert phases_equal(circuit_unitary(res.gdg.flatten()), p @ u_init)
    write_artifacts(res, tmp_path)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["makespan_ns"] == m["makespan_ns"]
    assert (tmp_path / "schedule.json").exists()
    assert (tmp_path / "verification.json").exists()
    pulse_files = list((tmp_path / "pulses").glob("instr_*.json"))
    assert len(pulse_files) == len(m["instructions"])


class SlowMergeOCU(OptimalControlUnit):
    """Prices every merged instruction 10 ns above the sum of its parts and
    refuses to synthesize one, so no GRAPE run ever sees a merge."""

    def latency(self, ins):
        if len(ins.gates) == 1:
            return super().latency(ins)
        parts = [AggregatedInstruction([g], ins.seq) for g in ins.gates]
        return 10.0 + sum(map(super().latency, parts))

    def cached_duration(self, ins):
        return self.latency(ins)

    def synthesize(self, ins):
        assert len(ins.gates) == 1, f"merged {ins.label()} reached synthesis"
        return super().synthesize(ins)


def test_aggregation_undone_when_merges_lengthen_schedule():
    circ = Circuit(3, name="cnot-chain")
    circ.append(Gate(GateName.CNOT, (0, 1)))
    circ.append(Gate(GateName.CNOT, (1, 2)))
    ocu = SlowMergeOCU(adjacency=Topology.line(3).adjacent)
    cls, agg = (compile_circuit(circ, CompileOptions(
        strategy=strat, max_width=3, compare_baseline=False), ocu=ocu)
        for strat in ("cls", "cls+agg"))
    trace = agg.manifest["aggregation_trace"]
    assert any("into" in step for step in trace)       # a merge was taken
    assert trace[-1]["undone"] == "all merges"
    assert trace[-1]["aggregated_makespan_ns"] > cls.makespan_ns
    assert agg.makespan_ns <= cls.makespan_ns + 1e-9
    assert agg.report.passed
    stages, emitted = agg.manifest["stages"], agg.manifest["instructions"]
    assert stages["aggregated"]["nodes"] == len(emitted)


def test_topology_capacity_checked():
    from pulsecc.pipeline import PipelineError
    with pytest.raises(PipelineError):
        compile_circuit(maxcut_line(6),
                        CompileOptions(latency_mode="table",
                                       topology=Topology(2, 2)))


def test_cli_compile_table(tmp_path, capsys):
    src = tmp_path / "prog.qasm"
    src.write_text("qubits 3;\nh q0; h q1; h q2;\n"
                   "cnot q0 q1; rz(5.67) q1; cnot q0 q1;\n")
    out = tmp_path / "out"
    rc = cli.main(["compile", str(src), "--strategy", "cls",
                   "--latency", "table", "--out", str(out)])
    assert rc == 0
    assert (out / "manifest.json").exists()
    assert "makespan" in capsys.readouterr().out


def test_cli_parse_error(tmp_path):
    src = tmp_path / "bad.qasm"
    src.write_text("qubits 2;\nwarp q0;\n")
    assert cli.main(["compile", str(src)]) == cli.EXIT_PARSE
    assert cli.main(["compile", str(tmp_path / "missing.qasm")]) == cli.EXIT_PARSE


def test_cli_routing_error(tmp_path):
    src = tmp_path / "prog.qasm"
    src.write_text("qubits 5;\nh q0; cnot q3 q4;\n")
    rc = cli.main(["compile", str(src), "--latency", "table",
                   "--strategy", "isa", "--topology", "grid:2x2"])
    assert rc == cli.EXIT_ROUTING


def test_cli_defaults_match_compile_options():
    args = cli.build_parser().parse_args(["compile", "x.qasm"])
    assert cli._options(args) == CompileOptions()


def test_cli_bench_table(capsys):
    rc = cli.main(["bench", "maxcut-line", "--n", "4",
                   "--strategy", "cls", "--latency", "table"])
    assert rc == 0
    assert "speedup" in capsys.readouterr().out
