import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from pulsecc import cli, optctrl
from pulsecc.asm import emit_asm, parse_asm
from pulsecc.bench import (ising_chain, make_bench, maxcut_line, qaoa_circuit,
                           qaoa_triangle, uccsd)
from pulsecc.gates import (Circuit, Gate, GateName, circuit_unitary,
                           gates_unitary, phases_equal)
from pulsecc.gdg import GDG, AggregatedInstruction, build_gdg
from pulsecc.aggregator import MAX_WIDTH_LIMIT
from pulsecc.latency import LatencyError, table_price
from pulsecc.optctrl import (ConvergenceError, OptimalControlUnit,
                             OptimizerConfig)
from pulsecc.pipeline import (CompileOptions, compare_strategies,
                              compile_circuit, write_artifacts)
from pulsecc.mapper import Topology
from pulsecc.scheduler import ScheduleError, list_schedule

from conftest import kahn_order, qaoa3reg, random_circuit


def test_bench_generators():
    assert len(qaoa_triangle().gates) == 16
    assert maxcut_line(4).num_qubits == 4
    assert ising_chain(5).num_qubits == 5
    assert uccsd(4).num_qubits == 4
    with pytest.raises(ValueError):
        make_bench("nope", 3)
    with pytest.raises(ValueError):
        make_bench("uccsd")  # missing qubit count
    assert len(make_bench("qaoa-triangle", 3).gates) == 16
    with pytest.raises(ValueError, match="3 qubits"):
        make_bench("qaoa-triangle", 5)  # the triangle has no other size


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


def _digest(n, gates, **opts):
    c = Circuit(n)
    for gate in gates:
        c.append(gate)
    opts = CompileOptions(strategy="isa", latency_mode="table", **opts)
    return compile_circuit(c, opts).manifest["input_digest"]


def test_input_digest_tells_close_parameters_and_qubit_counts_apart():
    cnot = Gate(GateName.CNOT, (0, 1))
    rz = [Gate(GateName.RZ, (0,), (theta,)) for theta in (0.1234561, 0.1234562)]
    assert _digest(2, [rz[0], cnot]) != _digest(2, [rz[1], cnot])
    assert _digest(2, [cnot]) != _digest(3, [cnot])
    c = Circuit(2)
    c.append(rz[0])
    c.append(cnot)
    assert _digest(2, [rz[0], cnot]) == hashlib.sha256(
        emit_asm(c).encode()).hexdigest()[:16]


def test_input_digest_covers_custom_gates():
    cnot = Gate(GateName.CNOT, (0, 1))
    custom = [Gate(GateName.CUSTOM, (0,),
                   custom_matrix=np.diag([1, np.exp(1j * phi)]))
              for phi in (0.5, 0.5000001)]
    digests = [_digest(2, [g, cnot], table_override={"custom": 30.0})
               for g in custom]
    assert digests[0] != digests[1]
    moved = Gate(GateName.CUSTOM, (1,), custom_matrix=custom[0].custom_matrix)
    assert _digest(2, [moved, cnot], table_override={"custom": 30.0}) \
        != digests[0]


def test_oracle_mode_prices_custom_gates_without_a_table_entry():
    # the logical schedule's estimates fall back to the oracle for a gate the
    # table has no entry for, in the main path and the isa baseline alike;
    # table mode still needs the entry
    c = Circuit(2)
    c.append(Gate(GateName.CUSTOM, (0,),
                  custom_matrix=np.diag([1, np.exp(0.5j)])))
    c.add(GateName.CNOT, 0, 1)
    res = compile_circuit(c, CompileOptions(strategy="cls",
                                            latency_mode="oracle"))
    assert res.manifest["verification_passed"] is True
    assert res.manifest["baseline_makespan_ns"] > 0
    with pytest.raises(LatencyError, match="custom"):
        compile_circuit(c, CompileOptions(strategy="cls", latency_mode="table"))


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
    for strategy in ("agg", "cls+agg"):
        with pytest.raises(ValueError, match=re.escape(
                f"strategy {strategy!r}") + ".*'oracle', not 'table'"):
            CompileOptions(strategy=strategy, latency_mode="table")


def test_compare_strategies_defaults_to_the_latency_modes_strategies():
    cmp = compare_strategies(qaoa_triangle(),
                             CompileOptions(strategy="cls", latency_mode="table"))
    rows = cmp["strategies"]
    assert list(rows) == ["isa", "cls"]   # aggregation needs the oracle
    assert rows["isa"]["normalized"] == 1.0
    assert rows["cls"]["normalized"] <= 1.0


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        CompileOptions(strategy="fastest")


BAD_LATENCIES = [float("nan"), float("inf"), -5.0]


@pytest.mark.parametrize("ns", BAD_LATENCIES)
def test_bad_table_override_rejected(ns):
    # nan never frees a qubit in the scheduler, inf reads as a deadlock and a
    # negative time shortens the schedule below the baseline's
    with pytest.raises(ValueError, match="table_override\\['cnot'\\]"):
        CompileOptions(strategy="cls", latency_mode="table",
                       table_override={"cnot": ns})


def test_table_override_key_must_name_a_gate():
    # "cx" is no gate name: kept as a table entry, it would leave CNOT at its
    # default price
    with pytest.raises(ValueError, match="'cx'"):
        CompileOptions(strategy="cls", latency_mode="table",
                       table_override={"cx": 30.0})
    opts = CompileOptions(strategy="cls", latency_mode="table",
                          table_override={"CNOT": 30.0})
    price = table_price(opts.table_override)
    assert price(AggregatedInstruction([Gate(GateName.CNOT, (0, 1))])) == 30.0


@pytest.mark.parametrize("ns", BAD_LATENCIES)
def test_set_durations_rejects_bad_price(ns):
    g = build_gdg(qaoa_triangle())
    with pytest.raises(LatencyError, match="not a finite non-negative"):
        g.set_durations(lambda ins: 10.0 if len(ins.qubits) == 1 else ns)


def test_disconnected_instruction_fails_before_any_trial(monkeypatch):
    # a 3-qubit gate on sites (0, 2, 4) of a 5-site line is never routed, so
    # its model has no coupling, and no product pulse reaches a Toffoli
    def boom(*args, **kwargs):
        raise AssertionError("GRAPE ran for an unreachable target")

    monkeypatch.setattr(optctrl, "grape_optimize", boom)
    toffoli = np.eye(8)
    toffoli[6:, 6:] = [[0, 1], [1, 0]]
    c = Circuit(5)
    c.add(GateName.CUSTOM, 0, 2, 4, matrix=toffoli)
    why = re.escape("no coupling crosses the cut of model qubits [0]")
    for strategy in ("cls", "cls+agg"):
        with pytest.raises(ConvergenceError, match=why):
            compile_circuit(c, CompileOptions(
                strategy=strategy, optimizer=OptimizerConfig(max_iters=100)))


def test_unknown_latency_mode_rejected():
    with pytest.raises(ValueError, match="latency mode"):
        CompileOptions(strategy="cls", latency_mode="orcale")


@pytest.mark.parametrize("flag, value", [("--fidelity", "1.5"), ("--fidelity", "0"),
                                         ("--max-iters", "0"), ("--seed", "-1")])
def test_invalid_pulse_options_rejected(flag, value):
    # OptimizerConfig's ControlError for --fidelity and --max-iters is a bad
    # option to the CLI, as CompileOptions' ValueError for --seed is
    rc = cli.main(["bench", "maxcut-line", "--n", "2", "--strategy", "isa",
                   flag, value])
    assert rc == cli.EXIT_PARSE


def test_negative_placement_seed_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative, not -1"):
        CompileOptions(seed=-1)


def test_grape_draws_do_not_follow_the_placement_seed(monkeypatch):
    seeds = []
    cold_theta = optctrl._cold_theta

    def recorder(k, n, seed):
        seeds.append(seed)
        return cold_theta(k, n, seed)

    monkeypatch.setattr(optctrl, "_cold_theta", recorder)
    res = compile_circuit(make_bench("maxcut-line", 3),
                          CompileOptions(max_width=2, seed=3))
    assert res.report.passed
    assert seeds and set(seeds) == {OptimizerConfig().seed} == {7}


def test_verification_uses_the_oracles_threshold():
    # an oracle built for 0.99 synthesizes pulses that meet 0.99 but not the
    # default 0.999; the compile verifies them at the threshold they were
    # made for
    ocu = OptimalControlUnit(cfg=OptimizerConfig(fidelity_threshold=0.99))
    res = compile_circuit(make_bench("maxcut-line", 3),
                          CompileOptions(max_width=2), ocu=ocu)
    fids = [c.fidelity for c in res.report.checks]
    assert res.report.threshold == 0.99 and min(fids) < 0.999
    assert res.report.passed and res.manifest["verification_passed"]


def test_cli_verification_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("pulsecc.verify.verify_instruction",
                        lambda ins, p, m: 0.0)
    rc = cli.main(["bench", "maxcut-line", "--n", "2", "--strategy", "isa"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VERIFY
    assert "verification failed" in captured.err
    assert "verification: FAIL" in captured.out


def test_cli_synthesis_failure_is_optimizer_error(capsys):
    rc = cli.main(["bench", "qaoa-triangle", "--max-iters", "1", "--quiet"])
    assert rc == cli.EXIT_OPTIMIZER
    assert "optimizer error: pulse synthesis failed" in capsys.readouterr().err


@pytest.mark.parametrize("width", [0, -3, 11, 13])
def test_max_width_outside_range_rejected(width, capsys):
    with pytest.raises(ValueError, match="max_width"):
        CompileOptions(max_width=width)
    rc = cli.main(["bench", "maxcut-line", "--n", "3", "--strategy", "cls+agg",
                   "--max-width", str(width)])
    assert rc == cli.EXIT_PARSE
    assert "max_width" in capsys.readouterr().err


def test_max_width_range_ends_accepted():
    for width in (1, MAX_WIDTH_LIMIT):
        assert CompileOptions(max_width=width).max_width == width


def swap_heavy_grid_qaoa() -> Circuit:
    """QAOA on K(3,3): nine interacting pairs cannot all sit on the seven
    edges of a 2x3 grid, so every routing inserts SWAPs."""
    return qaoa_circuit(6, [(a, b) for a in range(3) for b in range(3, 6)])


def cnot_triangle() -> Circuit:
    c = Circuit(3, name="cnot-triangle")
    for a, b in ((0, 1), (1, 2), (0, 2)):
        c.add(GateName.CNOT, a, b)
    return c


GRID = CompileOptions(strategy="cls", latency_mode="table",
                      topology=Topology(2, 3))


@pytest.mark.parametrize("circuit, opts", [
    (swap_heavy_grid_qaoa, GRID),
    (swap_heavy_grid_qaoa, replace(GRID, table_override={"cnot": 40.0,
                                                         "h": 20.0})),
    (qaoa_triangle, CompileOptions(strategy="cls", latency_mode="table",
                                   table_override={"cnot": 40.0, "h": 20.0})),
    (cnot_triangle, CompileOptions(strategy="cls")),
], ids=["grid", "grid-override", "line-override", "line-oracle"])
def test_table_override_reaches_baseline(circuit, opts):
    # the baseline inside a compile is exactly the stand-alone isa compile:
    # same placement, same routing and same prices, table override included;
    # under the oracle both compiles share one pulse cache
    c = circuit()
    ocu = (OptimalControlUnit(adjacency=Topology.line(3).adjacent)
           if opts.latency_mode == "oracle" else None)
    res = compile_circuit(c, opts, ocu=ocu)
    isa = compile_circuit(c, replace(opts, strategy="isa",
                                     compare_baseline=False), ocu=ocu)
    assert res.manifest["baseline_makespan_ns"] == isa.makespan_ns
    # qaoa-triangle is pre-routed for a line; every other case routes SWAPs
    assert isa.manifest["swap_count"] > 0 or c.name == "qaoa-triangle"
    if opts.table_override:
        assert isa.makespan_ns != compile_circuit(c, replace(
            opts, strategy="isa", table_override=None)).makespan_ns


def test_baseline_shares_the_one_placement(monkeypatch):
    from pulsecc import pipeline
    calls = dict.fromkeys(("initial_mapping", "sample_verify",
                           "compile_circuit"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(pipeline, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(pipeline, name, counted)
    pipeline.compile_circuit(ising_chain(3), CompileOptions(strategy="cls+agg",
                                                            max_width=2))
    assert calls == {"initial_mapping": 1, "sample_verify": 1,
                     "compile_circuit": 1}


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


def test_pulse_files_read_against_manifest_qubits(tmp_path):
    # a pulse file's channel wires are positions in its manifest entry's
    # qubits, in that order, which need not be ascending
    res = compile_circuit(parse_asm("qubits 2; cnot q1 q0; h q1;"),
                          CompileOptions(strategy="isa", latency_mode="oracle"))
    write_artifacts(res, tmp_path)
    entries = json.loads((tmp_path / "manifest.json").read_text())["instructions"]
    graph = json.loads((tmp_path / "gdg.json").read_text())
    gates_of = {n["id"]: n["gates"] for n in graph["nodes"]}
    assert any(e["qubits"] != sorted(e["qubits"]) for e in entries)
    for entry in entries:
        doc = json.loads((tmp_path / entry["pulse_file"]).read_text())
        pairs = tuple(tuple(ch["qubits"]) for ch in doc["channels"]
                      if len(ch["qubits"]) == 2)
        model = optctrl.HamiltonianModel(len(entry["qubits"]), pairs,
                                         dt=doc["dt"])
        assert [ch.name for ch in model.channels] == [
            ch["name"] for ch in doc["channels"]]
        u = optctrl.evolve(optctrl.ControlPulses(
            np.array(doc["amplitudes"]), doc["dt"]), model)
        gates = parse_asm(f"qubits {graph['num_qubits']};" + "".join(
            f"{g};" for g in gates_of[entry["node"]])).gates
        target = gates_unitary(gates, entry["qubits"])
        assert 1.0 - optctrl.infidelity(u, target) >= 0.999


class SlowMergeOCU(OptimalControlUnit):
    """Prices every merged instruction 10 ns above the sum of its parts and
    refuses to synthesize one, so no GRAPE run ever sees a merge."""

    def latency(self, ins):
        if len(ins.gates) == 1:
            return super().latency(ins)
        parts = [AggregatedInstruction([g]) for g in ins.gates]
        return 10.0 + sum(map(super().latency, parts))

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
    assert agg.makespan_ns <= list_schedule(agg.gdg).makespan_ns + 1e-9
    assert agg.report.passed
    stages, emitted = agg.manifest["stages"], agg.manifest["instructions"]
    assert stages["aggregated"]["nodes"] == len(emitted)


def test_compile_ignores_what_the_oracle_cached_before():
    # the second compile finds every pulse of the first cached; it must still
    # take the same merges in the same order
    ocu = OptimalControlUnit(adjacency=Topology.line(6).adjacent)
    opts = CompileOptions(strategy="cls+agg", max_width=3,
                          compare_baseline=False)
    cold, warm = (compile_circuit(maxcut_line(6), opts, ocu=ocu).manifest
                  for _ in range(2))
    assert cold["aggregation_trace"]
    assert warm == cold


def test_topology_capacity_checked():
    from pulsecc.pipeline import PipelineError
    with pytest.raises(PipelineError):
        compile_circuit(maxcut_line(6),
                        CompileOptions(strategy="cls", latency_mode="table",
                                       topology=Topology(2, 2)))


def test_cli_compile_table(tmp_path, capsys):
    src = tmp_path / "prog.qasm"
    src.write_text("qubits 3;\nh q0; h q1; h q2;\n"
                   "cnot q0 q1; rz(5.67) q1; cnot q0 q1;\n")
    out = tmp_path / "out"
    rc = cli.main(["compile", str(src), "--strategy", "cls",
                   "--latency", "table", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["final_schedule"] in ("cls", "asap")
    printed = capsys.readouterr().out
    assert "makespan" in printed
    assert f"schedule:  {manifest['final_schedule']}" in printed


def test_cli_parse_error(tmp_path, capsys):
    src = tmp_path / "bad.qasm"
    src.write_text("qubits 2;\nwarp q0;\n")
    assert cli.main(["compile", str(src)]) == cli.EXIT_PARSE
    assert cli.main(["compile", str(tmp_path / "missing.qasm")]) == cli.EXIT_PARSE
    src.write_text("qubits 2;\nrx(nan) q0; cnot q0 q1;\n")
    rc = cli.main(["compile", str(src), "--strategy", "cls", "--latency", "table"])
    assert rc == cli.EXIT_PARSE
    assert "line 2, col 1: rx: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["grid:3", "ring:2x2", "grid:0x3", "grid:-2x-3"])
def test_cli_bad_topology_is_parse_error(tmp_path, spec):
    src = tmp_path / "prog.qasm"
    src.write_text("qubits 2;\nh q0; cnot q0 q1;\n")
    rc = cli.main(["compile", str(src), "--latency", "table",
                   "--strategy", "isa", "--topology", spec])
    assert rc == cli.EXIT_PARSE


def test_cli_unreadable_input_is_parse_error(tmp_path, capsys):
    rc = cli.main(["compile", str(tmp_path), "--strategy", "cls",
                   "--latency", "table"])
    assert rc == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"parse error: cannot read {tmp_path}")


def test_cli_out_that_is_a_file_rejected_before_compiling(tmp_path, monkeypatch,
                                                          capsys):
    src = tmp_path / "prog.qasm"
    src.write_text("qubits 2;\nh q0; cnot q0 q1;\n")
    taken = tmp_path / "taken"
    taken.write_text("keep")

    def no_compile(*_args):
        raise AssertionError("compiled despite an unusable --out")

    monkeypatch.setattr(cli, "compile_circuit", no_compile)
    rc = cli.main(["compile", str(src), "--strategy", "cls",
                   "--latency", "table", "--out", str(taken)])
    assert rc == cli.EXIT_PARSE
    assert "is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "keep"


def test_cli_routing_error(tmp_path):
    src = tmp_path / "prog.qasm"
    src.write_text("qubits 5;\nh q0; cnot q3 q4;\n")
    rc = cli.main(["compile", str(src), "--latency", "table",
                   "--strategy", "isa", "--topology", "grid:2x2"])
    assert rc == cli.EXIT_ROUTING


def test_cli_schedule_error_is_labelled_scheduling(monkeypatch, capsys):
    from pulsecc import pipeline

    def deadlock(*_args):
        raise ScheduleError("scheduling deadlock; stuck frontier (first 10): [3]")

    monkeypatch.setattr(pipeline, "cls_schedule", deadlock)
    rc = cli.main(["bench", "maxcut-line", "--n", "4",
                   "--strategy", "cls", "--latency", "table"])
    assert rc == cli.EXIT_ROUTING
    err = capsys.readouterr().err
    assert err.startswith("scheduling error: scheduling deadlock")
    assert "routing error" not in err


def test_cli_defaults_match_compile_options():
    args = cli.build_parser().parse_args(["compile", "x.qasm"])
    assert cli._options(args) == CompileOptions()


def test_cli_bench_table(capsys):
    rc = cli.main(["bench", "maxcut-line", "--n", "4",
                   "--strategy", "cls", "--latency", "table"])
    assert rc == 0
    assert "speedup" in capsys.readouterr().out


@pytest.mark.parametrize("latency", ["table", "oracle"])
def test_cli_gate_free_program_compiles(tmp_path, latency):
    src = tmp_path / "empty.qasm"
    src.write_text("qubits 2;\n")
    strategy = "cls+agg" if latency == "oracle" else "cls"
    rc = cli.main(["compile", str(src), "--latency", latency,
                   "--strategy", strategy, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK


@pytest.mark.parametrize("name, argv", [
    ("maxcut-line", ["--n", "3", "--latency", "table"]),  # cls+agg needs the oracle
    ("maxcut-line", ["--n", "0", "--strategy", "cls", "--latency", "table"]),
    ("maxcut-line", ["--n", "-2", "--strategy", "cls", "--latency", "table"]),
    ("qaoa-triangle", ["--n", "5", "--strategy", "cls", "--latency", "table"]),
], ids=["agg-table", "n0", "n-2", "triangle-n5"])
def test_cli_bench_invalid_option_is_parse_error(name, argv):
    assert cli.main(["bench", name, *argv]) == cli.EXIT_PARSE


def test_final_schedule_never_longer_than_asap(rng):
    table = dict(strategy="cls", latency_mode="table", compare_baseline=False)
    results = [compile_circuit(random_circuit(int(rng.integers(2, 6)),
                                              int(rng.integers(1, 30)), rng),
                               CompileOptions(**table))
               for _ in range(30)]
    # two-layer QAOA on seeded 3-regular graphs, routed on grids, where the
    # CLS schedule sometimes loses to ASAP
    for n, seed, shape in [(10, 3, (3, 4)), (10, 6, (3, 4)), (12, 1, (3, 4)),
                           (14, 6, (4, 4)), (16, 2, (4, 4)), (16, 6, (4, 4))]:
        results.append(compile_circuit(qaoa3reg(n, seed), CompileOptions(
            topology=Topology(*shape), **table)))
    for res in results:
        asap = list_schedule(res.gdg).makespan_ns
        assert res.makespan_ns <= asap + 1e-9
        if res.manifest["final_schedule"] == "asap":
            assert res.makespan_ns == asap
    assert {r.manifest["final_schedule"] for r in results} == {"cls", "asap"}


def test_seq_order_sort_compiles_bit_identically_to_kahn(monkeypatch):
    # topological_order sorts by seq; Kahn's loop in its place must give
    # the same order on the compiled graphs and the same compile
    cases = [(qaoa3reg(10, 6), Topology(3, 4)), (qaoa3reg(16, 6), Topology(4, 4))]

    def compile_all():
        return [compile_circuit(c, CompileOptions(
            strategy="cls", latency_mode="table", topology=topo))
                for c, topo in cases]

    fast = compile_all()
    assert all(r.gdg.topological_order() == kahn_order(r.gdg) for r in fast)
    monkeypatch.setattr(GDG, "topological_order", kahn_order)
    for a, b in zip(fast, compile_all()):
        assert a.manifest == b.manifest
        assert a.schedule.to_json(a.gdg) == b.schedule.to_json(b.gdg)
