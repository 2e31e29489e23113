"""End-to-end compilation driver: strategy selection, stage sequencing,
latency comparison, and artifact emission.

Stages: parse -> dependence graph -> [diagonal-block detection] ->
commutation groups -> logical schedule -> placement -> SWAP routing ->
[instruction aggregation] -> final durations -> final schedule -> pulse
synthesis -> verification of every pulse.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .aggregator import DEFAULT_MAX_WIDTH, aggregate_loop
from .commute import build_commutation_groups, singleton_groups
from .gates import Circuit
from .gdg import GDG, build_gdg
from .latency import table_price
from .mapper import (RoutingResult, Topology, build_interaction_graph,
                     initial_mapping, route_swaps)
from .optctrl import (DT_DEFAULT, MU_MAX_DEFAULT, OptimalControlUnit,
                      OptimizerConfig)
from .scheduler import Schedule, cls_schedule, list_schedule
from .verify import VerificationReport, sample_verify

STRATEGIES = ("isa", "cls", "agg", "cls+agg")
LATENCY_MODES = ("table", "oracle")


class PipelineError(RuntimeError):
    def __init__(self, stage: str, msg: str):
        super().__init__(f"stage {stage}: {msg}")
        self.stage = stage


@dataclass
class CompileOptions:
    strategy: str = "cls+agg"
    topology: Topology | None = None       # default: 1 x num_qubits line
    max_width: int = DEFAULT_MAX_WIDTH
    latency_mode: str = "oracle"           # one of LATENCY_MODES
    dt: float = DT_DEFAULT
    mu_max: float = MU_MAX_DEFAULT
    fidelity: float = 0.999
    seed: int = 7
    max_iters: int = 600
    table_override: dict | None = None
    compare_baseline: bool = True

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"choose from {STRATEGIES}")
        if self.latency_mode not in LATENCY_MODES:
            raise ValueError(f"unknown latency mode {self.latency_mode!r}; "
                             f"choose from {LATENCY_MODES}")
        if not (0 < self.fidelity <= 1 and self.dt > 0 and self.mu_max > 0):
            raise ValueError("fidelity must be in (0, 1]; dt and mu_max must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    @property
    def use_cls(self) -> bool:
        return "cls" in self.strategy

    @property
    def use_agg(self) -> bool:
        return "agg" in self.strategy


@dataclass
class CompileResult:
    manifest: dict
    circuit: Circuit
    gdg: GDG
    schedule: Schedule
    routing: RoutingResult
    instructions: list                      # (node_id, ins, pulses, model)
    report: VerificationReport | None
    ocu: OptimalControlUnit | None

    @property
    def makespan_ns(self) -> float:
        return self.schedule.makespan_ns


def _gdg_stats(g: GDG) -> dict:
    depth = {g.ROOT: 0}
    for nid in g.topological_order():
        depth[nid] = 1 + max((depth[p] for p in g.predecessors(nid)), default=0)
    return {"nodes": len(g.real_nodes()),
            "depth": max(depth.values(), default=0)}


def _schedule(g: GDG, use_cls: bool) -> Schedule:
    if use_cls:
        return cls_schedule(g, build_commutation_groups(g))
    return list_schedule(g)


def make_ocu(opts: CompileOptions, topo: Topology) -> OptimalControlUnit:
    cfg = OptimizerConfig(max_iters=opts.max_iters,
                          fidelity_threshold=opts.fidelity,
                          seed=opts.seed)
    return OptimalControlUnit(mu_max=opts.mu_max, dt=opts.dt, cfg=cfg,
                              adjacency=topo.adjacent)


def compile_circuit(circuit: Circuit, opts: CompileOptions | None = None,
                    ocu: OptimalControlUnit | None = None) -> CompileResult:
    opts = opts or CompileOptions()
    topo = opts.topology or Topology.line(circuit.num_qubits)
    if topo.num_sites < circuit.num_qubits:
        raise PipelineError("mapping", f"{circuit.num_qubits} qubits do not fit "
                            f"a {topo.rows}x{topo.cols} grid")
    stages: dict[str, dict] = {}

    gdg = build_gdg(circuit)
    stages["flattened"] = _gdg_stats(gdg)

    if opts.use_cls:
        from .commute import detect_diagonal_blocks
        detect_diagonal_blocks(gdg)
        stages["commutativity_detection"] = _gdg_stats(gdg)

    groups = build_commutation_groups(gdg) if opts.use_cls else singleton_groups(gdg)

    # logical schedule on table estimates (true pulse times come post-routing)
    table = table_price(opts.table_override)
    gdg.set_durations(table)
    logical_sched = cls_schedule(gdg, groups)

    graph = build_interaction_graph(gdg.flatten())
    mapping = initial_mapping(graph, topo, seed=opts.seed)
    routing = route_swaps(logical_sched, gdg, mapping, topo)
    final_gdg = routing.gdg
    stages["routed"] = _gdg_stats(final_gdg)

    # table mode prices an instruction by its member-gate sum; oracle mode
    # by its synthesized pulse
    if opts.latency_mode == "oracle":
        if ocu is None:
            ocu = make_ocu(opts, topo)
        price = ocu.latency
    else:
        ocu, price = None, table
    final_gdg.set_durations(price)

    trace: list = []
    unaggregated = None
    if opts.use_agg:
        if ocu is None:
            raise PipelineError("aggregation",
                                "aggregation requires --latency oracle")
        unaggregated = final_gdg.copy()
        aggregate_loop(final_gdg, price, max_width=opts.max_width,
                       trace=trace, cached=ocu.cached_duration)
        final_gdg.set_durations(price)

    schedule = _schedule(final_gdg, opts.use_cls)
    if unaggregated is not None:
        # a merged pulse may come out longer than its parts; the routed graph
        # is already priced, so keeping it whenever it is shorter guarantees
        # aggregation never lengthens the schedule
        fallback = _schedule(unaggregated, opts.use_cls)
        if fallback.makespan_ns < schedule.makespan_ns - 1e-9:
            trace.append({"undone": "all merges",
                          "aggregated_makespan_ns": schedule.makespan_ns,
                          "unaggregated_makespan_ns": fallback.makespan_ns})
            final_gdg, schedule = unaggregated, fallback
        stages["aggregated"] = _gdg_stats(final_gdg)

    instructions = []
    report = None
    if ocu is not None:
        for node in final_gdg.real_nodes():
            duration, res, model = ocu.synthesize(node.instruction)
            instructions.append((node.id, node.instruction, res.pulses, model))
        report = sample_verify(instructions, threshold=opts.fidelity)

    baseline_makespan = schedule.makespan_ns
    if opts.compare_baseline and opts.strategy != "isa":
        base_opts = replace(opts, strategy="isa", topology=topo,
                            compare_baseline=False)
        baseline = compile_circuit(circuit, base_opts, ocu=ocu)
        baseline_makespan = baseline.makespan_ns

    digest = hashlib.sha256(
        "\n".join(repr(g) for g in circuit.gates).encode()).hexdigest()[:16]
    manifest = {
        "input_digest": digest,
        "name": circuit.name,
        "strategy": opts.strategy,
        "topology": f"grid:{topo.rows}x{topo.cols}",
        "max_width": opts.max_width,
        "latency_mode": opts.latency_mode,
        "stages": stages,
        "instructions": [
            {"node": n.id, "label": n.instruction.label(),
             "qubits": list(n.qubits), "duration_ns": n.duration,
             "pulse_file": f"pulses/instr_{n.id}.json" if ocu else None}
            for n in final_gdg.real_nodes()
        ],
        "aggregation_trace": trace,
        "initial_mapping": {str(k): v for k, v in routing.initial_mapping.items()},
        "final_permutation": {str(k): v for k, v in routing.final_mapping.items()},
        "swap_count": routing.swap_count,
        "makespan_ns": schedule.makespan_ns,
        "baseline_makespan_ns": baseline_makespan,
        "speedup": (baseline_makespan / schedule.makespan_ns
                    if schedule.makespan_ns > 0 else 1.0),
        "verification_passed": report.passed if report else None,
    }
    return CompileResult(manifest, circuit, final_gdg, schedule, routing,
                         instructions, report, ocu)


def write_artifacts(result: CompileResult, out_dir: str | Path):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(result.manifest, indent=2))
    (out / "schedule.json").write_text(result.schedule.to_json(result.gdg))
    (out / "gdg.json").write_text(result.gdg.to_json())
    if result.report is not None:
        (out / "verification.json").write_text(result.report.to_json())
    if result.instructions:
        pulse_dir = out / "pulses"
        pulse_dir.mkdir(exist_ok=True)
        for nid, _ins, pulses, model in result.instructions:
            (pulse_dir / f"instr_{nid}.json").write_text(pulses.to_json(model))


def compare_strategies(circuit: Circuit, opts: CompileOptions,
                       strategies=STRATEGIES) -> dict:
    """Compile under each strategy and report normalized latency (isa = 1.0)."""
    topo = opts.topology or Topology.line(circuit.num_qubits)
    ocu = make_ocu(opts, topo) if opts.latency_mode == "oracle" else None
    rows = {}
    for strat in strategies:
        o = replace(opts, strategy=strat, topology=topo,
                    compare_baseline=False)
        rows[strat] = compile_circuit(circuit, o, ocu=ocu)
    base = rows["isa"].makespan_ns if "isa" in rows else None
    table = {
        strat: {
            "makespan_ns": r.makespan_ns,
            "normalized": r.makespan_ns / base if base else None,
            "verified": r.report.passed if r.report else None,
        }
        for strat, r in rows.items()
    }
    return {"circuit": circuit.name, "baseline_ns": base,
            "strategies": table, "results": rows}
