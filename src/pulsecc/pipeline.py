"""End-to-end compilation driver: strategy selection, stage sequencing,
latency comparison, and artifact emission.

Stages: parse -> dependence graph -> [diagonal-block detection] ->
commutation groups -> placement -> logical schedule -> SWAP routing ->
final durations -> [instruction aggregation] -> final schedule (the
shorter of CLS and ASAP) -> pulse synthesis -> verification of every pulse
-> isa baseline.  The isa baseline is the source's own dependence graph
with singleton groups, routed from the same placement, priced the same way
and list-scheduled.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from . import commute
from .aggregator import DEFAULT_MAX_WIDTH, MAX_WIDTH_LIMIT, aggregate_loop
from .asm import gate_asm
from .commute import build_commutation_groups, singleton_groups
from .gates import Circuit, GateName, gate_unitary
from .gdg import GDG, build_gdg
from .latency import LatencyError, asap_finishes, table_price
from .mapper import (RoutingResult, Topology, build_interaction_graph,
                     initial_mapping, route_swaps)
from .optctrl import OptimalControlUnit, OptimizerConfig
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
    optimizer: OptimizerConfig = OptimizerConfig()  # oracle's, if built here
    seed: int = 7                          # placement seed only
    table_override: dict | None = None
    compare_baseline: bool = True

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"choose from {STRATEGIES}")
        if self.latency_mode not in LATENCY_MODES:
            raise ValueError(f"unknown latency mode {self.latency_mode!r}; "
                             f"choose from {LATENCY_MODES}")
        if self.use_agg and self.latency_mode != "oracle":
            raise ValueError(f"strategy {self.strategy!r} needs latency mode "
                             f"'oracle', not {self.latency_mode!r}")
        if not 1 <= self.max_width <= MAX_WIDTH_LIMIT:
            raise ValueError(f"max_width must be in 1..{MAX_WIDTH_LIMIT}, "
                             f"not {self.max_width}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
        gate_names = {name.value for name in GateName}
        for name, ns in (self.table_override or {}).items():
            # table_price would keep an unknown key as an entry no gate reads
            if not isinstance(name, str) or name.lower() not in gate_names:
                raise ValueError(f"table_override key {name!r} names no gate; "
                                 f"choose from {sorted(gate_names)}")
            if not 0.0 <= float(ns) < math.inf:
                raise ValueError(f"table_override[{name!r}] must be a finite "
                                 f"non-negative latency, not {ns}")

    @property
    def fidelity(self) -> float:
        """perfbench's alias for optimizer.fidelity_threshold."""
        return self.optimizer.fidelity_threshold

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


def _input_digest(circuit: Circuit) -> str:
    """SHA-256 prefix of emit_asm's text, each CUSTOM gate as its matrix's bytes."""
    lines = [f"qubits {circuit.num_qubits};"] + [
        gate_asm(g) if g.name is not GateName.CUSTOM
        else f"custom {g.qubits} {gate_unitary(g).tobytes().hex()};"
        for g in circuit.gates]
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()[:16]


def _gdg_stats(g: GDG) -> dict:
    depth = asap_finishes((g.nodes[i].qubits, 1) for i in g.topological_order())
    return {"nodes": len(g.nodes), "depth": max(depth, default=0)}


def _schedule(g: GDG, use_cls: bool) -> tuple[Schedule, str]:
    """Schedule g and name the scheduler that won.  The ASAP schedule
    (`list_schedule`) is valid under every strategy, so the CLS schedule is
    kept only when it is no longer; CLS wins ties."""
    asap = list_schedule(g)
    if use_cls:
        cls = cls_schedule(g, build_commutation_groups(g))
        if cls.makespan_ns <= asap.makespan_ns + 1e-9:
            return cls, "cls"
    return asap, "asap"


def _route_and_price(g: GDG, groups, mapping: dict[int, int], topo: Topology,
                     table, price) -> RoutingResult:
    """Schedule g on table estimates with its commutation groups, route that
    schedule from mapping, and price the routed graph.  An instruction the
    table cannot price is estimated by price: the oracle prices any gate, and
    in table mode price is the table, so its LatencyError stands."""
    def estimate(ins) -> float:
        try:
            return table(ins)
        except LatencyError:
            return price(ins)

    g.set_durations(estimate)
    routing = route_swaps(cls_schedule(g, groups), g, mapping, topo)
    routing.gdg.set_durations(price)
    return routing


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
        commute.detect_diagonal_blocks(gdg)
        stages["commutativity_detection"] = _gdg_stats(gdg)

    groups = build_commutation_groups(gdg) if opts.use_cls else singleton_groups(gdg)

    # the logical schedule runs on table estimates; true pulse times come
    # post-routing: table mode prices an instruction by its member gates'
    # critical path, oracle mode by its synthesized pulse
    table = table_price(opts.table_override)
    if opts.latency_mode == "oracle":
        ocu = ocu or OptimalControlUnit(opts.optimizer, topo.adjacent)
        price = ocu.latency
    else:
        ocu, price = None, table

    mapping = initial_mapping(build_interaction_graph(circuit), topo,
                              seed=opts.seed)
    routing = _route_and_price(gdg, groups, mapping, topo, table, price)
    final_gdg = routing.gdg
    stages["routed"] = _gdg_stats(final_gdg)

    trace: list = []
    unaggregated = None
    if opts.use_agg:
        unaggregated = final_gdg.copy()
        aggregate_loop(final_gdg, price, max_width=opts.max_width, trace=trace)

    schedule, scheduler = _schedule(final_gdg, opts.use_cls)
    if unaggregated is not None:
        # a merged pulse may come out longer than its parts; the routed graph
        # is already priced, so keeping it whenever it is shorter guarantees
        # aggregation never lengthens the schedule
        fallback, fallback_by = _schedule(unaggregated, opts.use_cls)
        if fallback.makespan_ns < schedule.makespan_ns - 1e-9:
            trace.append({"undone": "all merges",
                          "aggregated_makespan_ns": schedule.makespan_ns,
                          "unaggregated_makespan_ns": fallback.makespan_ns})
            final_gdg, schedule, scheduler = unaggregated, fallback, fallback_by
        stages["aggregated"] = _gdg_stats(final_gdg)

    instructions = []
    if ocu is not None:
        for node in final_gdg.real_nodes():
            duration, res, model = ocu.synthesize(node.instruction)
            instructions.append((node.id, node.instruction, res.pulses, model))
    report = (sample_verify(instructions, ocu.cfg.fidelity_threshold)
              if instructions else None)

    baseline_makespan = schedule.makespan_ns
    if opts.compare_baseline and opts.strategy != "isa":
        isa = build_gdg(circuit)
        isa_routing = _route_and_price(isa, singleton_groups(isa), mapping,
                                       topo, table, price)
        baseline_makespan = list_schedule(isa_routing.gdg).makespan_ns

    manifest = {
        "input_digest": _input_digest(circuit),
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
        "final_schedule": scheduler,
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
                       strategies=None) -> dict:
    """Compile under each strategy and report normalized latency (isa = 1.0).

    By default every strategy opts' latency mode allows: aggregation needs
    the oracle."""
    if strategies is None:
        strategies = [s for s in STRATEGIES
                      if opts.latency_mode == "oracle" or "agg" not in s]
    topo = opts.topology or Topology.line(circuit.num_qubits)
    ocu = (OptimalControlUnit(opts.optimizer, topo.adjacent)
           if opts.latency_mode == "oracle" else None)
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
