"""pulsecc: a pulse-level quantum circuit compiler.

Aggregates gates into multi-qubit instructions, schedules with commutativity
awareness, routes onto rectangular grids, and synthesizes minimum-latency
control pulses by gradient-based optimal control.
"""
from .asm import ParseError, emit_asm, parse_asm
from .bench import make_bench
from .commute import (build_commutation_groups, commutes,
                      detect_diagonal_blocks, singleton_groups)
from .gates import (Circuit, Gate, GateError, GateName, circuit_unitary,
                    gate_unitary, phases_equal)
from .gdg import GDG, AggregatedInstruction, GDGError, GDGNode, build_gdg
from .latency import LatencyError, default_table, table_price
from .mapper import (MappingError, RoutingResult, Topology,
                     build_interaction_graph, initial_mapping, route_swaps)
from .optctrl import (ControlPulses, ConvergenceError, GrapeResult,
                      HamiltonianModel, OptimalControlUnit, OptimizerConfig,
                      evolve, grape_optimize, infidelity, min_time)
from .pipeline import (CompileOptions, CompileResult, PipelineError,
                       compare_strategies, compile_circuit, write_artifacts)
from .scheduler import Schedule, ScheduleError, cls_schedule, list_schedule
from .verify import VerificationReport, sample_verify, verify_instruction

__version__ = "0.1.0"
