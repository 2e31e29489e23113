"""Command-line front end.

`pulsecc compile <file.qasm>` compiles an assembly file; `pulsecc bench
<name>` generates and compiles a named benchmark circuit.

Exit codes: 0 success, 2 parse error, unreadable input file or invalid
option (aggregation with table latency, a qubit count below 1 and an --out
path that exists and is not a directory included), 3 mapping/routing error
or scheduling deadlock (reported as "scheduling error:"), 4 pulse-optimizer
non-convergence, 5 verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .asm import ParseError, parse_asm
from .bench import BENCH_NAMES, make_bench
from .gates import Circuit, GateError
from .mapper import MappingError, Topology
from .optctrl import ControlError, ConvergenceError, OptimizerConfig
from .pipeline import (LATENCY_MODES, STRATEGIES, CompileOptions,
                       PipelineError, compile_circuit, write_artifacts)
from .scheduler import ScheduleError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ROUTING = 3
EXIT_OPTIMIZER = 4
EXIT_VERIFY = 5


def _add_common(p: argparse.ArgumentParser):
    defaults = CompileOptions()
    p.add_argument("--strategy", choices=STRATEGIES, default=defaults.strategy)
    p.add_argument("--topology", default=None,
                   help="grid:RxC (default: line with one site per qubit)")
    p.add_argument("--max-width", type=int, default=defaults.max_width,
                   help="aggregated-instruction qubit limit")
    p.add_argument("--latency", choices=LATENCY_MODES,
                   default=defaults.latency_mode)
    cfg = defaults.optimizer
    p.add_argument("--fidelity", type=float, default=cfg.fidelity_threshold)
    p.add_argument("--seed", type=int, default=defaults.seed,
                   help="placement seed")
    p.add_argument("--max-iters", type=int, default=cfg.max_iters)
    p.add_argument("--out", default=None, help="artifact output directory")
    p.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pulsecc",
        description="pulse-level quantum circuit compiler")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compile", help="compile an assembly file")
    pc.add_argument("file", help="circuit assembly file")
    _add_common(pc)

    pb = sub.add_parser("bench", help="compile a generated benchmark")
    pb.add_argument("name", choices=BENCH_NAMES)
    pb.add_argument("--n", type=int, default=None, help="qubit count")
    _add_common(pb)
    return ap


def _options(args) -> CompileOptions:
    try:  # a malformed spec or setting is a bad option, not a stage's error
        topo = Topology.parse(args.topology) if args.topology else None
        optimizer = OptimizerConfig(max_iters=args.max_iters,
                                    fidelity_threshold=args.fidelity)
    except (MappingError, ControlError) as e:
        raise ValueError(str(e)) from None
    return CompileOptions(
        strategy=args.strategy, topology=topo, max_width=args.max_width,
        latency_mode=args.latency, optimizer=optimizer, seed=args.seed)


def _report(result, args):
    m = result.manifest
    if args.out:
        write_artifacts(result, args.out)
    if args.quiet:
        return
    print(f"circuit:   {m['name'] or m['input_digest']}")
    print(f"strategy:  {m['strategy']}  topology: {m['topology']}  "
          f"latency: {m['latency_mode']}")
    print(f"stages:    " + "  ".join(
        f"{k}={v['nodes']}n/{v['depth']}d" for k, v in m["stages"].items()))
    print(f"swaps:     {m['swap_count']}")
    print(f"schedule:  {m['final_schedule']}")
    print(f"makespan:  {m['makespan_ns']:.1f} ns "
          f"(baseline {m['baseline_makespan_ns']:.1f} ns, "
          f"speedup {m['speedup']:.2f}x)")
    if result.report is not None:
        print(result.report.summary())
    if args.out:
        print(f"artifacts: {Path(args.out).resolve()}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # checked before compiling, so a bad --out never wastes a compile
        if args.out and Path(args.out).exists() and not Path(args.out).is_dir():
            raise ValueError(f"--out {args.out} exists and is not a directory")
        if args.command == "compile":
            try:
                text = Path(args.file).read_text()
            except OSError as e:
                raise ValueError(
                    f"cannot read {args.file}: {e.strerror or e}") from None
            circuit = parse_asm(text)
            circuit.name = Path(args.file).stem
        else:
            circuit = make_bench(args.name, n=args.n)
        result = compile_circuit(circuit, _options(args))
    except ScheduleError as e:
        print(f"scheduling error: {e}", file=sys.stderr)
        return EXIT_ROUTING
    except (MappingError, PipelineError) as e:
        print(f"routing error: {e}", file=sys.stderr)
        return EXIT_ROUTING
    except ConvergenceError as e:
        print(f"optimizer error: {e}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except (ParseError, GateError, ValueError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE

    _report(result, args)
    if result.report is not None and not result.report.passed:
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
