"""pulsecc compile-time and pulse-quality benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload qaoa-triangle --seed 1 --seconds 30 --trace 0

A run imports pulsecc from src/, sets up SETUP_REPEATS times (fresh import,
input generation, one tiny table-mode warm-up compile) and reports the median
as setup_s.  It then compiles the workload's inputs in passes until --seconds
have elapsed, always finishing at least one pass, and checks every output
(see checks.py).  Each compile runs under a deadline; an exception, a pulse
fidelity below the compile's threshold, an equivalence mismatch or a deadline
overrun counts as a failed operation and the run goes on.  The host's speed
is sampled throughout (hostspeed.py), and every time metric is divided by
the run's slowdown so that host drift stays out of the figures.

--trace 0 prints the end-to-end metrics.  --trace 1 compiles one pass with
span tracing installed around each layer (tracing.py), runs the single-layer
probes (probes.py) and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
All load comes from this one process; BLAS may use at most nproc threads.
"""
from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()      # the run's time budget counts from here
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))   # before numpy is first imported
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import importlib
import json
import math
import resource
import signal
import statistics
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import hostspeed
import probes
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0            # a run must end within 180 s
COMPILE_DEADLINE_S = 120.0     # qaoa-triangle, the slowest compile, takes ~66 s
PROBE_RESERVE_S = 45.0         # kept free for the traced run's probes
CHECK_SEED = 20240901
TIME_UNITS = ("s", "ms")       # metrics taken out of host drift


class DeadlineExceeded(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the block once `seconds` have passed."""
    if seconds <= 0:
        raise DeadlineExceeded("no time left in the run")

    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"over {seconds:.1f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Op:
    """One attempted operation: a compile, or one placement of the sweep."""
    name: str
    kind: str                          # "compile" | "place"
    seconds: float
    error: str | None = None
    makespan: float | None = None
    baseline: float | None = None
    fidelity: float | None = None      # worst check fidelity, if checked
    manifest: dict = field(default_factory=dict, repr=False)


def fresh_import():
    """Import pulsecc anew, so that every set-up pays for the import."""
    for name in [m for m in sys.modules
                 if m == "pulsecc" or m.startswith("pulsecc.")]:
        del sys.modules[name]
    return importlib.import_module("pulsecc")


@dataclass
class Setup:
    seconds: float
    pc: object
    jobs: list
    sweep: list
    warmup_makespan: float


def set_up(workload: str, seed: int, speed) -> Setup:
    t0 = speed.clock()
    pc = fresh_import()
    jobs = workloads.make_jobs(pc, workload, seed)
    sweep = (workloads.sweep_cases(pc, seed)
             if workload == "grid-frontend" else [])
    warm = workloads.warmup_job(pc)
    makespan = pc.compile_circuit(warm.source, warm.opts).makespan_ns
    return Setup(speed.clock() - t0, pc, jobs, sweep, makespan)


class Runner:
    def __init__(self, pc, speed, reserve_s: float):
        self.pc = pc
        self.speed = speed
        self.reserve_s = reserve_s
        self.ops: list[Op] = []
        self.wrong: list[str] = []     # reasons the output is incorrect
        self.makespans: dict[str, set] = {}

    def limit(self) -> float:
        left = RUN_LIMIT_S - self.reserve_s - (time.perf_counter() - _T0)
        return min(COMPILE_DEADLINE_S, left)

    def compile(self, job) -> Op:
        pc, result, error = self.pc, None, None
        t0 = self.speed.clock()
        try:
            with deadline(self.limit()):
                circuit = (pc.asm.parse_asm(job.source)
                           if isinstance(job.source, str) else job.source)
                result = pc.pipeline.compile_circuit(circuit, job.opts)
        except DeadlineExceeded:
            error = "deadline"
        except (pc.MappingError, pc.PipelineError, pc.ConvergenceError) as e:
            error = type(e).__name__
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            error = type(e).__name__
        op = Op(job.name, "compile", self.speed.clock() - t0, error)
        self.ops.append(op)
        if result is not None:
            self._check(job, result, op)
        return op

    def _check(self, job, result, op: Op):
        op.makespan = result.makespan_ns
        op.baseline = result.manifest["baseline_makespan_ns"]
        op.manifest = result.manifest
        self.makespans.setdefault(job.name, set()).add(result.makespan_ns)
        try:
            fids = []
            if job.opts.latency_mode == "oracle":
                fids = checks.pulse_fidelities(self.pc, result)
                if min(fids) < job.opts.fidelity:
                    op.error = "fidelity"
            if job.sites <= checks.EQUIV_MAX_SITES:
                f = checks.equivalence_fidelity(self.pc, result, CHECK_SEED)
                fids.append(f)
                if f < 1.0 - checks.EQUIV_TOL:
                    op.error = "equivalence"
            op.fidelity = min(fids, default=None)
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            op.error = f"check {type(e).__name__}"
        if op.error is not None:
            self.wrong.append(f"{job.name}: {op.error}")

    def place(self, rows: int, cols: int, graph) -> Op:
        pc, mapping, error = self.pc, None, None
        n = len(graph.vertices)
        t0 = self.speed.clock()
        try:
            with deadline(self.limit()):
                mapping = pc.initial_mapping(graph, pc.Topology(rows, cols),
                                             seed=workloads.COMPILE_SEED)
        except DeadlineExceeded:
            error = "deadline"
        except pc.MappingError:
            error = "MappingError"
        op = Op(f"place {n}@{rows}x{cols}", "place",
                self.speed.clock() - t0, error)
        self.ops.append(op)
        if mapping is not None and not checks.mapping_valid(mapping, n,
                                                            rows * cols):
            op.error = "invalid mapping"
            self.wrong.append(f"{op.name}: invalid mapping")
        return op

    def run_pass(self, jobs, sweep, tracer=None) -> list[Op]:
        first = len(self.ops)
        with tracer or nullcontext():
            for job in jobs:
                self.compile(job)
        for rows, cols, graph in sweep:
            self.place(rows, cols, graph)
        return self.ops[first:]

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)

    def nondeterministic(self) -> list[str]:
        return [name for name, seen in self.makespans.items() if len(seen) > 1]


def compiles(ops, ok_only=True) -> list[Op]:
    return [op for op in ops if op.kind == "compile"
            and (op.error is None or not ok_only)]


def compile_seconds(ops) -> float:
    """Seconds per compile: each input's median over its compiles, averaged
    over the inputs (failed compiles count only when none succeeded)."""
    done = compiles(ops) or compiles(ops, ok_only=False)
    per_input: dict[str, list[float]] = {}
    for op in done:
        per_input.setdefault(op.name, []).append(op.seconds)
    if not per_input:
        return 0.0
    return statistics.fmean(statistics.median(v) for v in per_input.values())


def end_to_end(runner: Runner, first_pass, setup_s: float) -> dict:
    ok = compiles(first_pass)
    ratios = [op.baseline / op.makespan for op in ok if op.makespan > 0]
    fids = [op.fidelity for op in runner.ops if op.fidelity is not None]
    attempted = len(runner.ops)
    return {
        "compile_s": (compile_seconds(runner.ops), "s"),
        "makespan_ns": (sum(op.makespan for op in ok), "pulse-ns"),
        "speedup": (math.exp(statistics.fmean(map(math.log, ratios)))
                    if ratios else 0.0, "x"),
        "min_fidelity": (min(fids, default=0.0), "fraction"),
        "success_frac": (1.0 - runner.failed / attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _stage_nodes(manifest: dict, stage: str) -> int:
    return manifest["stages"].get(stage, {}).get("nodes", 0)


def per_layer(runner: Runner, tracer, traced_ops, probe: dict) -> dict:
    t = tracer
    ok = compiles(traced_ops)
    mans = [op.manifest for op in ok]
    final = [m["stages"].get("aggregated", m["stages"]["routed"]) for m in mans]
    grape = [s.note for s in t.named("optctrl.grape") if s.note]
    runs, min_time_calls = t.count("optctrl.grape"), t.count("optctrl.min_time")
    synth = t.count("optctrl.synthesize")
    misses = t.with_child("optctrl.synthesize", "optctrl.min_time")
    n_compiles = max(len(compiles(traced_ops, ok_only=False)), 1)
    out = {
        "optctrl.grape_s": (t.total_s("optctrl.grape"), "s"),
        "optctrl.grape_runs": (runs, "count"),
        "optctrl.grape_iters": (sum(n for n, _ in grape), "count"),
        "optctrl.grape_converged_ratio":
            (sum(c for _, c in grape) / runs if runs else 0.0, "ratio"),
        "optctrl.trials_per_min_time":
            (runs / min_time_calls if min_time_calls else 0.0, "ratio"),
        "optctrl.min_time_calls": (min_time_calls, "count"),
        "optctrl.synth_calls": (synth, "count"),
        "optctrl.cache_hit_ratio":
            ((synth - misses) / synth if synth else 0.0, "ratio"),
    }
    for q, ms in probe["grad_ms"].items():
        out[f"optctrl.grad_ms.q{q}"] = (ms, "ms")
    out.update({
        "aggregator.self_s": (t.self_s("aggregator.loop"), "s"),
        "aggregator.enumerate_s": (t.total_s("aggregator.enumerate"), "s"),
        "aggregator.enumerate_calls": (t.count("aggregator.enumerate"), "count"),
        "aggregator.merges": (sum(len(m["aggregation_trace"]) for m in mans),
                              "count"),
    })
    for q, s in probe["scale_s"].items():
        out[f"aggregator.scale_s.q{q}"] = (s, "s")
    out.update({
        "mapper.place_s": (t.total_s("mapper.place"), "s"),
        "mapper.route_s": (t.total_s("mapper.route"), "s"),
        "mapper.swaps": (sum(m["swap_count"] for m in mans), "count"),
        "mapper.place_fail": (sum(op.error == "MappingError"
                                  for op in runner.ops), "count"),
        "commute.diag_s": (t.total_s("commute.diag"), "s"),
        "commute.groups_s": (t.total_s("commute.groups"), "s"),
        "commute.diag_merged":
            (sum(_stage_nodes(m, "flattened")
                 - _stage_nodes(m, "commutativity_detection")
                 for m in mans if "commutativity_detection" in m["stages"]),
             "count"),
        "scheduler.cls_s": (t.total_s("scheduler.cls"), "s"),
        "scheduler.list_s": (t.total_s("scheduler.list"), "s"),
        "gdg.build_s": (t.total_s("gdg.build"), "s"),
        "gdg.nodes_final": (sum(f["nodes"] for f in final), "count"),
        "gdg.depth_final": (sum(f["depth"] for f in final), "count"),
        "asm.parse_s": (t.total_s("asm.parse"), "s"),
        "verify.s": (t.total_s("verify.sample"), "s"),
        "verify.checked": (sum(s.note[0] for s in t.named("verify.sample")
                               if s.note), "count"),
        "pipeline.baseline_s": (t.nested_s("pipeline.compile"), "s"),
        "trace.compile_s": (compile_seconds(traced_ops), "s"),
        "trace.overhead_s":
            (probe["per_call_s"] * len(t.spans) / n_compiles, "s"),
        "trace.spans": (len(t.spans), "count"),
    })
    return out


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        build = "unknown"
    try:
        status = Path("/proc/self/status").read_text()
        threads = next(line.split()[1] for line in status.splitlines()
                       if line.startswith("Threads:"))
    except (OSError, StopIteration):
        threads = "unknown"
    return (f"numpy {np.__version__}, BLAS {build}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
            f"process threads {threads}, nproc {NPROC}")


def print_report(args, runner, setup_times, metrics, tracer, speed):
    print(f"# pulsecc perfbench: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds}, trace {args.trace}")
    print(f"# {blas_info()}")
    print(f"# host slowdown {speed.slowdown():.4f} from {len(speed.samples)} "
          f"reference samples; metrics in {'/'.join(TIME_UNITS)} are divided "
          f"by it, the wall times printed above them are not")
    print(f"# setup_s samples: "
          + ", ".join(f"{t:.4f}" for t in setup_times))
    rows: dict[str, list[Op]] = {}
    for op in runner.ops:
        if op.kind == "compile":
            rows.setdefault(op.name, []).append(op)
    print(f"# {'input':24s} {'n':>3s} {'median_s':>10s} {'makespan':>10s} "
          f"{'isa':>10s} {'speedup':>8s} status")
    for name, ops in rows.items():
        op = ops[0]
        med = statistics.median(o.seconds for o in ops)
        status = ",".join(sorted({o.error for o in ops if o.error})) or "ok"
        if op.makespan:
            print(f"  {name:24s} {len(ops):3d} {med:10.4f} {op.makespan:10.1f} "
                  f"{op.baseline:10.1f} {op.baseline / op.makespan:8.3f} "
                  f"{status}")
        else:
            print(f"  {name:24s} {len(ops):3d} {med:10.4f} {'-':>10s} "
                  f"{'-':>10s} {'-':>8s} {status}")
    places = [op for op in runner.ops if op.kind == "place"]
    if places:
        bad = sorted({op.name for op in places if op.error})
        print(f"# placement sweep: {len(places)} placements, "
              f"{sum(op.error is not None for op in places)} failed: "
              + ", ".join(bad))
    done = compiles(runner.ops) or compiles(runner.ops, ok_only=False)
    if done:
        secs = [op.seconds for op in done]
        print(f"# compile_s from {len(secs)} compiles of "
              f"{len({op.name for op in done})} inputs, "
              f"min {min(secs):.4f} s, max {max(secs):.4f} s")
    if tracer is not None:
        print(f"# {'span':24s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
        for name in dict.fromkeys(s.name for s in tracer.spans):
            print(f"  {name:24s} {tracer.count(name):7d} "
                  f"{tracer.total_s(name):10.4f} {tracer.self_s(name):10.4f}")
    for msg in runner.wrong:
        print(f"# WRONG OUTPUT {msg}")
    for name in runner.nondeterministic():
        print(f"# NONDETERMINISTIC makespan for {name}: "
              f"{sorted(runner.makespans[name])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(args, speed):
    setup_times, warmups = [], set()
    for _ in range(SETUP_REPEATS):
        last = set_up(args.workload, args.seed, speed)
        setup_times.append(last.seconds)
        warmups.add(last.warmup_makespan)
    pc = last.pc
    runner = Runner(pc, speed, PROBE_RESERVE_S if args.trace else 0.0)
    runner.makespans["warmup"] = warmups

    if args.trace:
        tracer = tracing.Tracer(tracing.layer_targets(pc), speed.clock)
        traced_ops = runner.run_pass(last.jobs, last.sweep, tracer)
        probe = {"grad_ms": probes.grad_ms(pc, args.seed),
                 "scale_s": {n: probes.scale_s(pc, c, o) for n, (c, o) in
                             sorted(workloads.probe_circuits(pc, args.seed).items())},
                 "per_call_s": tracing.per_call_overhead_s()}
        os.makedirs(HERE / "out", exist_ok=True)
        (HERE / "out" / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"spans": tracer.dump()}))
        return (runner, setup_times,
                per_layer(runner, tracer, traced_ops, probe), tracer)

    start = time.perf_counter()
    first = runner.run_pass(last.jobs, last.sweep)
    passes = 1
    while True:
        elapsed = time.perf_counter() - start
        # every pass does the same work, so the last ones predict the next
        if (elapsed + elapsed / passes > args.seconds
                or runner.limit() < elapsed / passes):
            break
        runner.run_pass(last.jobs, last.sweep)
        passes += 1
    return (runner, setup_times,
            end_to_end(runner, first, statistics.median(setup_times)), None)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pulsecc" / "__init__.py").is_file():
        print(f"perfbench: pulsecc sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with hostspeed.SpeedProbe() as speed:
        runner, setup_times, metrics, tracer = measure(args, speed)
    slowdown = speed.slowdown()
    metrics = {name: (value / slowdown if unit in TIME_UNITS else value, unit)
               for name, (value, unit) in metrics.items()}
    if args.trace:
        metrics["bench.host_slowdown"] = (slowdown, "ratio")

    print_report(args, runner, setup_times, metrics, tracer, speed)
    correct = not runner.wrong and not runner.nondeterministic()
    print(json.dumps({
        "correct": correct,
        "attempted": len(runner.ops),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
