"""Inputs of the three benchmark workloads, built through pulsecc's public API.

Every compile uses the product's default compile seed.  The workload seed
only draws grid-frontend's random graphs, so qaoa-triangle and trotter-lines
compile the same circuits on every run.  The compile seed stays fixed because
it selects GRAPE's random starts and the placement restarts, and some seeds
are pathological: maxcut-line-12 took about 9 s at seed 7 and ran for more
than 600 s at seed 11.
"""
from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

WORKLOADS = ("qaoa-triangle", "trotter-lines", "grid-frontend")
COMPILE_SEED = 7

# (qubits, rows, cols): near-square grids, full ones included.  Today 9 on
# 3x3, 25 on 5x5 and 30 on 5x7 raise MappingError; they stay in the set so
# the placement defect shows in the failure count.
GRID_SHAPES = ((9, 3, 3), (10, 3, 4), (12, 3, 4), (14, 4, 4), (16, 4, 4),
               (18, 4, 5), (20, 4, 5), (25, 5, 5), (26, 5, 6), (30, 5, 7))
# makespan sums and speedups vary with the drawn graphs; more graphs per run
# keep their run-to-run spread small
GRAPHS_PER_SHAPE = 4
# every (rows, cols, n) with rows <= cols, 2 <= n <= rows * cols on these grids
SWEEP_GRIDS = tuple((r, c) for r in range(1, 5) for c in range(r, 6))
QAOA_LAYERS = 2


@dataclass
class Job:
    """One compile: a Circuit, or assembly text that goes through parse_asm."""
    name: str
    source: object
    opts: object
    qubits: int

    @property
    def sites(self) -> int:
        topo = self.opts.topology
        return topo.num_sites if topo is not None else self.qubits


def regular_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Edges of a random 3-regular graph on n vertices; for odd n, one drawn
    on n + 1 vertices with the extra vertex removed; below 4, all pairs."""
    if n < 4:
        return [(a, b) for a in range(n) for b in range(a + 1, n)]
    g = nx.random_regular_graph(3, n + n % 2, seed=int(rng.integers(2 ** 31)))
    return sorted((min(a, b), max(a, b)) for a, b in g.edges() if max(a, b) < n)


def make_jobs(pc, workload: str, seed: int) -> list[Job]:
    oracle = pc.CompileOptions(strategy="cls+agg", latency_mode="oracle",
                               max_width=3, seed=COMPILE_SEED)
    if workload == "qaoa-triangle":
        return [Job("qaoa-triangle", pc.make_bench("qaoa-triangle"), oracle, 3)]
    if workload == "trotter-lines":
        return [Job("maxcut-line-12", pc.make_bench("maxcut-line", 12, layers=2),
                    oracle, 12),
                Job("ising-chain-6", pc.make_bench("ising-chain", 6), oracle, 6)]
    if workload == "grid-frontend":
        rng = np.random.default_rng(seed)
        jobs = []
        for n, rows, cols in GRID_SHAPES:
            opts = pc.CompileOptions(strategy="cls", latency_mode="table",
                                     topology=pc.Topology(rows, cols),
                                     seed=COMPILE_SEED)
            for k in range(GRAPHS_PER_SHAPE):
                text = pc.emit_asm(pc.bench.qaoa_circuit(
                    n, regular_edges(n, rng), layers=QAOA_LAYERS))
                jobs.append(Job(f"qaoa3reg-{n}@{rows}x{cols}#{k}", text, opts, n))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def sweep_cases(pc, seed: int) -> list[tuple[int, int, object]]:
    """(rows, cols, interaction graph) for the grid-frontend placement sweep."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for rows, cols in SWEEP_GRIDS:
        for n in range(2, rows * cols + 1):
            c = pc.bench.qaoa_circuit(n, regular_edges(n, rng))
            cases.append((rows, cols, pc.build_interaction_graph(c)))
    return cases


def warmup_job(pc) -> Job:
    """The tiny table-mode compile every set-up runs once."""
    opts = pc.CompileOptions(strategy="cls", latency_mode="table",
                             seed=COMPILE_SEED)
    return Job("warmup", pc.make_bench("maxcut-line", 4), opts, 4)


def probe_circuits(pc, seed: int) -> dict[int, tuple[object, object]]:
    """grid-frontend's first 12- and 16-qubit circuits with their compile
    options, for the aggregator scale probe."""
    probes = {}
    for j in make_jobs(pc, "grid-frontend", seed):
        if j.qubits in (12, 16) and j.qubits not in probes:
            probes[j.qubits] = (pc.parse_asm(j.source), j.opts)
    return probes
