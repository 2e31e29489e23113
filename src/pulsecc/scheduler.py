"""Commutativity-aware logical scheduling.

An event-driven loop draws candidates only from the current commutation
groups of the qubits that are free at the current time: a node is a
candidate when every operand qubit is free and has the node in its current
group.  A node's candidacy reads only its own qubits' state, so the loop
keeps the candidates as a ready set and re-checks only the current groups of
qubits that were scheduled, freed by the clock or refilled since the last
look; a min-heap of finish times moves the clock.  When no two candidates
share a qubit, all of them start, in id order.  Only when two do is the
conflict resolved by maximum matching on the computational graph (qubits as
vertices, 2-qubit candidates as edges, 1-qubit candidates as self-loops).
Each step therefore costs time in the frontier, not in the graph;
`list_schedule`'s singleton groups never conflict, so it never builds a
matching.
"""
from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass

import networkx as nx

from .commute import singleton_groups
from .gdg import GDG


class ScheduleError(RuntimeError):
    """Deadlock: the scheduling frontier cannot make progress."""


@dataclass
class Schedule:
    entries: list[tuple[int, float]]  # (node id, start_ns) in start order
    makespan_ns: float

    def to_json(self, g: GDG) -> str:
        rows = []
        for nid, start in self.entries:
            node = g.nodes[nid]
            rows.append({
                "node": nid,
                "label": node.instruction.label(),
                "qubits": list(node.qubits),
                "start_ns": start,
                "duration_ns": node.duration,
            })
        return json.dumps({"makespan_ns": self.makespan_ns, "entries": rows},
                          indent=2)

    def timeline(self, g: GDG, width: int = 60) -> str:
        """ASCII per-qubit timeline for docs and debugging."""
        span = max(self.makespan_ns, 1e-9)
        lanes = {q: [" "] * width for q in range(g.num_qubits)}
        for nid, start in self.entries:
            node = g.nodes[nid]
            lo = int(start / span * (width - 1))
            hi = max(lo + 1, int((start + (node.duration or 0)) / span * (width - 1)))
            mark = str(nid)[-1]
            for q in node.qubits:
                for i in range(lo, min(hi, width)):
                    lanes[q][i] = mark
        lines = [f"q{q}: |{''.join(lane)}|" for q, lane in sorted(lanes.items())]
        lines.append(f"makespan: {self.makespan_ns:.1f} ns")
        return "\n".join(lines)


def max_matching(edges: list[tuple[int, int, int]],
                 self_loops: list[tuple[int, int]]) -> set[int]:
    """Maximum-cardinality matching over edges (qa, qb, node) of the
    computational graph, then self-loops (q, node) on free vertices.

    Parallel edges on one vertex pair keep the lowest node id.  Among
    self-loops competing for one vertex, the lowest node id wins.
    """
    best_edge: dict[tuple[int, int], int] = {}
    for qa, qb, nid in sorted(edges, key=lambda e: e[2]):
        key = (min(qa, qb), max(qa, qb))
        best_edge.setdefault(key, nid)
    graph = nx.Graph()
    for (qa, qb), nid in sorted(best_edge.items()):
        graph.add_edge(qa, qb, node=nid)
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    chosen = set()
    used = set()
    for qa, qb in matching:
        chosen.add(graph.edges[qa, qb]["node"])
        used.update((qa, qb))
    for q, nid in sorted(self_loops, key=lambda s: s[1]):
        if q not in used:
            chosen.add(nid)
            used.add(q)
    return chosen


def cls_schedule(g: GDG, groups: dict[int, list[list[int]]]) -> Schedule:
    """Commutativity-aware schedule; durations must already be set on g."""
    unscheduled = {n.id for n in g.real_nodes()}
    queues = {q: deque(lst) for q, lst in groups.items()}
    current: dict[int, set[int]] = {q: set() for q in queues}
    busy_until: dict[int, float] = {q: 0.0 for q in range(g.num_qubits)}
    finish: list[tuple[float, int]] = []  # (busy_until[q], q) as each is set
    entries: list[tuple[int, float]] = []
    now = 0.0
    ready: set[int] = set()
    changed = set(queues)  # qubits scheduled, freed or refilled since the last look

    while unscheduled:
        for q in changed:
            while not current[q] and queues[q]:
                current[q] = set(queues[q].popleft())
        # a node's candidacy reads only its own qubits' state
        for nid in {nid for q in changed for nid in current[q]}:
            if all(busy_until[q] <= now + 1e-12 and nid in current[q]
                   for q in g.nodes[nid].qubits):
                ready.add(nid)
            else:
                ready.discard(nid)
        changed = set()
        candidates = sorted(ready)
        instant = False  # a zero-duration placement may free successors now
        if candidates:
            edges, self_loops = [], []
            seen: set[int] = set()
            conflict = False
            for nid in candidates:
                qs = g.nodes[nid].qubits
                conflict = conflict or not seen.isdisjoint(qs)
                seen.update(qs)
                if len(qs) == 1:
                    self_loops.append((qs[0], nid))
                else:
                    edges.append((qs[0], qs[1], nid))
            # disjoint candidates are their own maximum matching
            chosen = (sorted(max_matching(edges, self_loops)) if conflict
                      else candidates)
            claimed: set[int] = set()
            for nid in chosen:
                node = g.nodes[nid]
                if node.duration is None:
                    raise ScheduleError(f"node {nid} has no duration")
                # wide nodes enter the matching as one edge; guard the rest
                if any(q in claimed for q in node.qubits):
                    continue
                claimed.update(node.qubits)
                entries.append((nid, now))
                unscheduled.discard(nid)
                ready.discard(nid)
                instant = instant or node.duration <= 1e-12
                for q in node.qubits:
                    busy_until[q] = now + node.duration
                    heapq.heappush(finish, (busy_until[q], q))
                    current[q].discard(nid)
            changed = claimed
        if unscheduled and not instant:
            # a qubit is only rescheduled once free, so every entry above the
            # free line is its qubit's current busy_until
            while finish and finish[0][0] <= now + 1e-12:
                heapq.heappop(finish)
            if not finish:
                frontier = sorted(unscheduled)[:10]
                raise ScheduleError(
                    f"scheduling deadlock; stuck frontier (first 10): {frontier}")
            now = finish[0][0]
            while finish and finish[0][0] <= now + 1e-12:
                changed.add(heapq.heappop(finish)[1])
    makespan = max(busy_until.values(), default=0.0)
    return Schedule(entries, makespan)


def list_schedule(g: GDG) -> Schedule:
    """ASAP baseline: cls_schedule with singleton commutation groups."""
    return cls_schedule(g, singleton_groups(g))
