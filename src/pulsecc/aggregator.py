"""Final instruction aggregation: monotonic-action selection iterated with
the optimal-control latency oracle.

An action merges two instructions that share qubits and sit adjacent on every
shared qubit chain (so the merged pulses are continuous).  An action is
monotonic when the merge cannot increase the critical path even if the merged
duration is conservatively the sum of the member durations.
"""
from __future__ import annotations

from dataclasses import dataclass

from .gdg import GDG, AggregatedInstruction

DEFAULT_MAX_WIDTH = 4       # q_L at desk scale; configurable up to 10
CONVERGENCE_TOL_NS = 0.1
OUTER_LOOP_CAP = 10


@dataclass(frozen=True)
class Action:
    node_a: int
    node_b: int
    predicted_gain_ns: float


def can_aggregate(a: int, b: int, g: GDG, max_width: int = DEFAULT_MAX_WIDTH) -> bool:
    """True iff merging a and b keeps pulses continuous and width bounded.

    Requires shared qubits, a merged width within the instruction-width
    limit, and a legal contraction: on a shared qubit, contiguity is chain
    adjacency, and no outside path may run between the two (which would
    force a cycle).
    """
    if a == b or a == g.ROOT or b == g.ROOT:
        return False
    na, nb = g.nodes.get(a), g.nodes.get(b)
    if na is None or nb is None:
        return False
    qa, qb = set(na.qubits), set(nb.qubits)
    if not qa & qb:
        return False
    if len(qa | qb) > max_width:
        return False
    return g.can_contract({a, b})[0]


def _heads_tails(g: GDG) -> tuple[dict, dict, float]:
    """Earliest finish (head) and longest path to a sink (tail) of every node,
    each counting the node's own duration, and the makespan."""
    order = g.topological_order()
    head = {g.ROOT: 0.0}
    for nid in order:
        start = max(head[p] for p in g.predecessors(nid))
        head[nid] = start + (g.nodes[nid].duration or 0.0)
    tail: dict[int, float] = {}
    for nid in reversed(order):
        end = max((tail[c] for c in g.successors(nid)), default=0.0)
        tail[nid] = end + (g.nodes[nid].duration or 0.0)
    return head, tail, max(head.values())


def enumerate_actions(g: GDG, max_width: int = DEFAULT_MAX_WIDTH,
                      duration_hint=None) -> list[Action]:
    """All monotonic merge actions, with predicted critical-path gain.

    Merging parent a into child b at the summed duration is monotonic when
    the longest path through the merged node, max head of its outside parents
    + d_a + d_b + max tail of its outside children, fits the makespan: every
    path avoiding a and b keeps its length.  Such a merge never shortens the
    critical path, so its gain is zero unless duration_hint(instruction) -> ns
    or None prices the merged instruction from cached oracle durations.
    """
    head, tail, makespan = _heads_tails(g)
    seen = set()
    actions = []
    for a in g.real_nodes():
        for child in a.children.values():
            pair = (min(a.id, child), max(a.id, child))
            if pair in seen:
                continue
            seen.add(pair)
            b = g.nodes[child]
            start = max(head[p] for n in (a, b) for p in n.parents.values()
                        if p not in pair)
            end = max((tail[c] for n in (a, b) for c in n.children.values()
                       if c not in pair), default=0.0)
            through = start + (a.duration or 0.0) + (b.duration or 0.0) + end
            if through > makespan + 1e-9:
                continue
            if not can_aggregate(pair[0], pair[1], g, max_width):
                continue
            gain = 0.0
            if duration_hint is not None:
                merged_ins = AggregatedInstruction(
                    a.instruction.gates + b.instruction.gates,
                    min(a.instruction.seq, b.instruction.seq))
                hint = duration_hint(merged_ins)
                if hint is not None:
                    trial = g.copy()
                    trial.contract(set(pair)).duration = hint
                    gain = max(0.0, makespan - trial.critical_path()[0])
            actions.append(Action(pair[0], pair[1], gain))
    return actions


def aggregate_loop(g: GDG, price, max_width: int = DEFAULT_MAX_WIDTH,
                   trace: list | None = None, cached=None) -> GDG:
    """Apply global-best monotonic actions until none remain, re-price the
    merged nodes, and repeat until durations converge.

    price(instruction) -> ns must accept any instruction of width
    <= max_width. cached(instruction) -> ns or None, when given, returns the
    price of an already synthesized instruction without synthesizing; it
    ranks actions by true predicted gain.
    """
    for _outer in range(OUTER_LOOP_CAP):
        changed: set[int] = set()
        while True:
            actions = enumerate_actions(g, max_width, duration_hint=cached)
            if not actions:
                break
            best = max(actions, key=lambda a: (a.predicted_gain_ns,
                                               -a.node_a, -a.node_b))
            dur = (g.nodes[best.node_a].duration or 0.0) + \
                  (g.nodes[best.node_b].duration or 0.0)
            merged = g.contract({best.node_a, best.node_b})
            known = cached(merged.instruction) if cached else None
            merged.duration = known if known is not None else dur
            changed.add(merged.id)
            if trace is not None:
                trace.append({"merged": [best.node_a, best.node_b],
                              "into": merged.id,
                              "predicted_gain_ns": best.predicted_gain_ns})
        max_delta = 0.0
        for nid in sorted(changed):
            node = g.nodes.get(nid)
            if node is None:
                continue
            fresh = float(price(node.instruction))
            max_delta = max(max_delta, abs(fresh - (node.duration or 0.0)))
            node.duration = fresh
        if max_delta <= CONVERGENCE_TOL_NS:
            break
    return g
