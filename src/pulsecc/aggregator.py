"""Final instruction aggregation: monotonic-action selection iterated with
the optimal-control latency oracle.

An action merges two instructions that share qubits and sit adjacent on every
shared qubit chain (so the merged pulses are continuous).  An action is
monotonic when the merge cannot increase the critical path even if the merged
duration is conservatively the sum of the member durations.
"""
from __future__ import annotations

from dataclasses import dataclass

from .gdg import GDG

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

    Requires shared qubits, chain adjacency on every shared qubit, no outside
    path between the two (which would force a cycle), and a merged width
    within the instruction-width limit.
    """
    if a == b or a == g.ROOT or b == g.ROOT:
        return False
    na, nb = g.nodes.get(a), g.nodes.get(b)
    if na is None or nb is None:
        return False
    qa, qb = set(na.qubits), set(nb.qubits)
    shared = qa & qb
    if not shared:
        return False
    if len(qa | qb) > max_width:
        return False
    for q in shared:
        if na.children.get(q) != b and na.parents.get(q) != b:
            return False
    return g.can_contract({a, b})[0]


def _simulated_makespan(g: GDG, a: int, b: int) -> float:
    """Critical path after merging a and b with summed (unoptimized) duration."""
    trial = g.copy()
    dur = (trial.nodes[a].duration or 0.0) + (trial.nodes[b].duration or 0.0)
    merged = trial.contract({a, b})
    merged.duration = dur
    total, _ = trial.critical_path()
    return total


def is_monotonic(act: Action, g: GDG) -> bool:
    """Depth must not increase even with no pulse credit for the merge."""
    before, _ = g.critical_path()
    after = _simulated_makespan(g, act.node_a, act.node_b)
    return after <= before + 1e-9


def enumerate_actions(g: GDG, max_width: int = DEFAULT_MAX_WIDTH,
                      duration_hint=None) -> list[Action]:
    """All monotonic merge actions, with predicted critical-path gain.

    duration_hint(instruction) -> ns or None supplies cached oracle durations
    for already-synthesized merged unitaries; without a hint the conservative
    summed duration predicts zero gain.
    """
    before, _ = g.critical_path()
    seen = set()
    actions = []
    for node in g.real_nodes():
        for q, child in sorted(node.children.items()):
            pair = (min(node.id, child), max(node.id, child))
            if pair in seen:
                continue
            seen.add(pair)
            if not can_aggregate(pair[0], pair[1], g, max_width):
                continue
            after = _simulated_makespan(g, pair[0], pair[1])
            if after > before + 1e-9:
                continue
            gain = before - after
            if duration_hint is not None:
                trial = g.copy()
                merged = trial.contract(set(pair))
                hint = duration_hint(merged.instruction)
                if hint is not None:
                    merged.duration = hint
                    total, _ = trial.critical_path()
                    gain = max(gain, before - total)
            actions.append(Action(pair[0], pair[1], gain))
    return actions


def aggregate_loop(g: GDG, price, max_width: int = DEFAULT_MAX_WIDTH,
                   outer_cap: int = OUTER_LOOP_CAP,
                   tol_ns: float = CONVERGENCE_TOL_NS,
                   trace: list | None = None, cached=None) -> GDG:
    """Apply global-best monotonic actions until none remain, re-price the
    merged nodes, and repeat until durations converge.

    price(instruction) -> ns must accept any instruction of width
    <= max_width. cached(instruction) -> ns or None, when given, returns the
    price of an already synthesized instruction without synthesizing; it
    ranks actions by true predicted gain.
    """
    for _outer in range(outer_cap):
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
        if max_delta <= tol_ns:
            break
    return g
