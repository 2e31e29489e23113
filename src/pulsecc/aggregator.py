"""Final instruction aggregation: monotonic-action selection iterated with
the optimal-control latency oracle.

An action merges a set of instructions into one: a parent-child pair, a node
with all its parents, or a node with all its children.  The set must be
contractible (contiguous on every qubit chain it touches, so the merged pulses
are continuous, and acyclic) and fit the width limit.  An action is monotonic
when the merge cannot increase the critical path even if the merged duration
is conservatively the set's internal critical path: the longest path through
its members alone at their current durations, asap_finishes over them in
seq order (GDG.longest_paths applies the same rule to the whole graph for
critical_path, and GDG.contract joins a merge's gates in that order).  The
loop applies one such merge at a time, then re-prices every merged
instruction with the oracle and repeats until the prices settle.
"""
from __future__ import annotations

from dataclasses import dataclass

from .gdg import GDG
from .latency import asap_finishes

MAX_WIDTH_LIMIT = 10        # widest merge a compile may ask for
DEFAULT_MAX_WIDTH = 4       # q_L at desk scale; configurable up to the limit
CONVERGENCE_TOL_NS = 0.1
OUTER_LOOP_CAP = 10


@dataclass(frozen=True)
class Action:
    """Merge of the nodes in members, by ascending id, into one instruction.

    span_ns is the members' internal critical path, the merged node's
    duration until it is re-priced.  aggregate_loop applies the action with
    the lexicographically smallest members.
    """
    members: tuple[int, ...]
    span_ns: float


def _fits(members, g: GDG, max_width: int) -> bool:
    """Merged width within the limit and a legal contraction."""
    qubits = {q for m in members for q in g.nodes[m].qubits}
    return len(qubits) <= max_width and g.can_contract(members)[0]


def _candidates(g: GDG):
    """Ascending member tuples, each once: every parent-child pair, every
    node with all its parents and every node with all its children."""
    seen = set()
    for n in g.real_nodes():
        children = set(n.children.values())
        parents = set(n.parents.values())
        for others in [*({c} for c in children), parents, children]:
            members = tuple(sorted(others | {n.id}))
            if len(members) > 1 and members not in seen:
                seen.add(members)
                yield members


def enumerate_actions(g: GDG, max_width: int = DEFAULT_MAX_WIDTH) -> list[Action]:
    """All monotonic merge actions.

    Merging a set at its internal critical path is monotonic when the longest
    path through the merged node, max head of its outside parents + that path
    + max tail of its outside children, fits the makespan: every path avoiding
    the set keeps its length.  For a parent-child pair the internal path is
    d_a + d_b.
    """
    head, tail = g.longest_paths()
    makespan = max(head.values(), default=0.0)
    actions = []
    for members in _candidates(g):
        nodes = sorted((g.nodes[m] for m in members), key=lambda n: n.seq)
        start = max((head[p] for n in nodes for p in n.parents.values()
                     if p not in members), default=0.0)
        end = max((tail[c] for n in nodes for c in n.children.values()
                   if c not in members), default=0.0)
        span = max(asap_finishes((n.qubits, n.duration or 0.0) for n in nodes))
        if start + span + end > makespan + 1e-9:
            continue
        if _fits(members, g, max_width):
            actions.append(Action(members, span))
    return actions


def aggregate_loop(g: GDG, price, max_width: int = DEFAULT_MAX_WIDTH,
                   trace: list | None = None) -> GDG:
    """Apply monotonic actions, smallest member tuple first, until none
    remain, re-price the merged nodes, and repeat until durations converge.

    price(instruction) -> ns must accept any instruction of width
    <= max_width.  A merged node takes its members' internal critical path
    until re-priced; every node the loop creates is re-priced before it
    returns.
    """
    for _outer in range(OUTER_LOOP_CAP):
        changed: set[int] = set()
        while True:
            actions = enumerate_actions(g, max_width)
            if not actions:
                break
            best = min(actions, key=lambda a: a.members)
            merged = g.contract(best.members)
            merged.duration = best.span_ns
            changed.add(merged.id)
            if trace is not None:
                trace.append({"merged": list(best.members), "into": merged.id})
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
