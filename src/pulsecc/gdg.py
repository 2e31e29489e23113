"""Gate dependence graph: per-qubit chains, contraction, and critical-path
queries.

Each node holds an instruction (a single gate is the degenerate case).  For
every qubit an instruction touches, parents[q]/children[q] link the node into
that qubit's chain.  A chain starts at the node with no parents[q] entry,
recorded in GDG.first[q], and ends at the node with no children[q] entry.

A node's seq belongs to the graph, and every parent's seq is below its
child's: an added node takes its own id, which is above its parents', and a
merged node takes its members' smallest seq, so live seqs are unique.  When
that puts a parent of the merged node above it, contract restores the order
locally by permuting the seqs of the nodes between the two (Pearce and
Kelly's dynamic topological sort).  So the seq order is the topological
order: topological_order sorts, contract joins a merge's gates by seq, and
can_contract's cycle search stops at nodes past the members' seqs.  Every
add and contract appends the largest id and deletions keep the order, so
GDG.nodes stays in id order.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gates import Circuit, Gate, gates_unitary
from .latency import LatencyError, asap_finishes


class GDGError(ValueError):
    """Structural violation or illegal mutation of a GDG."""


@dataclass
class AggregatedInstruction:
    """A contiguous sub-circuit on a bounded qubit set with one target unitary.

    The gate list never changes after construction, so qubits, shape and the
    target unitary are computed once.  qubits, in order of first use, is the
    instruction's one wire order: the target unitary's wires, and so its
    pulse's, are positions in it.  The shape holds, per gate, its name,
    params, operands as positions in qubits and CUSTOM matrix bytes: two
    instructions of equal shape are the same gates up to a relabelling of
    wires, which keeps their unitary, whether they are diagonal, whether two
    of them commute (given where their wires meet) and their table price.
    """
    gates: list[Gate] = field(default_factory=list)

    @cached_property
    def qubits(self) -> tuple[int, ...]:
        """Operand qubits in order of first appearance."""
        return tuple(dict.fromkeys(q for g in self.gates for q in g.qubits))

    @cached_property
    def shape(self) -> tuple:
        """Per gate (name, params, operand positions in qubits, CUSTOM matrix
        bytes or None)."""
        pos = {q: i for i, q in enumerate(self.qubits)}
        return tuple((g.name.value, g.params, tuple(pos[q] for q in g.qubits),
                      None if g.custom_matrix is None
                      else np.asarray(g.custom_matrix, dtype=complex).tobytes())
                     for g in self.gates)

    @cached_property
    def target_unitary(self) -> np.ndarray:
        """Unitary of the gate list, its wires in qubits' order."""
        return gates_unitary(self.gates, self.qubits)

    @property
    def context(self) -> list[int]:
        """target_unitary's wire order."""
        return list(self.qubits)

    def remap(self, perm: dict[int, int]) -> "AggregatedInstruction":
        """The same gates on wires relabelled through perm, which keeps first
        use order and so the shape and the unitary; each is carried over if
        already computed."""
        ins = AggregatedInstruction([g.remap(perm) for g in self.gates])
        ins.shape = self.shape
        if "target_unitary" in self.__dict__:
            ins.target_unitary = self.target_unitary
        return ins

    def label(self) -> str:
        if len(self.gates) == 1:
            return repr(self.gates[0])
        return f"[{len(self.gates)} gates on {','.join(map(str, self.qubits))}]"


@dataclass
class GDGNode:
    id: int
    instruction: AggregatedInstruction
    seq: int  # see the module docstring
    parents: dict[int, int] = field(default_factory=dict)
    children: dict[int, int] = field(default_factory=dict)
    duration: float | None = None

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.instruction.qubits


class GDG:
    """Dependence DAG of instructions with per-qubit parent/child chains."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.nodes: dict[int, GDGNode] = {}
        self.first: dict[int, int] = {}  # qubit -> first node of its chain
        self._next_id = 1

    # -- construction ------------------------------------------------------

    def _link(self, parent: int | None, q: int, node: GDGNode):
        """Put node after parent on q's chain, or first when parent is None."""
        if parent is None:
            self.first[q] = node.id
        else:
            node.parents[q] = parent
            self.nodes[parent].children[q] = node.id

    def add_instruction(self, ins: AggregatedInstruction,
                        last_on: dict[int, int]) -> GDGNode:
        node = GDGNode(self._next_id, ins, self._next_id)
        self._next_id += 1
        for q in ins.qubits:
            self._link(last_on.get(q), q, node)
            last_on[q] = node.id
        self.nodes[node.id] = node
        return node

    # -- queries -----------------------------------------------------------

    def real_nodes(self) -> list[GDGNode]:
        """Every node, by id."""
        return list(self.nodes.values())

    def qubit_path(self, q: int) -> list[int]:
        """Node ids on qubit q's chain, in chain order."""
        path = []
        cur = self.first.get(q)
        while cur is not None:
            path.append(cur)
            cur = self.nodes[cur].children.get(q)
        return path

    def qubit_paths(self) -> dict[int, list[int]]:
        return {q: self.qubit_path(q) for q in sorted(self.first)}

    def successors(self, nid: int) -> set[int]:
        return set(self.nodes[nid].children.values())

    def topological_order(self) -> list[int]:
        """Node ids by seq, which every parent has below its child's."""
        return sorted(self.nodes, key=lambda i: self.nodes[i].seq)

    def flatten(self) -> Circuit:
        """Circuit reading every node's gates in topological order."""
        c = Circuit(self.num_qubits)
        for nid in self.topological_order():
            for g in self.nodes[nid].instruction.gates:
                c.append(g)
        return c

    # -- mutation ----------------------------------------------------------

    def copy(self) -> "GDG":
        """Independent links, first entries and durations; the instructions
        are shared, as nothing changes one once it is in a graph."""
        g = GDG(self.num_qubits)
        g._next_id = self._next_id
        g.first = dict(self.first)
        g.nodes = {nid: GDGNode(nid, n.instruction, n.seq, dict(n.parents),
                                dict(n.children), n.duration)
                   for nid, n in self.nodes.items()}
        return g

    def can_contract(self, node_ids: Iterable[int]) -> tuple[bool, str]:
        """The one legality test for contraction: the members are contiguous
        on every qubit chain they touch (on each, only one member's parent
        there is outside the set or missing), and no path leaving them comes
        back."""
        members = set(node_ids)
        for nid in members:
            if nid not in self.nodes:
                return False, f"unknown node {nid}"
        entered, split = set(), set()
        for nid in members:
            node = self.nodes[nid]
            for q in node.qubits:
                if node.parents.get(q) not in members:
                    (split if q in entered else entered).add(q)
        if split:
            return False, f"members not contiguous on q{min(split)} chain"
        # an outside path from one member back into another would close a
        # cycle; no such path passes a seq above every member's
        top = max(self.nodes[nid].seq for nid in members)
        outside_starts = {c for nid in members for c in self.successors(nid)
                          if c not in members}
        stack, seen = list(outside_starts), set(outside_starts)
        while stack:
            cur = stack.pop()
            if cur in members:
                return False, "contraction would create a cycle"
            if self.nodes[cur].seq > top:
                continue
            for c in self.successors(cur):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return True, ""

    def contract(self, node_ids: Iterable[int]) -> GDGNode:
        """Replace the members by one node joining their gates in seq order.

        Raises GDGError when can_contract rejects the set.
        """
        members = set(node_ids)
        if len(members) == 1:
            return self.nodes[members.pop()]
        ok, why = self.can_contract(members)
        if not ok:
            raise GDGError(why)
        order = sorted(members, key=lambda i: self.nodes[i].seq)
        gates = [g for nid in order for g in self.nodes[nid].instruction.gates]
        merged = AggregatedInstruction(gates)
        seq = self.nodes[order[0]].seq

        node = GDGNode(self._next_id, merged, seq)
        self.nodes[node.id] = node  # _link looks it up as a parent
        self._next_id += 1
        # boundary links: per qubit, the parent entering the members (none at
        # the chain's start) and the child leaving them (none at its end)
        enter = {q: p for nid in members
                 for q, p in self.nodes[nid].parents.items() if p not in members}
        leave = {q: c for nid in members
                 for q, c in self.nodes[nid].children.items() if c not in members}
        for q in merged.qubits:
            self._link(enter.get(q), q, node)
            if q in leave:
                self._link(node.id, q, self.nodes[leave[q]])
        for nid in members:
            del self.nodes[nid]
        # leaving children follow a member, so only an entering parent can
        # sit above the merged node's seq
        late = {p for p in enter.values() if self.nodes[p].seq > seq}
        if late:
            self._reorder(node, late)
        return node

    def _reorder(self, node: GDGNode, late: set[int]):
        """Restore seq order after node gained the parents late, whose seqs
        lie above its own: the nodes node reaches below the highest late seq
        (forward) move after everything that reaches late above node's seq
        (backward), each set keeping its own order, on the same seqs.  The
        forward set's seqs only grow and the backward set's only shrink, and
        no other node's seq changes."""
        lo, hi = node.seq, max(self.nodes[p].seq for p in late)

        def reach(start, links, inside):
            seen, stack = set(start), list(start)
            while stack:
                for nxt in links(self.nodes[stack.pop()]).values():
                    if nxt not in seen and inside(self.nodes[nxt].seq):
                        seen.add(nxt)
                        stack.append(nxt)
            return sorted((self.nodes[i] for i in seen), key=lambda n: n.seq)

        forward = reach({node.id}, lambda n: n.children, lambda s: s < hi)
        backward = reach(late, lambda n: n.parents, lambda s: s > lo)
        pool = sorted(n.seq for n in forward + backward)
        for n, s in zip(backward + forward, pool):
            n.seq = s

    # -- weighting ---------------------------------------------------------

    def set_durations(self, price):
        """Assign durations from a callable instruction -> ns.

        Raises LatencyError on a price that is NaN, infinite or negative: no
        schedule can be built from it."""
        for node in self.real_nodes():
            ns = float(price(node.instruction))
            if not 0.0 <= ns < math.inf:
                raise LatencyError(f"price {ns} ns of {node.instruction.label()} "
                                   f"is not a finite non-negative duration")
            node.duration = ns

    def longest_paths(self) -> tuple[dict[int, float], dict[int, float]]:
        """Per node, the longest duration-weighted path from a chain start
        through it (head, its earliest finish) and from it to a chain end
        (tail), each counting its own duration; an unpriced node counts 0.
        Heads are asap_finishes in seq order and tails in reverse."""
        ids = self.topological_order()
        items = [(self.nodes[i].qubits, self.nodes[i].duration or 0.0) for i in ids]
        head = dict(zip(ids, asap_finishes(items)))
        tail = dict(zip(ids[::-1], asap_finishes(items[::-1])))
        return head, tail

    def critical_path(self) -> tuple[float, list[int]]:
        """Longest duration-weighted path from a chain start to a chain end.

        The witness ends at the smallest id whose head is within 1e-12 of the
        longest, and walks back the same way through each node's parents to a
        chain start.  Raises GDGError on an unpriced node.
        """
        for nid, node in self.nodes.items():
            if node.duration is None:
                raise GDGError(f"node {nid} has no duration")
        head, _ = self.longest_paths()
        path: list[int] = []
        step = set(self.nodes)
        while step:
            longest = max(head[i] for i in step)
            path.append(min(i for i in step if head[i] >= longest - 1e-12))
            step = set(self.nodes[path[-1]].parents.values())
        return max(head.values(), default=0.0), path[::-1]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "num_qubits": self.num_qubits,
            "nodes": [
                {
                    "id": n.id,
                    "label": n.instruction.label(),
                    "qubits": list(n.qubits),
                    "gates": [repr(g) for g in n.instruction.gates],
                    "duration_ns": n.duration,
                }
                for n in self.nodes.values()
            ],
            "edges_by_qubit": {
                str(q): [[n.id, n.children[q]] for n in self.nodes.values()
                         if q in n.children]
                for q in range(self.num_qubits)
            },
        }
        return json.dumps(doc, indent=2)


def build_gdg(c: Circuit) -> GDG:
    """One node per gate, linked into per-qubit chains in circuit order."""
    g = GDG(c.num_qubits)
    last: dict[int, int] = {}
    for gate in c.gates:
        g.add_instruction(AggregatedInstruction([gate]), last)
    return g
