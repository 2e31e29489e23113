"""Initial qubit placement by recursive graph bisection and SWAP routing
onto a rectangular grid with nearest-neighbor connectivity.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .gates import Circuit, Gate, GateName
from .gdg import GDG, AggregatedInstruction, build_gdg
from .scheduler import Schedule

BISECT_RESTARTS = 8  # seeded random starts per Kernighan-Lin bisection


class MappingError(ValueError):
    pass


@dataclass(frozen=True)
class Topology:
    """Rectangular grid; sites are indexed row-major (site = r * cols + c)."""
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise MappingError(f"grid {self.rows}x{self.cols} needs rows and cols >= 1")

    @property
    def num_sites(self) -> int:
        return self.rows * self.cols

    def site(self, r: int, c: int) -> int:
        return r * self.cols + c

    def coords(self, s: int) -> tuple[int, int]:
        return divmod(s, self.cols)

    def adjacent(self, a: int, b: int) -> bool:
        return self.distance(a, b) == 1

    def distance(self, a: int, b: int) -> int:
        ra, ca = self.coords(a)
        rb, cb = self.coords(b)
        return abs(ra - rb) + abs(ca - cb)

    def shortest_path(self, a: int, b: int) -> list[int]:
        """Deterministic L-shaped path: reduce row distance first."""
        path = [a]
        ra, ca = self.coords(a)
        rb, cb = self.coords(b)
        while ra != rb:
            ra += 1 if rb > ra else -1
            path.append(self.site(ra, ca))
        while ca != cb:
            ca += 1 if cb > ca else -1
            path.append(self.site(ra, ca))
        return path

    @classmethod
    def parse(cls, text: str) -> "Topology":
        """Parse 'grid:RxC'."""
        try:
            kind, dims = text.split(":")
            r, c = dims.lower().split("x")
            if kind != "grid":
                raise ValueError
            return cls(int(r), int(c))
        except ValueError:
            raise MappingError(f"bad topology spec {text!r}; expected grid:RxC")

    @classmethod
    def line(cls, n: int) -> "Topology":
        return cls(1, n)


@dataclass
class InteractionGraph:
    vertices: list[int]
    weights: dict[tuple[int, int], int] = field(default_factory=dict)

    def weight(self, a: int, b: int) -> int:
        return self.weights.get((min(a, b), max(a, b)), 0)


def build_interaction_graph(c: Circuit) -> InteractionGraph:
    """Edge weight = number of 2-qubit gates on that pair."""
    weights: dict[tuple[int, int], int] = {}
    for g in c.gates:
        if len(g.qubits) == 2:
            key = (min(g.qubits), max(g.qubits))
            weights[key] = weights.get(key, 0) + 1
    return InteractionGraph(list(range(c.num_qubits)), weights)


def _cut_weight(gr: InteractionGraph, side_a: set[int]) -> int:
    return sum(w for (a, b), w in gr.weights.items()
               if (a in side_a) != (b in side_a))


def _kl_refine(gr: InteractionGraph, part_a: list[int], part_b: list[int]) -> None:
    """One round of Kernighan-Lin pair-swap refinement, in place.

    Swapping a and b gains D_a + D_b - 2 w(a, b), where D_v is v's crossing
    weight minus its same-side weight.
    """
    side = {v: 0 for v in part_a} | {v: 1 for v in part_b}
    improved = True
    while improved:
        improved = False
        d = dict.fromkeys(side, 0)
        for (x, y), w in gr.weights.items():
            if x in side and y in side:
                signed = w if side[x] != side[y] else -w
                d[x] += signed
                d[y] += signed
        best_gain, best_pair = 0, None
        for a, b in itertools.product(part_a, part_b):
            gain = d[a] + d[b] - 2 * gr.weight(a, b)
            if gain > best_gain:
                best_gain, best_pair = gain, (a, b)
        if best_pair:
            a, b = best_pair
            part_a[part_a.index(a)] = b
            part_b[part_b.index(b)] = a
            side[a], side[b] = 1, 0
            improved = True


def bisect(gr: InteractionGraph, seed: int = 0) -> tuple[list[int], list[int]]:
    """Balanced partition (sizes differ <= 1) minimizing crossing weight.

    Kernighan-Lin refinement from seeded random starts; deterministic.
    """
    verts = sorted(gr.vertices)
    if len(verts) < 2:
        raise MappingError("bisect needs at least 2 vertices")
    k = (len(verts) + 1) // 2
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(BISECT_RESTARTS):
        order = list(rng.permutation(verts))
        part_a, part_b = [int(v) for v in order[:k]], [int(v) for v in order[k:]]
        _kl_refine(gr, part_a, part_b)
        cut = _cut_weight(gr, set(part_a))
        key = (cut, sorted(part_a))
        if best is None or key < best[0]:
            best = (key, (sorted(part_a), sorted(part_b)))
    return best[1]


@dataclass
class _Region:
    """Rectangular sub-grid [r0, r1) x [c0, c1)."""
    r0: int
    r1: int
    c0: int
    c1: int

    @property
    def capacity(self) -> int:
        return (self.r1 - self.r0) * (self.c1 - self.c0)

    def sites(self, topo: Topology) -> list[int]:
        return [topo.site(r, c) for r in range(self.r0, self.r1)
                for c in range(self.c0, self.c1)]

    def split(self, need_a: int, need_b: int) -> tuple["_Region", "_Region"]:
        """Cut along the longer axis, else the other, into halves covering
        both demands."""
        row_cuts = [(_Region(self.r0, cut, self.c0, self.c1),
                     _Region(cut, self.r1, self.c0, self.c1))
                    for cut in range(self.r0 + 1, self.r1)]
        col_cuts = [(_Region(self.r0, self.r1, self.c0, cut),
                     _Region(self.r0, self.r1, cut, self.c1))
                    for cut in range(self.c0 + 1, self.c1)]
        cuts = (row_cuts + col_cuts if self.r1 - self.r0 >= self.c1 - self.c0
                else col_cuts + row_cuts)
        for a, b in cuts:
            if a.capacity >= need_a and b.capacity >= need_b:
                return a, b
        raise MappingError("grid region cannot accommodate both partitions")


def _subgraph(gr: InteractionGraph, verts: list[int]) -> InteractionGraph:
    vs = set(verts)
    return InteractionGraph(list(verts),
                            {e: w for e, w in gr.weights.items()
                             if e[0] in vs and e[1] in vs})


def initial_mapping(gr: InteractionGraph, topo: Topology,
                    seed: int = 0) -> dict[int, int]:
    """Recursively bisect the graph and the grid region in lockstep."""
    if len(gr.vertices) > topo.num_sites:
        raise MappingError(
            f"{len(gr.vertices)} qubits do not fit a {topo.rows}x{topo.cols} grid")
    mapping: dict[int, int] = {}

    def place(sub: InteractionGraph, region: _Region, depth: int):
        if not sub.vertices:
            return
        if len(sub.vertices) == 1:
            mapping[sub.vertices[0]] = region.sites(topo)[0]
            return
        part_a, part_b = bisect(sub, seed=seed + depth)
        reg_a, reg_b = region.split(len(part_a), len(part_b))
        place(_subgraph(sub, part_a), reg_a, depth + 1)
        place(_subgraph(sub, part_b), reg_b, depth + 1)

    place(gr, _Region(0, topo.rows, 0, topo.cols), 0)
    _refine_placement(gr, mapping, topo)
    return mapping


def _refine_placement(gr: InteractionGraph, mapping: dict[int, int],
                      topo: Topology) -> None:
    """Greedy hill climb on total weighted qubit distance, in place.

    Moves consider swapping two placed qubits or relocating one to a free
    site.  A move is priced by the change on the edges at the moved qubits;
    a swap leaves the length of the edge between them as it is.
    """
    coords = [topo.coords(s) for s in range(topo.num_sites)]
    nbrs: dict[int, list[tuple[int, int]]] = {q: [] for q in mapping}
    for (a, b), w in gr.weights.items():
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))

    def pull(q: int, site: int, skip: int | None = None) -> int:
        """Weighted distance from site to q's neighbours other than skip."""
        r, c = coords[site]
        total = 0
        for v, w in nbrs[q]:
            if v != skip:
                rv, cv = coords[mapping[v]]
                total += w * (abs(r - rv) + abs(c - cv))
        return total

    qubits = sorted(mapping)
    improved = True
    while improved:
        improved = False
        free = sorted(set(range(topo.num_sites)) - set(mapping.values()))
        best, best_move = 0, None
        for i, a in enumerate(qubits):
            sa = mapping[a]
            for b in qubits[i + 1:]:
                sb = mapping[b]
                c = (pull(a, sb, b) - pull(a, sa, b)
                     + pull(b, sa, a) - pull(b, sb, a))
                if c < best:
                    best, best_move = c, ("swap", a, b)
            here = pull(a, sa)
            for s in free:
                c = pull(a, s) - here
                if c < best:
                    best, best_move = c, ("move", a, s)
        if best_move:
            kind, a, x = best_move
            if kind == "swap":
                mapping[a], mapping[x] = mapping[x], mapping[a]
            else:
                mapping[a] = x
            improved = True


def permutation_operator(n: int, src: list[int], dst: list[int]) -> np.ndarray:
    """Matrix moving the content of wire src[i] to wire dst[i] (wire 0 = MSB).

    With src = initial sites and dst = final sites of each logical qubit, the
    routed circuit satisfies U_routed = P @ U_source_at_initial_placement up
    to global phase.
    """
    dim = 2 ** n
    p = np.zeros((dim, dim))
    for x in range(dim):
        bits = [(x >> (n - 1 - w)) & 1 for w in range(n)]
        new = list(bits)
        for s, d in zip(src, dst):
            new[d] = bits[s]
        y = sum(b << (n - 1 - w) for w, b in enumerate(new))
        p[y, x] = 1
    return p


@dataclass
class RoutingResult:
    gdg: GDG                      # routed GDG over physical sites
    initial_mapping: dict[int, int]
    final_mapping: dict[int, int]
    swap_count: int


def route_swaps(sched: Schedule, g: GDG, mapping: dict[int, int],
                topo: Topology) -> RoutingResult:
    """Walk the schedule in start order; SWAP non-adjacent operands together.

    Endpoints move toward each other along a shortest grid path, meeting in
    the middle; mapping updates are permanent.  The output GDG lives on
    physical sites and every 2-qubit instruction acts on adjacent sites.
    """
    log2phys = dict(mapping)
    phys2log = {s: q for q, s in log2phys.items()}
    out = GDG(topo.num_sites)
    last: dict[int, int] = {}
    swap_count = 0
    seq = 0

    def do_swap(sa: int, sb: int):
        nonlocal swap_count, seq
        la, lb = phys2log.get(sa), phys2log.get(sb)
        if la is not None:
            log2phys[la] = sb
        if lb is not None:
            log2phys[lb] = sa
        phys2log[sa], phys2log[sb] = lb, la
        gate = Gate(GateName.SWAP, (sa, sb))
        out.add_instruction(AggregatedInstruction([gate], seq=seq), last)
        seq += 1
        swap_count += 1

    order = sorted(sched.entries,
                   key=lambda e: (e[1], g.nodes[e[0]].instruction.seq, e[0]))
    for nid, _start in order:
        ins = g.nodes[nid].instruction
        qs = ins.qubits
        if len(qs) == 2:
            sa, sb = log2phys[qs[0]], log2phys[qs[1]]
            while topo.distance(sa, sb) > 1:
                path = topo.shortest_path(sa, sb)
                if topo.distance(sa, sb) > 2:
                    # both endpoints step inward; meet in the middle
                    do_swap(sa, path[1])
                    do_swap(sb, path[-2])
                else:
                    do_swap(sa, path[1])
                sa, sb = log2phys[qs[0]], log2phys[qs[1]]
        remapped = ins.remap({q: log2phys[q] for q in qs})
        remapped.seq = seq
        out.add_instruction(remapped, last)
        seq += 1

    return RoutingResult(out, dict(mapping), dict(log2phys), swap_count)
