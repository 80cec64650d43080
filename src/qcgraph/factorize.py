"""Cutting graphs, restricting cocycles along the cut, equivalence under
factorization, functoriality, and the characterization of external classes.

A decomposition cuts a set of internal edges and groups the parent's
components, once those edges are ignored, into two parts.  Admissible
weights decompose as a disjoint union over the cut-edge weights j'' of
products of the parts' weight sets, and cocycles restrict to the first
part once a complementary weight on the second part is fixed.

The verbs read every restriction from the parent table, in the parent's
edge coordinates: for a twisted cocycle t, the restriction's value at a
part-1 weight and cycle is t.value at the glued parent weight and the
transported cycle, and a restricted class is pinned down by its values at
the fixed pairs of _restricted_pairs.  verify_characterization lifts only
the external class and ends with an F2 rank per orbit.  A cut graph is
built only for the target of verify_functoriality and in restrict_cocycle
and decompose_weights, which build the restricted objects as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Iterator, Optional

from .circle import CircleValue
from .cohomology import CocycleTable, is_twisted_cocycle
from .errors import CapExceeded, NotACocycle, NotGammaN, WeightMismatch
from .external import construct_external_cocycle, external_target
from .f2 import f2_rank
from .graph import CutResult, Graph, cut_edges
from .weights import Instance, WeightVector, act, enumerate_admissible, fixed_edges, instance

Jpp = tuple[int, ...]  # doubled weights on the cut edges, in cut order


@dataclass(frozen=True)
class Decomposition:
    """A cut of the graph with its components grouped into two parts, read
    in the parent's edge coordinates.

    cut holds the cut edge ids in canonical order and side1 the part-1
    vertices, a union of the parent's components without the cut edges.
    coords holds, per part, the parent edge index of each of its edges in
    cut-graph order; a cut edge gives a leg to each endpoint's part.  inside
    masks part 1's uncut edges.  The cut graph and parts are built on use.
    """

    graph: Graph
    cut: tuple[str, ...]
    side1: frozenset[str]
    coords: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )
    inside: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cut = {self.graph.edge_index(f) for f in self.cut}
        coords: tuple[list[int], list[int]] = ([], [])
        inside = 0
        for j, (_, a, b) in enumerate(self.graph.edges):
            coords[a not in self.side1].append(j)
            if j in cut:
                coords[b not in self.side1].append(j)
            elif a in self.side1:
                inside |= 1 << j
        object.__setattr__(self, "coords", (tuple(coords[0]), tuple(coords[1])))
        object.__setattr__(self, "inside", inside)

    @cached_property
    def cut_result(self) -> CutResult:
        return cut_edges(self.graph, self.cut, allow_leaf=True)

    @cached_property
    def part1(self) -> Graph:
        return self.cut_result.graph.subgraph(self.side1)

    @cached_property
    def part2(self) -> Graph:
        return self.cut_result.graph.subgraph(set(self.graph.vertices) - self.side1)

    def part_boundary(
        self, part: Graph, boundary: dict[str, int], jpp: Jpp
    ) -> dict[str, int]:
        """Boundary weights for a part: inherited entries plus j'' on the
        new legs."""
        pairing = self.cut_result.pairing
        at_leg = {v: x for f, x in zip(self.cut, jpp) for v in pairing[f]}
        out: dict[str, int] = {}
        for v in part.boundary_vertices:
            if v in boundary:
                out[v] = boundary[v]
            elif v in at_leg:
                out[v] = at_leg[v]
            else:
                raise WeightMismatch(f"no weight for boundary vertex {v!r}")
        return out

    def part1_weight(self, w: WeightVector) -> WeightVector:
        """A parent weight in part-1 coordinates."""
        return tuple(w[j] for j in self.coords[0])

    def part1_cycle(self, lam: int) -> int:
        """A parent cycle inside `inside` as a cycle of part 1."""
        return sum(1 << i for i, j in enumerate(self.coords[0]) if lam >> j & 1)

    def to_original_cycle(self, mu: int) -> int:
        """Transport a cycle of part 1 to the original graph (the inclusion
        on homology)."""
        lam = 0
        for i, j in enumerate(self.coords[0]):
            lam |= (mu >> i & 1) << j
        if lam & ~self.inside:
            raise ValueError("a leg cannot lie on a cycle")
        return lam

    def glue_weights(self, w1: WeightVector, w2: WeightVector, jpp: Jpp) -> WeightVector:
        """Recombine part weights into a weight of the original graph."""
        at_cut = dict(zip((self.graph.edge_index(f) for f in self.cut), jpp))
        values = dict(at_cut)
        for coords, w in zip(self.coords, (w1, w2)):
            for j, x in zip(coords, w):
                if j not in at_cut:
                    values[j] = x
                elif x != at_cut[j]:
                    leg = f"a leg of {self.graph.edges[j][0]!r}"
                    raise WeightMismatch(f"{leg} carries {x}, expected {at_cut[j]}")
        return tuple(values[j] for j in range(self.graph.n_edges))


def make_decomposition(
    graph: Graph, cut: set[str] | list[str], side1: set[int]
) -> Decomposition:
    """Cut the given edges and put the components with indices in side1
    (by the order of Graph.components) into part 1."""
    ordered = cut_edges(graph, cut).cut  # refuses unknown and leaf edges
    comps = graph.components(sum(1 << graph.edge_index(f) for f in ordered))
    parts = [c for i, c in enumerate(comps) if i in side1]
    return Decomposition(graph, ordered, frozenset().union(*parts))


def all_decompositions(
    graph: Graph, cap: int = 4096
) -> Iterator[Decomposition]:
    """All (cut subset, bipartition) decompositions, cap-bounded."""
    cuttable = graph.cuttable_edges()
    total = 0
    for r in range(len(cuttable) + 1):
        for cut in combinations(cuttable, r):
            comps = graph.components(sum(1 << graph.edge_index(f) for f in cut))
            ncomp = len(comps)
            total += 1 << ncomp
            if total > cap:
                raise CapExceeded(f"decomposition enumeration beyond cap {cap}")
            for side_bits in range(1 << ncomp):
                parts = [c for i, c in enumerate(comps) if side_bits >> i & 1]
                yield Decomposition(graph, cut, frozenset().union(*parts))


def jpp_values(k: int, dec: Decomposition) -> Iterator[Jpp]:
    return product(range(k + 1), repeat=len(dec.cut))


def decompose_weights(
    graph: Graph, k: int, boundary: dict[str, int], dec: Decomposition
) -> dict[Jpp, tuple[list[WeightVector], list[WeightVector]]]:
    """Per cut-edge weight assignment, the admissible sets of both parts."""
    out = {}
    for jpp in jpp_values(k, dec):
        b1 = dec.part_boundary(dec.part1, boundary, jpp)
        b2 = dec.part_boundary(dec.part2, boundary, jpp)
        out[jpp] = (
            enumerate_admissible(dec.part1, k, b1),
            enumerate_admissible(dec.part2, k, b2),
        )
    return out


def restrict_cocycle(
    t: CocycleTable, dec: Decomposition, jpp: Jpp, fixed: WeightVector
) -> CocycleTable:
    """Restriction to part 1 with the part-2 weight held fixed.

    Entry at (cycle of part 1, weight of part 1) is the original table's
    value at the transported cycle and the glued weight.
    """
    part1 = dec.part1
    inst = instance(part1, t.k, dec.part_boundary(part1, t.boundary, jpp))
    table = {}
    for b in inst.basis:
        lam = dec.to_original_cycle(b)
        for w in inst.weights:
            glued = dec.glue_weights(w, fixed, jpp)
            table[(b, w)] = t.value(glued, lam)
    return CocycleTable(part1, inst, table)


def restriction_plan(
    dec: Decomposition, weights: Iterable[WeightVector]
) -> dict[tuple[Jpp, WeightVector], list[WeightVector]]:
    """Group parent weights by restriction context in one pass.

    Maps each restriction context (j'', fixed part-2 weight) whose part-1
    set is non-empty to its parent weights, keys ascending: the order of
    jpp_values followed by enumerate_admissible on part 2.  The parent
    weights are the disjoint union over j'' of products of the parts'
    weight sets, so a weight's cut-edge values and part-2 projection name
    its context, and its part-1 projection is its weight there.
    """
    cut = tuple(dec.graph.edge_index(eid) for eid in dec.cut)
    coords2 = dec.coords[1]
    contexts: dict[tuple[Jpp, WeightVector], list[WeightVector]] = {}
    for w in weights:
        key = (tuple(w[i] for i in cut), tuple(w[i] for i in coords2))
        contexts.setdefault(key, []).append(w)
    return dict(sorted(contexts.items()))


def _require_cocycle(t: CocycleTable) -> None:
    # restrictions are read through t.value, which extends the basis
    # entries by the twisted product rule; that is only consistent for
    # cocycles
    if not is_twisted_cocycle(t):
        raise NotACocycle("table fails the twisted cocycle identity")


def equivalent_under_factorization(
    t1: CocycleTable, t2: CocycleTable, cap: int = 4096
) -> bool:
    """Restrictions induce isomorphic representations for every cut,
    bipartition, and fixed complementary weight.

    The restricted character at a part-1 cycle is the sum of the signs
    t.value(W, lam) over the context's weights W fixed by the transported
    cycle lam.  Only fixed pairs where t1 and t2 differ can make two
    characters differ, so those are evaluated once per call and summed per
    context and cycle for each decomposition.
    """
    _require_cocycle(t1)
    _require_cocycle(t2)
    cycles = [lam for lam in t1.inst.cycles if lam]
    diffs: dict[WeightVector, list[tuple[int, int]]] = {}
    for w, fixed in zip(t1.weights, t1.inst.fixed):
        here = [
            (lam, d)
            for lam in cycles
            if not lam & ~fixed
            and (d := t1.value(w, lam).as_sign() - t2.value(w, lam).as_sign())
        ]
        if here:
            diffs[w] = here
    for dec in all_decompositions(t1.graph, cap):
        if not dec.coords[0] or not diffs:
            continue
        for ws in restriction_plan(dec, diffs).values():
            character_gap: dict[int, int] = {}
            for w in ws:
                for lam, d in diffs[w]:
                    if not lam & ~dec.inside:
                        character_gap[lam] = character_gap.get(lam, 0) + d
            if any(character_gap.values()):
                return False
    return True


def _restricted_pairs(
    dec: Decomposition, cycles: list[int], ws: list[WeightVector], k: int
) -> Iterator[tuple[WeightVector, WeightVector, int]]:
    """The fixed pairs that pin down the restricted class on one context.

    cycles are the parent cycles inside dec.inside, i.e. the part-1 cycles
    transported.  Yields (rep, rep1, lam) per part-1 orbit in ws and nonzero
    cycle lam of its stabilizer, where rep is the orbit's least member in
    part-1 coordinates and rep1 its part-1 weight.  An orbit with a trivial
    stabilizer carries only the value 1 at the zero cycle.
    """
    seen: set[WeightVector] = set()
    for w in ws:
        if w in seen:
            continue
        # flips keep the edges at k/2, so the stabilizer is the orbit's
        fixed = fixed_edges(w, k)
        stab = [lam for lam in cycles if lam and not lam & ~fixed]
        if not stab:
            continue
        members = {act(lam, w, k) for lam in cycles}
        seen |= members
        rep = min(members, key=dec.part1_weight)
        rep1 = dec.part1_weight(rep)
        for lam in stab:
            yield rep, rep1, lam


def verify_functoriality(
    graph: Graph, k: int, boundary: dict[str, int], cap: int = 4096
) -> bool:
    """The external class restricts to the external class of part 1, for
    every decomposition and fixed complementary weight.

    The external class of part 1 is read as its invariant: the external
    target at each part-1 orbit representative, on its stabilizer.
    """
    ext = construct_external_cocycle(graph, k, boundary)
    for dec in all_decompositions(graph, cap):
        if not dec.coords[0]:
            continue
        cycles = [lam for lam in ext.inst.cycles if not lam & ~dec.inside]
        for ws in restriction_plan(dec, ext.weights).values():
            for rep, rep1, lam in _restricted_pairs(dec, cycles, ws, k):
                target = external_target(dec.part1, k, rep1, dec.part1_cycle(lam))
                if ext.value(rep, lam) != target:
                    return False
    return True


def gamma_piece_witness(
    t: CocycleTable, cap: int = 4096
) -> Optional[tuple[int, Jpp, WeightVector]]:
    """First witness where some restriction of t to an isolated Betti-1
    piece is not cohomologous to that piece's standard cocycle; None if all
    restrictions match.

    The cap bounds the restriction contexts visited.  Contexts whose piece
    weight set is empty restrict to empty tables, which always match, so
    they are neither visited nor counted.
    """
    _require_cocycle(t)
    for witness, w, lam, target in _piece_comparisons(t.graph, t.inst, cap):
        if t.value(w, lam) != target:
            return witness
    return None


def _piece_comparisons(graph: Graph, inst: Instance, cap: int) -> Iterator[tuple]:
    """The fixed pairs where restrictions to the isolated Betti-1 pieces
    meet the pieces' standard class, without reading any table.

    Yields ((cycle, jpp, fixed), w, lam, target) per nonzero cycle, piece
    around it, restriction context and restricted pair: a table passes when
    its value at (w, lam) is target.  The contexts are counted against cap.
    """
    count = 0
    for cycle in inst.cycles:
        if cycle == 0:
            continue
        external, internal = graph.cycle_edges(cycle)
        cut = tuple(graph.support_edge_ids(external | internal))
        for side in graph.components(external | internal):
            dec = Decomposition(graph, cut, frozenset(side))
            if not dec.inside & cycle:
                continue  # a component away from the cycle
            cycles = [lam for lam in inst.cycles if not lam & ~dec.inside]
            target = _standard_target(dec)
            for (jpp, fixed), ws in restriction_plan(dec, inst.weights).items():
                count += 1
                if count > cap:
                    raise CapExceeded(f"piece enumeration beyond cap {cap}")
                for w, rep1, lam in _restricted_pairs(dec, cycles, ws, inst.k):
                    yield (cycle, jpp, fixed), w, lam, target(rep1)


def _standard_target(piece: Decomposition):
    """The standard circuit cocycle's value on the generator at its fixed
    weight: exp(pi*i * sum of the piece's boundary weights), read off the
    piece's legs: the part-1 positions of cut edges."""
    # part 1 is connected, so it has Betti number 1 exactly when it has as
    # many uncut edges as vertices (each leg adds one edge and one vertex)
    if piece.inside.bit_count() != len(piece.side1):
        raise NotGammaN("isolated piece is not connected with Betti number 1")
    legs = [i for i, j in enumerate(piece.coords[0]) if not piece.inside >> j & 1]

    def target(rep1):
        return CircleValue.half_integer_exp(sum(rep1[i] for i in legs))

    return target


def verify_characterization(
    graph: Graph, k: int, boundary: dict[str, int], cap: int = 4096
) -> bool:
    """The external class is the only class that matches the standard class
    on every isolated Betti-1 piece.

    Values at fixed pairs depend only on the class, and a class is a sign
    character on each orbit's stabilizer.  So this holds exactly when the
    external class passes every piece comparison and, on every orbit, the
    stabilizer cycles compared at its members span the stabilizer.
    """
    ext = construct_external_cocycle(graph, k, boundary)  # a cocycle by construction
    orbits = ext.inst.orbits
    orbit_of = {w: i for i, orb in enumerate(orbits) for w in orb.members}
    compared: list[set[int]] = [set() for _ in orbits]
    for _, w, lam, target in _piece_comparisons(graph, ext.inst, cap):
        if ext.value(w, lam) != target:
            return False
        compared[orbit_of[w]].add(lam)
    return all(f2_rank(c) == orb.stabilizer_dim for c, orb in zip(compared, orbits))
