"""Cutting graphs, restricting cocycles along the cut, equivalence under
factorization, functoriality, and the characterization of external classes.

A decomposition cuts a set of internal edges and groups the resulting
components into two parts.  Admissible weights decompose as a disjoint
union over the cut-edge weights j'' of products of the parts' weight sets,
and cocycles restrict to the first part once a complementary weight on the
second part is fixed.

The verbs read every restriction straight from the parent table.  One
RestrictionPlan per decomposition groups the parent's admissible weights by
(j'', part-2 weight) in a single pass, which yields every restriction
context whose part-1 weight set is non-empty; a context with an empty
part-1 set restricts to an empty table, which every comparison accepts, so
it is skipped.  The part-1 cycles are transported to the parent once per
decomposition.  For a twisted cocycle t, the restriction's value at a
part-1 weight and cycle is t.value at the glued parent weight and the
transported cycle, so restricted characters and invariants are sums and
lookups over the parent weights of one context.  restrict_cocycle and
decompose_weights build the restricted objects explicitly; they are the
test oracle for this path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Optional

from .circle import MINUS_ONE, CircleValue
from .cohomology import (
    CocycleTable,
    CohomologyInvariant,
    cocycle_from_characters,
    is_twisted_cocycle,
)
from .errors import CapExceeded, NotACocycle, NotGammaN, WeightMismatch
from .external import construct_external_cocycle, external_characters, external_target
from .f2 import F2Span
from .graph import CutResult, Graph, cut_edges, isolate_cycle, recognize_gamma_n
from .weights import WeightVector, act, enumerate_admissible, fixed_edges, instance

Jpp = tuple[int, ...]  # doubled weights on the cut edges, in cut order


@dataclass(frozen=True)
class Decomposition:
    """A cut of the graph with its components grouped into two parts."""

    graph: Graph
    cut_result: CutResult
    part1: Graph
    part2: Graph

    @property
    def cut(self) -> tuple[str, ...]:
        return self.cut_result.cut

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

    def coordinates(self, part: Graph) -> tuple[int, ...]:
        """Parent edge index of every edge of the part; a leg maps to the
        cut edge it came from."""
        out = []
        for eid in part.edge_ids:
            origin = self.cut_result.origin(eid)
            out.append(self.graph.edge_index(eid if origin is None else origin))
        return tuple(out)

    def to_original_cycle(self, part: Graph, mask: int) -> int:
        """Transport a cycle of a part to the original graph (the inclusion
        on homology)."""
        out = 0
        for i, (eid, _, _) in enumerate(part.edges):
            if mask >> i & 1:
                if self.cut_result.origin(eid) is not None:
                    raise ValueError("a leg cannot lie on a cycle")
                out |= 1 << self.graph.edge_index(eid)
        return out

    def glue_weights(self, w1: WeightVector, w2: WeightVector, jpp: Jpp) -> WeightVector:
        """Recombine part weights into a weight of the original graph."""
        jpp_of = dict(zip(self.cut, jpp))
        values: dict[str, int] = dict(jpp_of)
        for part, w in ((self.part1, w1), (self.part2, w2)):
            for i, (eid, _, _) in enumerate(part.edges):
                origin = self.cut_result.origin(eid)
                if origin is None:
                    values[eid] = w[i]
                elif w[i] != jpp_of[origin]:
                    raise WeightMismatch(
                        f"leg {eid!r} carries {w[i]}, expected {jpp_of[origin]}"
                    )
        return tuple(values[eid] for eid in self.graph.edge_ids)


def make_decomposition(
    graph: Graph, cut: set[str] | list[str], side1: set[int]
) -> Decomposition:
    """Cut the given edges and put the components with indices in side1
    (by the cut graph's component order) into part 1."""
    res = cut_edges(graph, cut)
    return _decomposition(graph, res, res.graph.components(), side1)


def _decomposition(
    graph: Graph, res: CutResult, comps: list[set[str]], side1: set[int]
) -> Decomposition:
    part1 = set().union(*(c for i, c in enumerate(comps) if i in side1))
    part2 = set().union(*(c for i, c in enumerate(comps) if i not in side1))
    carve = res.graph.subgraph
    return Decomposition(graph, res, carve(part1), carve(part2))


def all_decompositions(
    graph: Graph, cap: int = 4096
) -> Iterator[Decomposition]:
    """All (cut subset, bipartition) decompositions, cap-bounded."""
    cuttable = graph.cuttable_edges()
    total = 0
    for r in range(len(cuttable) + 1):
        for cut in combinations(cuttable, r):
            res = cut_edges(graph, cut)
            comps = res.graph.components()
            ncomp = len(comps)
            total += 1 << ncomp
            if total > cap:
                raise CapExceeded(f"decomposition enumeration beyond cap {cap}")
            for side_bits in range(1 << ncomp):
                side1 = {i for i in range(ncomp) if side_bits >> i & 1}
                yield _decomposition(graph, res, comps, side1)


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
        lam = dec.to_original_cycle(part1, b)
        for w in inst.weights:
            glued = dec.glue_weights(w, fixed, jpp)
            table[(b, w)] = t.value(glued, lam)
    return CocycleTable(part1, inst, table)


@dataclass(frozen=True)
class RestrictionPlan:
    """A decomposition read in the coordinates of the parent's weights.

    contexts maps each restriction context (j'', fixed part-2 weight) whose
    part-1 set is non-empty to its glued parent weights, keys ascending:
    the order of jpp_values followed by enumerate_admissible on part 2.
    coords1 holds the parent edge index of every part-1 edge (a leg reads
    its cut edge), so a parent weight projects to part-1 coordinates.
    inside masks the parent edges of part 1's uncut edges: the part-1
    cycles transport onto exactly the parent cycles inside it.
    """

    dec: Decomposition
    contexts: dict[tuple[Jpp, WeightVector], list[WeightVector]]
    coords1: tuple[int, ...]
    inside: int

    def part1_weight(self, w: WeightVector) -> WeightVector:
        return tuple(w[i] for i in self.coords1)

    def part1_cycles(self) -> list[tuple[int, int]]:
        """(part-1 cycle, its transport to the parent) for all of H1 of
        part 1, ascending."""
        part1 = self.dec.part1
        return [
            (mu, self.dec.to_original_cycle(part1, mu)) for mu in part1.all_cycles()
        ]


def restriction_plan(
    dec: Decomposition, weights: Iterable[WeightVector]
) -> RestrictionPlan:
    """Group parent weights by restriction context in one pass.

    The parent weights are the disjoint union over j'' of products of the
    parts' weight sets, so a weight's cut-edge values and part-2
    projection name its context and its part-1 projection is its weight
    there.
    """
    graph = dec.graph
    cut = tuple(graph.edge_index(eid) for eid in dec.cut)
    coords2 = dec.coordinates(dec.part2)
    contexts: dict[tuple[Jpp, WeightVector], list[WeightVector]] = {}
    for w in weights:
        key = (tuple(w[i] for i in cut), tuple(w[i] for i in coords2))
        contexts.setdefault(key, []).append(w)
    inside = 0
    for eid in dec.part1.edge_ids:
        if dec.cut_result.origin(eid) is None:
            inside |= 1 << graph.edge_index(eid)
    return RestrictionPlan(
        dec, dict(sorted(contexts.items())), dec.coordinates(dec.part1), inside
    )


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
        if dec.part1.n_edges == 0 or not diffs:
            continue
        plan = restriction_plan(dec, diffs)
        for ws in plan.contexts.values():
            character_gap: dict[int, int] = {}
            for w in ws:
                for lam, d in diffs[w]:
                    if not lam & ~plan.inside:
                        character_gap[lam] = character_gap.get(lam, 0) + d
            if any(character_gap.values()):
                return False
    return True


def _invariant_differs(
    t: CocycleTable,
    plan: RestrictionPlan,
    cycles: list[tuple[int, int]],
    ws: list[WeightVector],
    target: Callable[[WeightVector, int], CircleValue],
) -> bool:
    """Whether the restricted invariant on one context differs from target.

    Per part-1 orbit, the invariant holds the orbit's least member in
    part-1 coordinates and the values t.value(W, lam) on its stabilizer.
    target(rep, mu) gives the expected value at that representative and a
    nonzero part-1 stabilizer cycle mu.  Orbits with a trivial stabilizer
    carry only the value 1 at the zero cycle and always agree.  cycles is
    plan.part1_cycles().
    """
    k = t.k
    seen: set[WeightVector] = set()
    for w in ws:
        fixed = fixed_edges(w, k)
        if w in seen or not any(mu and not lam & ~fixed for mu, lam in cycles):
            continue  # the stabilizer is the same all along the orbit
        members = {act(lam, w, k) for _, lam in cycles}
        seen |= members
        rep = min(members, key=plan.part1_weight)
        rep1 = plan.part1_weight(rep)
        fixed = fixed_edges(rep, k)
        for mu, lam in cycles:
            if mu and not lam & ~fixed and t.value(rep, lam) != target(rep1, mu):
                return True
    return False


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
        if dec.part1.n_edges == 0:
            continue

        def target(rep1, mu, part1=dec.part1):
            return external_target(part1, k, rep1, mu)

        plan = restriction_plan(dec, ext.weights)
        cycles = plan.part1_cycles()
        for ws in plan.contexts.values():
            if _invariant_differs(ext, plan, cycles, ws, target):
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
    return _piece_witness(t, cap)


def _piece_witness(
    t: CocycleTable, cap: int
) -> Optional[tuple[int, Jpp, WeightVector]]:
    graph = t.graph
    count = 0
    for lam in t.inst.cycles:
        if lam == 0:
            continue
        with_cycle, _, res = isolate_cycle(graph, lam)
        for piece in with_cycle:
            rest = set(res.graph.vertices).difference(piece.vertices)
            dec = Decomposition(graph, res, piece, res.graph.subgraph(rest))
            plan = restriction_plan(dec, t.weights)
            cycles = plan.part1_cycles()
            target = _standard_target(piece)
            for (jpp, fixed), ws in plan.contexts.items():
                count += 1
                if count > cap:
                    raise CapExceeded(f"piece enumeration beyond cap {cap}")
                if _invariant_differs(t, plan, cycles, ws, target):
                    return lam, jpp, fixed
    return None


def _standard_target(piece: Graph):
    """The standard circuit cocycle's value on the generator at its fixed
    weight: exp(pi*i * sum of the piece's boundary weights), read off the
    piece's legs."""
    if recognize_gamma_n(piece) is None:
        raise NotGammaN("isolated piece is not connected with Betti number 1")
    legs = [piece.incident_edges(v)[0] for v in piece.boundary_vertices]

    def target(rep1, mu):
        return CircleValue.half_integer_exp(sum(rep1[i] for i in legs))

    return target


def verify_characterization(
    graph: Graph, k: int, boundary: dict[str, int], cap: int = 4096
) -> bool:
    """The external class matches the standard class on every isolated
    Betti-1 piece, and every invariant that differs from it by one sign on
    one stabilizer basis element of one orbit fails that test.

    Only these single-generator sign mutations are checked, not every
    class that differs from the external one.
    """
    # both tables are cocycles by construction
    ext_inv = external_characters(graph, k, boundary)
    ext = cocycle_from_characters(graph, k, boundary, ext_inv)
    if _piece_witness(ext, cap) is not None:
        return False
    for mutated in _mutated_invariants(ext_inv):
        t = cocycle_from_characters(graph, k, boundary, mutated)
        if _piece_witness(t, cap) is None:
            return False
    return True


def _mutated_invariants(inv: CohomologyInvariant) -> Iterator:
    """Invariants differing from inv by one sign on one stabilizer basis
    element of one orbit."""
    d = inv.as_dict()
    for rep, chars in d.items():
        basis = F2Span(sorted(lam for lam in chars if lam)).basis()
        span = F2Span(basis)  # bit i of a combo stands for basis[i]
        combos = {lam: span.solve(lam) for lam in chars}
        for i in range(len(basis)):
            mutated = dict(chars)
            for lam, combo in combos.items():
                if combo is not None and combo >> i & 1:
                    mutated[lam] = chars[lam] * MINUS_ONE
            yield CohomologyInvariant.from_dict({**d, rep: mutated})
