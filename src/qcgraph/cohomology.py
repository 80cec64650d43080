"""Twisted cochains on the homology of a graph, cocycles, coboundaries,
the per-orbit character invariant, and independent class counting.

A 1-cochain assigns a circle value to every (cycle, admissible weight) pair;
tables are stored on a fixed homology basis and extended to the whole group
through the twisted product rule
``delta_j(l1 + l2) = delta_{l1.j}(l2) * delta_j(l1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .circle import MINUS_ONE, ONE, CircleValue
from .errors import (
    CapExceeded,
    IncompleteTable,
    NotACoboundary,
    NotACocycle,
    NotAHomomorphism,
)
from .f2 import F2Span, f2_nullspace, f2_rank
from .graph import Graph
from .weights import Orbit, WeightVector, act, enumerate_admissible, orbits

ZeroCochain = dict  # WeightVector -> CircleValue, total on the admissible set


@dataclass
class CocycleTable:
    """A twisted 1-cochain stored on a homology basis and all admissible
    weights, with lazy extension to the full group."""

    graph: Graph
    k: int
    boundary: dict[str, int]
    basis: tuple[int, ...]
    weights: tuple[WeightVector, ...]
    table: dict[tuple[int, WeightVector], CircleValue]
    _span: Optional[F2Span] = field(default=None, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int,
        boundary: dict[str, int],
        fn: Callable[[int, WeightVector], CircleValue],
    ) -> CocycleTable:
        basis = tuple(graph.cycle_basis())
        weights = tuple(enumerate_admissible(graph, k, boundary))
        table = {(b, w): fn(b, w) for b in basis for w in weights}
        return cls(graph, k, boundary, basis, weights, table)

    @classmethod
    def trivial(cls, graph: Graph, k: int, boundary: dict[str, int]) -> CocycleTable:
        return cls.build(graph, k, boundary, lambda b, w: ONE)

    # -- full-group evaluation -------------------------------------------

    def decompose(self, cycle: int) -> list[int]:
        """Express a cycle in the table's basis; ascending index list."""
        if self._span is None:
            self._span = F2Span(self.basis)
        combo = self._span.solve(cycle)
        if combo is None:
            raise ValueError(f"cycle {cycle:b} is not in the homology span")
        return [i for i in range(len(self.basis)) if combo >> i & 1]

    def value(self, w: WeightVector, cycle: int) -> CircleValue:
        """delta_w(cycle) via the twisted product rule over the basis."""
        val, cur = ONE, w
        for i in self.decompose(cycle):
            b = self.basis[i]
            val = val * self.table[(b, cur)]
            cur = act(b, cur, self.k)
        return val

    # -- algebra ----------------------------------------------------------

    def _pointwise(self, other: CocycleTable, op) -> CocycleTable:
        table = {key: op(v, other.table[key]) for key, v in self.table.items()}
        return CocycleTable(
            self.graph, self.k, self.boundary, self.basis, self.weights, table
        )

    def __mul__(self, other: CocycleTable) -> CocycleTable:
        return self._pointwise(other, lambda a, b: a * b)

    def inverse(self) -> CocycleTable:
        table = {key: v.inverse() for key, v in self.table.items()}
        return CocycleTable(
            self.graph, self.k, self.boundary, self.basis, self.weights, table
        )

    def serialize(self) -> str:
        lines = []
        for b in self.basis:
            ids = ",".join(self.graph.support_edge_ids(b))
            for i, w in enumerate(self.weights):
                lines.append(f"cocycle {ids} {i} {self.table[(b, w)]}")
        return "\n".join(lines) + "\n"


def is_twisted_cocycle(t: CocycleTable) -> bool:
    """Check the basis-pair consistency relations and 2-torsion."""
    for b in t.basis:
        for w in t.weights:
            if (b, w) not in t.table:
                raise IncompleteTable(f"missing entry for cycle {b:b}")
    k = t.k
    for w in t.weights:
        for i, b1 in enumerate(t.basis):
            if t.table[(b1, w)] * t.table[(b1, act(b1, w, k))] != ONE:
                return False
            for b2 in t.basis[i + 1 :]:
                lhs = t.table[(b2, act(b1, w, k))] * t.table[(b1, w)]
                rhs = t.table[(b1, act(b2, w, k))] * t.table[(b2, w)]
                if lhs != rhs:
                    return False
    return True


def coboundary_of(
    graph: Graph, k: int, boundary: dict[str, int], c: ZeroCochain
) -> CocycleTable:
    """(dc)_w(b) = c_{b.w} * c_w^{-1}."""
    return CocycleTable.build(
        graph, k, boundary, lambda b, w: c[act(b, w, k)] * c[w].inverse()
    )


def fixed_pairs(t: CocycleTable) -> Iterator[tuple[int, WeightVector]]:
    """All (nonzero cycle, weight) pairs with cycle fixing the weight."""
    for lam in t.graph.all_cycles():
        if lam == 0:
            continue
        for w in t.weights:
            if act(lam, w, t.k) == w:
                yield lam, w


def is_coboundary(t: CocycleTable) -> bool:
    """Trivial on every fixed pair (full group, via the extension rule)."""
    if not is_twisted_cocycle(t):
        raise NotACocycle("table fails the twisted cocycle identity")
    return all(t.value(w, lam) == ONE for lam, w in fixed_pairs(t))


def cobounding_chain(t: CocycleTable) -> ZeroCochain:
    """A 0-cochain c with coboundary_of(c) = t, built per orbit from the
    representative."""
    if not is_coboundary(t):
        raise NotACoboundary("cocycle has a nontrivial fixed-pair value")
    c: ZeroCochain = {}
    cycles = t.graph.all_cycles()
    for orb in orbits(t.graph, t.k, t.boundary):
        rep = orb.representative
        for lam in cycles:
            target = act(lam, rep, t.k)
            if target not in c:
                c[target] = t.value(rep, lam)
    return c


@dataclass(frozen=True)
class CohomologyInvariant:
    """Per-orbit restriction of a cocycle to the stabilizer: the complete
    cohomology class invariant."""

    # ((orbit representative, ((stab cycle, value), ...)), ...) sorted
    data: tuple[tuple[WeightVector, tuple[tuple[int, CircleValue], ...]], ...]

    @classmethod
    def from_dict(
        cls, d: dict[WeightVector, dict[int, CircleValue]]
    ) -> CohomologyInvariant:
        return cls(
            tuple(
                (rep, tuple(sorted(chars.items())))
                for rep, chars in sorted(d.items())
            )
        )

    def as_dict(self) -> dict[WeightVector, dict[int, CircleValue]]:
        return {rep: dict(chars) for rep, chars in self.data}

    def is_trivial(self) -> bool:
        return all(v == ONE for _, chars in self.data for _, v in chars)


def cohomology_invariant(t: CocycleTable) -> CohomologyInvariant:
    if not is_twisted_cocycle(t):
        raise NotACocycle("table fails the twisted cocycle identity")
    d: dict[WeightVector, dict[int, CircleValue]] = {}
    for orb in orbits(t.graph, t.k, t.boundary):
        rep = orb.representative
        d[rep] = {lam: t.value(rep, lam) for lam in orb.stabilizer}
    return CohomologyInvariant.from_dict(d)


def _check_character(orb: Orbit, chars: dict[int, CircleValue]) -> None:
    stab = orb.stabilizer
    for lam in stab:
        if lam not in chars:
            raise NotAHomomorphism(f"character undefined on stabilizer element")
        if not chars[lam].is_sign():
            raise NotAHomomorphism("character value on 2-torsion must be +-1")
    for l1 in stab:
        for l2 in stab:
            if chars[l1] * chars[l2] != chars[l1 ^ l2]:
                raise NotAHomomorphism("character is not a homomorphism")


def cocycle_from_characters(
    graph: Graph,
    k: int,
    boundary: dict[str, int],
    inv: CohomologyInvariant,
) -> CocycleTable:
    """Lift per-orbit stabilizer characters to a cocycle: extend each
    stabilizer basis to a homology basis and set the lift to 1 on the
    complement."""
    orbs = orbits(graph, k, boundary)
    inv_d = inv.as_dict()
    full_basis = graph.cycle_basis()
    per_weight: dict[tuple[WeightVector, int], CircleValue] = {}
    for orb in orbs:
        chars = inv_d.get(orb.representative, {0: ONE})
        _check_character(orb, chars)
        # extend the stabilizer basis to a homology basis; the lift is the
        # character on the stabilizer part and 1 on the complement
        stab_basis = list(orb.stabilizer_basis)
        span = F2Span(stab_basis)
        for b in full_basis:
            span.add(b)
        stab_count = len(stab_basis)
        for b in full_basis:
            combo = span.solve(b)
            assert combo is not None
            val = ONE
            for j in range(stab_count):
                if combo >> j & 1:
                    val = val * chars[stab_basis[j]]
            for w in orb.members:
                per_weight[(w, b)] = val
    weights = tuple(enumerate_admissible(graph, k, boundary))
    table = {(b, w): per_weight[(w, b)] for b in full_basis for w in weights}
    return CocycleTable(graph, k, boundary, tuple(full_basis), weights, table)


def cohomology_group_order(graph: Graph, k: int, boundary: dict[str, int]) -> int:
    """Product over orbits of 2^(stabilizer dimension)."""
    return 1 << sum(o.stabilizer_dim for o in orbits(graph, k, boundary))


# -- independent oracle ---------------------------------------------------
#
# Sign-valued tables on (basis x weights) form an F2 vector space; the
# twisted cocycle identity and the coboundary map are both linear over F2,
# so |Z^1| / |B^1| within sign tables is computable by plain rank
# arithmetic, with no reference to orbits or stabilizers.


def _sign_cocycle_system(graph: Graph, k: int, boundary: dict[str, int]):
    basis = graph.cycle_basis()
    weights = list(enumerate_admissible(graph, k, boundary))
    widx = {w: i for i, w in enumerate(weights)}
    g, nw = len(basis), len(weights)
    nvars = g * nw

    def var(bi: int, w: WeightVector) -> int:
        return bi * nw + widx[w]

    equations: list[int] = []
    for w in weights:
        for i, b1 in enumerate(basis):
            eq = (1 << var(i, w)) ^ (1 << var(i, act(b1, w, k)))
            equations.append(eq)
            for j in range(i + 1, g):
                b2 = basis[j]
                eq = (
                    (1 << var(i, w))
                    ^ (1 << var(j, act(b1, w, k)))
                    ^ (1 << var(j, w))
                    ^ (1 << var(i, act(b2, w, k)))
                )
                equations.append(eq)
    return basis, weights, nvars, var, equations


def brute_force_class_count(
    graph: Graph, k: int, boundary: dict[str, int], cap: int = 10**6
) -> int:
    """Number of cohomology classes among sign-valued tables, computed by F2
    rank arithmetic on the cocycle identities and the coboundary image."""
    weights = enumerate_admissible(graph, k, boundary)
    if (1 << graph.genus) * len(weights) > cap:
        raise CapExceeded(f"instance beyond cap {cap}")
    basis = graph.cycle_basis()
    g = len(basis)
    widx = {w: i for i, w in enumerate(weights)}
    perms = [[widx[act(b, w, k)] for w in weights] for b in basis]
    # constraints only couple weight indices reachable through the flip
    # permutations, so eliminate per connected block
    parent = list(range(len(weights)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in perms:
        for i, j in enumerate(p):
            parent[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(len(weights)):
        blocks.setdefault(find(i), []).append(i)

    dim_z = dim_b = 0
    for block in blocks.values():
        local = {wi: li for li, wi in enumerate(block)}
        nb = len(block)

        def var(bi: int, wi: int) -> int:
            return bi * nb + local[wi]

        equations = []
        for wi in block:
            for i in range(g):
                equations.append((1 << var(i, wi)) ^ (1 << var(i, perms[i][wi])))
                for j in range(i + 1, g):
                    equations.append(
                        (1 << var(i, wi))
                        ^ (1 << var(j, perms[i][wi]))
                        ^ (1 << var(j, wi))
                        ^ (1 << var(i, perms[j][wi]))
                    )
        dim_z += g * nb - f2_rank(equations)
        cob_rows = []
        for wi in block:
            row = 0
            for i in range(g):
                for wj in block:
                    if (perms[i][wj] == wi) ^ (wj == wi):
                        row ^= 1 << var(i, wj)
            cob_rows.append(row)
        dim_b += f2_rank(cob_rows)
    return 1 << (dim_z - dim_b)


def enumerate_sign_cocycles(
    graph: Graph, k: int, boundary: dict[str, int], cap: int = 1 << 16
) -> Iterator[CocycleTable]:
    """Yield sign-valued cocycle tables from the F2 solution space; all of
    them when at most cap, else a deterministic sample of size cap."""
    basis, weights, nvars, var, equations = _sign_cocycle_system(graph, k, boundary)
    null = f2_nullspace(equations, nvars)
    dim = len(null)

    def to_table(assign: int) -> CocycleTable:
        table = {
            (b, w): MINUS_ONE if assign >> var(bi, w) & 1 else ONE
            for bi, b in enumerate(basis)
            for w in weights
        }
        return CocycleTable(
            graph, k, boundary, tuple(basis), tuple(weights), table
        )

    if 1 << dim <= cap:
        coeffs: Iterator[int] = iter(range(1 << dim))
    else:
        import random

        rng = random.Random(20260823)
        coeffs = iter(rng.randrange(1 << dim) for _ in range(cap))
    for coeff in coeffs:
        assign = 0
        for i in range(dim):
            if coeff >> i & 1:
                assign ^= null[i]
        yield to_table(assign)
