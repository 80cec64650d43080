"""Twisted cochains on the homology of a graph, cocycles, coboundaries,
the per-orbit character invariant, and independent class counting.

A 1-cochain assigns a circle value to every (cycle, admissible weight) pair;
tables are stored on a fixed homology basis and extended to the whole group
through the twisted product rule
``delta_j(l1 + l2) = delta_{l1.j}(l2) * delta_j(l1)``.

Everything here reads the weights, basis, flip permutations, fixed-edge
masks, cycle decompositions and orbits of a (graph, level, boundary) from
its shared weights.Instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

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
from .weights import (  # noqa: F401  act stays importable from here
    Instance,
    Orbit,
    WeightVector,
    act,
    instance,
)

ZeroCochain = dict  # WeightVector -> CircleValue, total on the admissible set


@dataclass
class CocycleTable:
    """A twisted 1-cochain stored on the instance's homology basis and all
    its admissible weights, with lazy extension to the full group."""

    graph: Graph
    inst: Instance
    table: dict[tuple[int, WeightVector], CircleValue]

    @classmethod
    def build(
        cls,
        graph: Graph,
        k: int,
        boundary: dict[str, int],
        fn: Callable[[int, WeightVector], CircleValue],
    ) -> CocycleTable:
        inst = instance(graph, k, boundary)
        table = {(b, w): fn(b, w) for b in inst.basis for w in inst.weights}
        return cls(graph, inst, table)

    @classmethod
    def trivial(cls, graph: Graph, k: int, boundary: dict[str, int]) -> CocycleTable:
        return cls.build(graph, k, boundary, lambda b, w: ONE)

    @property
    def k(self) -> int:
        return self.inst.k

    @property
    def boundary(self) -> dict[str, int]:
        return self.inst.boundary

    @property
    def basis(self) -> tuple[int, ...]:
        return self.inst.basis

    @property
    def weights(self) -> tuple[WeightVector, ...]:
        return self.inst.weights

    # -- full-group evaluation -------------------------------------------

    def decompose(self, cycle: int) -> tuple[int, ...]:
        """Express a cycle in the table's basis; ascending index tuple."""
        try:
            return self.inst.steps[cycle]
        except KeyError:
            raise ValueError(f"cycle {cycle:b} is not in the homology span") from None

    def walk(self, wi: int, steps: tuple[int, ...]) -> tuple[CircleValue, int]:
        """The value at weights[wi] of the cycle with basis decomposition
        steps, and the index its flip sends wi to."""
        inst, table = self.inst, self.table
        perms, basis, weights = inst.perms, inst.basis, inst.weights
        val = ONE
        for i in steps:
            val = val * table[(basis[i], weights[wi])]
            wi = perms[i][wi]
        return val, wi

    def value(self, w: WeightVector, cycle: int) -> CircleValue:
        """delta_w(cycle) via the twisted product rule over the basis."""
        return self.walk(self.inst.index[w], self.decompose(cycle))[0]

    # -- algebra ----------------------------------------------------------

    def __mul__(self, other: CocycleTable) -> CocycleTable:
        ot = other.table
        table = {key: v * ot[key] for key, v in self.table.items()}
        return CocycleTable(self.graph, self.inst, table)

    def inverse(self) -> CocycleTable:
        table = {key: v.inverse() for key, v in self.table.items()}
        return CocycleTable(self.graph, self.inst, table)

    def serialize(self) -> str:
        lines = []
        for b in self.basis:
            ids = ",".join(self.graph.support_edge_ids(b))
            for i, w in enumerate(self.weights):
                lines.append(f"cocycle {ids} {i} {self.table[(b, w)]}\n")
        return "".join(lines)


def is_twisted_cocycle(t: CocycleTable) -> bool:
    """Check the basis-pair consistency relations and 2-torsion."""
    cols = []  # the entries of each basis cycle, in weight order
    for b in t.basis:
        try:
            cols.append([t.table[(b, w)] for w in t.weights])
        except KeyError:
            raise IncompleteTable(f"missing entry for cycle {b:b}") from None
    perms = t.inst.perms
    g = len(cols)
    for wi in range(len(t.weights)):
        for i in range(g):
            col_i, p_wi = cols[i], perms[i][wi]
            a = col_i[wi]
            if a * col_i[p_wi] != ONE:
                return False
            for j in range(i + 1, g):
                col_j = cols[j]
                if col_j[p_wi] * a != col_i[perms[j][wi]] * col_j[wi]:
                    return False
    return True


def coboundary_of(
    graph: Graph, k: int, boundary: dict[str, int], c: ZeroCochain
) -> CocycleTable:
    """(dc)_w(b) = c_{b.w} * c_w^{-1}."""
    inst = instance(graph, k, boundary)
    vals = [c[w] for w in inst.weights]
    inverses = [v.inverse() for v in vals]
    table = {
        (b, w): vals[p[wi]] * inverses[wi]
        for b, p in zip(inst.basis, inst.perms)
        for wi, w in enumerate(inst.weights)
    }
    return CocycleTable(graph, inst, table)


def fixed_pairs(t: CocycleTable) -> Iterator[tuple[int, WeightVector]]:
    """All (nonzero cycle, weight) pairs with cycle fixing the weight."""
    for lam in t.inst.cycles:
        if lam == 0:
            continue
        for w, fixed in zip(t.weights, t.inst.fixed):
            if not lam & ~fixed:
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
    inst = t.inst
    index, perms = inst.index, inst.perms
    for orb in inst.orbits:
        ri = index[orb.representative]
        for s in inst.steps.values():
            # the target first: only the first cycle reaching it sets c
            wi = ri
            for i in s:
                wi = perms[i][wi]
            target = t.weights[wi]
            if target not in c:
                c[target] = t.walk(ri, s)[0]
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
    for orb in t.inst.orbits:
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
    inst = instance(graph, k, boundary)
    inv_d = inv.as_dict()
    per_weight: dict[tuple[WeightVector, int], CircleValue] = {}
    for orb in inst.orbits:
        chars = inv_d.get(orb.representative, {0: ONE})
        _check_character(orb, chars)
        # extend the stabilizer basis to a homology basis; the lift is the
        # character on the stabilizer part and 1 on the complement
        stab_basis = orb.stabilizer_basis
        span = F2Span(stab_basis + inst.basis)
        stab_count = len(stab_basis)
        for b in inst.basis:
            combo = span.solve(b)
            assert combo is not None
            val = ONE
            for j in range(stab_count):
                if combo >> j & 1:
                    val = val * chars[stab_basis[j]]
            for w in orb.members:
                per_weight[(w, b)] = val
    table = {(b, w): per_weight[(w, b)] for b in inst.basis for w in inst.weights}
    return CocycleTable(graph, inst, table)


def cohomology_group_order(graph: Graph, k: int, boundary: dict[str, int]) -> int:
    """Product over orbits of 2^(stabilizer dimension)."""
    return 1 << sum(o.stabilizer_dim for o in instance(graph, k, boundary).orbits)


# -- independent oracle ---------------------------------------------------
#
# Sign-valued tables on (basis x weights) form an F2 vector space; the
# twisted cocycle identity and the coboundary map are both linear over F2,
# so |Z^1| / |B^1| within sign tables is computable by plain rank
# arithmetic, with no reference to orbits or stabilizers.


def _sign_cocycle_equations(
    perms: tuple[tuple[int, ...], ...],
    block: Iterable[int],
    var: Callable[[int, int], int],
) -> list[int]:
    """F2 rows of the cocycle identities of a sign table on the weight
    indices in block, which must be closed under the flips: 2-torsion of
    each basis cycle, then each basis pair, weight by weight.  var(i, wi)
    numbers the entry of basis cycle i at weight index wi."""
    g = len(perms)
    equations = []
    for wi in block:
        for i in range(g):
            p_wi = perms[i][wi]
            equations.append((1 << var(i, wi)) ^ (1 << var(i, p_wi)))
            for j in range(i + 1, g):
                equations.append(
                    (1 << var(i, wi))
                    ^ (1 << var(j, p_wi))
                    ^ (1 << var(j, wi))
                    ^ (1 << var(i, perms[j][wi]))
                )
    return equations


def brute_force_class_count(
    graph: Graph, k: int, boundary: dict[str, int], cap: int = 10**6
) -> int:
    """Number of cohomology classes among sign-valued tables, computed by F2
    rank arithmetic on the cocycle identities and the coboundary image."""
    inst = instance(graph, k, boundary)
    nw, g = len(inst.weights), len(inst.basis)
    if (1 << g) * nw > cap:
        raise CapExceeded(f"instance beyond cap {cap}")
    perms = inst.perms
    # constraints only couple weight indices reachable through the flip
    # permutations, so eliminate per connected block
    parent = list(range(nw))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in perms:
        for i, j in enumerate(p):
            parent[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(nw):
        blocks.setdefault(find(i), []).append(i)

    dim_z = dim_b = 0
    for block in blocks.values():
        local = {wi: li for li, wi in enumerate(block)}
        nb = len(block)

        def var(bi: int, wi: int) -> int:
            return bi * nb + local[wi]

        dim_z += g * nb - f2_rank(_sign_cocycle_equations(perms, block, var))
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
    them when at most cap, else a deterministic sample of size cap.  The
    system is the oracle's with all weights in one block; the tables share
    the triple's instance."""
    inst = instance(graph, k, boundary)
    basis, weights = inst.basis, inst.weights
    nw = len(weights)
    nvars = len(basis) * nw
    equations = _sign_cocycle_equations(
        inst.perms, range(nw), lambda bi, wi: bi * nw + wi
    )
    null = f2_nullspace(equations, nvars)
    dim = len(null)

    def to_table(assign: int) -> CocycleTable:
        table = {}
        for bi, b in enumerate(basis):
            bits = assign >> bi * nw
            for wi, w in enumerate(weights):
                table[(b, w)] = MINUS_ONE if bits >> wi & 1 else ONE
        return CocycleTable(graph, inst, table)

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
