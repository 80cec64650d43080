"""Monomial representations of the homology group on the weight space.

A cocycle delta defines rho(delta)(lambda)|w> = delta_w(lambda)|lambda.w>;
everything here is exact monomial-matrix arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circle import ONE, CircleValue
from .cohomology import CocycleTable, ZeroCochain, is_twisted_cocycle
from .errors import NotACocycle


@dataclass(frozen=True)
class MonomialMatrix:
    """Permutation-with-scalars matrix: index i maps to perm[i] with
    coefficient scalar[i]."""

    perm: tuple[int, ...]
    scalars: tuple[CircleValue, ...]

    @classmethod
    def identity(cls, dim: int) -> MonomialMatrix:
        return cls(tuple(range(dim)), (ONE,) * dim)

    @property
    def dim(self) -> int:
        return len(self.perm)

    def __matmul__(self, other: MonomialMatrix) -> MonomialMatrix:
        """self @ other: apply other first."""
        perm = tuple(self.perm[other.perm[i]] for i in range(self.dim))
        scalars = tuple(
            other.scalars[i] * self.scalars[other.perm[i]] for i in range(self.dim)
        )
        return MonomialMatrix(perm, scalars)


def rep_matrix(t: CocycleTable, cycle: int, checked: bool = True) -> MonomialMatrix:
    """The monomial matrix of the cycle in the representation of t."""
    if checked and not is_twisted_cocycle(t):
        raise NotACocycle("table fails the twisted cocycle identity")
    steps = t.decompose(cycle)
    walks = [t.walk(wi, steps) for wi in range(len(t.weights))]
    return MonomialMatrix(
        tuple(wi for _, wi in walks), tuple(val for val, _ in walks)
    )


def character(t: CocycleTable, cycle: int) -> int:
    """Trace of the cycle's matrix: a sum of fixed-pair signs, hence an
    exact integer."""
    steps = t.decompose(cycle)
    total = 0
    for wi, fixed in enumerate(t.inst.fixed):
        if not cycle & ~fixed:
            total += t.walk(wi, steps)[0].as_sign()
    return total


def diagonal_intertwiner_ok(
    t1: CocycleTable, t2: CocycleTable, c: ZeroCochain, cycle: int
) -> bool:
    """phi_c . rho(t1)(cycle) == rho(t2)(cycle) . phi_c, entrywise, for a
    basis cycle."""
    weights = t1.weights
    image = t1.inst.perms[t1.basis.index(cycle)]
    for wi, w in enumerate(weights):
        lhs = t1.table[(cycle, w)] * c[weights[image[wi]]]
        rhs = t2.table[(cycle, w)] * c[w]
        if lhs != rhs:
            return False
    return True


def verify_intertwiner(t1: CocycleTable, t2: CocycleTable, c: ZeroCochain) -> bool:
    """c is a diagonal intertwiner between the two representations on every
    basis cycle."""
    if not (is_twisted_cocycle(t1) and is_twisted_cocycle(t2)):
        return False
    return all(diagonal_intertwiner_ok(t1, t2, c, b) for b in t1.basis)


def reps_isomorphic(t1: CocycleTable, t2: CocycleTable) -> bool:
    """Characters agree on the full homology group (monomial representations
    of a finite abelian group are determined by their characters)."""
    return all(
        character(t1, lam) == character(t2, lam) for lam in t1.inst.cycles
    )
