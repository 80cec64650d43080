"""External-edge targets, the parity identity, and cocycle construction.

On every fixed pair (cycle, weight) the target value is
exp(pi*i * sum of weights over cycle-external edges); the construction
turns those targets into per-orbit stabilizer characters and lifts them to
an honest twisted cocycle.
"""

from __future__ import annotations

from .circle import ONE, CircleValue
from .cohomology import (
    CocycleTable,
    CohomologyInvariant,
    cocycle_from_characters,
    fixed_pairs,
    is_twisted_cocycle,
)
from .errors import NotACocycle, NotFixed, NotGammaN, ParityFailure, ZeroCycle
from .graph import Graph, recognize_gamma_n
from .weights import Instance, Orbit, WeightVector, fixed_edges, instance


def external_target(
    graph: Graph, k: int, w: WeightVector, cycle: int
) -> CircleValue:
    """exp(pi*i * sum of external-edge weights); always +-1 on fixed pairs."""
    if cycle == 0:
        raise ZeroCycle("external edges are undefined for the zero cycle")
    if cycle & ~fixed_edges(w, k):
        raise NotFixed("weight is not fixed by the cycle")
    external, _ = graph.cycle_edges(cycle)
    doubled_sum = sum(x for i, x in enumerate(w) if external >> i & 1)
    # fixed pairs force integer weights on external edges, so doubled_sum
    # is even and the value lands in {+1, -1}
    return CircleValue.half_integer_exp(doubled_sum)


def check_parity_identity(graph: Graph, k: int, orbit: Orbit) -> bool:
    """The stabilizer map lambda -> external_target is a homomorphism and
    is constant across fixed members of the orbit."""
    rep = orbit.representative
    stab = orbit.stabilizer

    def target(lam: int, w: WeightVector) -> CircleValue:
        return ONE if lam == 0 else external_target(graph, k, w, lam)

    for l1 in stab:
        for l2 in stab:
            if target(l1, rep) * target(l2, rep) != target(l1 ^ l2, rep):
                return False
    for w in orbit.members:
        fixed = fixed_edges(w, k)
        for lam in stab:
            if lam and not lam & ~fixed and target(lam, w) != target(lam, rep):
                return False
    return True


def external_characters(
    graph: Graph, k: int, boundary: dict[str, int]
) -> CohomologyInvariant:
    """Per-orbit stabilizer characters prescribed by the external targets."""
    d: dict[WeightVector, dict[int, CircleValue]] = {}
    for orb in instance(graph, k, boundary).orbits:
        if not check_parity_identity(graph, k, orb):
            raise ParityFailure(
                f"external targets fail to be a character on orbit of "
                f"{orb.representative}"
            )
        rep = orb.representative
        d[rep] = {
            lam: ONE if lam == 0 else external_target(graph, k, rep, lam)
            for lam in orb.stabilizer
        }
    return CohomologyInvariant.from_dict(d)


def construct_external_cocycle(
    graph: Graph, k: int, boundary: dict[str, int]
) -> CocycleTable:
    """Build a cocycle realizing the external-edge targets on all fixed
    pairs, by lifting the per-orbit characters."""
    inv = external_characters(graph, k, boundary)
    return cocycle_from_characters(graph, k, boundary, inv)


def satisfies_external_condition(t: CocycleTable) -> bool:
    """delta_w(cycle) equals the external target on every fixed pair."""
    if not is_twisted_cocycle(t):
        raise NotACocycle("table fails the twisted cocycle identity")
    for lam, w in fixed_pairs(t):
        if t.value(w, lam) != external_target(t.graph, t.k, w, lam):
            return False
    return True


def standard_gamma_n_cocycle(
    graph: Graph, k: int, boundary: dict[str, int]
) -> CocycleTable:
    """The closed-form cocycle on a connected Betti-1 graph: value
    exp(pi*i * sum of boundary weights) at the unique candidate fixed weight
    (boundary weights on the legs, k/4 on the cycle), 1 elsewhere."""
    rec = recognize_gamma_n(graph)
    if rec is None:
        raise NotGammaN("graph is not connected with first Betti number 1")
    _, gen = rec
    j0 = _gamma_n_fixed_weight(instance(graph, k, boundary), gen)
    bsum = sum(boundary[v] for v in graph.boundary_vertices)

    def fn(b: int, w: WeightVector) -> CircleValue:
        if w == j0:
            return CircleValue.half_integer_exp(bsum)
        return ONE

    return CocycleTable.build(graph, k, boundary, fn)


def _gamma_n_fixed_weight(inst: Instance, gen: int):
    """The only weight the generator can fix, if admissible; else None."""
    if inst.k % 2:
        return None
    candidates = [w for w, f in zip(inst.weights, inst.fixed) if not gen & ~f]
    if not candidates:
        return None
    if len(candidates) > 1:
        # only circuit-with-legs graphs admit the closed form
        raise NotGammaN("generator fixes more than one admissible weight")
    return candidates[0]
