"""Acceptance gate: eleven verification criteria over the whole suite.

Each criterion prints one PASS/FAIL line (collected into the terminal
summary by conftest).  Random checks use fixed seeds; round counts scale
down on large instances so the whole gate stays within its time budget —
the per-instance counts are recorded next to each criterion.
"""

import math
import random
from fractions import Fraction

import pytest

import conftest
from qcgraph.circle import MINUS_ONE, ONE, CircleValue
from qcgraph.cohomology import (
    CocycleTable,
    CohomologyInvariant,
    brute_force_class_count,
    cobounding_chain,
    coboundary_of,
    cocycle_from_characters,
    cohomology_group_order,
    cohomology_invariant,
    enumerate_sign_cocycles,
    is_coboundary,
    is_twisted_cocycle,
)
from qcgraph.external import (
    check_parity_identity,
    construct_external_cocycle,
    satisfies_external_condition,
    standard_gamma_n_cocycle,
)
from qcgraph.f2 import F2Span
from qcgraph.factorize import (
    equivalent_under_factorization,
    gamma_piece_witness,
    verify_characterization,
    verify_functoriality,
)
from qcgraph.represent import reps_isomorphic, verify_intertwiner
from qcgraph.weights import act, check_admissible, enumerate_admissible, orbits
from suitegraphs import (
    GAMMA_N,
    SUITE,
    cycle_from_edge_ids,
    dumbbell,
    suite_instances,
    theta,
    zero_boundary,
)

SEED = 20260823
LEVELS = [1, 2, 3, 4, 5, 6]


def report(ok: bool, label: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {label}"
    conftest.RESULT_LINES.append(line)
    print(line)
    assert ok, line


def random_torsion_cochain(weights, rng):
    return {w: CircleValue(Fraction(rng.randrange(12), 12)) for w in weights}


def random_invariant(orbs, rng, nontrivial=False):
    """A uniformly random invariant: signs on each stabilizer basis,
    extended multiplicatively; optionally forced nontrivial."""
    d = {}
    any_sign = False
    flip_slot = None
    for o in orbs:
        basis = list(o.stabilizer_basis)
        signs = [rng.choice((ONE, MINUS_ONE)) for _ in basis]
        span = F2Span(basis)
        chars = {}
        for lam in o.stabilizer:
            combo = span.solve(lam)
            v = ONE
            for i in range(len(basis)):
                if combo >> i & 1:
                    v = v * signs[i]
            chars[lam] = v
        d[o.representative] = chars
        any_sign = any_sign or MINUS_ONE in signs
        if basis and flip_slot is None:
            flip_slot = (o, basis)
    if nontrivial and not any_sign:
        if flip_slot is None:
            return None  # no nontrivial invariant exists
        o, basis = flip_slot
        span = F2Span(basis)
        for lam in o.stabilizer:
            combo = span.solve(lam)
            if combo & 1:
                d[o.representative][lam] = d[o.representative][lam] * MINUS_ONE
    return CohomologyInvariant.from_dict(d)


def scaled_rounds(nominal, graph, n_weights, floor=8, budget=8_000):
    entries = graph.genus * n_weights + 1
    return min(nominal, max(floor, budget // entries))


def test_criterion_01_action_preserves_admissibility():
    ok = True
    for _, g, k, b in suite_instances(LEVELS):
        cycles = g.all_cycles()
        for w in enumerate_admissible(g, k, b):
            for lam in cycles:
                if not check_admissible(g, k, act(lam, w, k), b):
                    ok = False
    report(ok, "criterion 1: flip action preserves admissibility (exhaustive)")


def test_criterion_02_class_count_matches_structure():
    ok = True
    for _, g, k, b in suite_instances(LEVELS):
        if (1 << g.genus) * len(enumerate_admissible(g, k, b)) > 10**6:
            continue
        if brute_force_class_count(g, k, b) != cohomology_group_order(g, k, b):
            ok = False
    ok = ok and brute_force_class_count(theta(), 2, {}) == 8
    report(ok, "criterion 2: independent class count = product of 2^dim(stab)")


def test_criterion_03_coboundary_criterion():
    rng = random.Random(SEED)
    ok = True
    for _, g, k, b in suite_instances(LEVELS):
        ws = enumerate_admissible(g, k, b)
        if not ws:
            continue
        orbs = orbits(g, k, b)
        rounds = scaled_rounds(1000, g, len(ws))
        for _ in range(rounds):
            dc = coboundary_of(g, k, b, random_torsion_cochain(ws, rng))
            if not is_coboundary(dc):
                ok = False
                continue
            c2 = cobounding_chain(dc)
            if coboundary_of(g, k, b, c2).table != dc.table:
                ok = False
        for _ in range(rounds):
            inv = random_invariant(orbs, rng, nontrivial=True)
            if inv is None:
                break
            t = cocycle_from_characters(g, k, b, inv)
            if is_coboundary(t):
                ok = False
    report(ok, "criterion 3: coboundary criterion (seeded random cochains)")


def test_criterion_04_external_cocycles_exist():
    ok = True
    for _, g, k, b in suite_instances(LEVELS):
        for orb in orbits(g, k, b):
            if not check_parity_identity(g, k, orb):
                ok = False
        t = construct_external_cocycle(g, k, b)
        if not (is_twisted_cocycle(t) and satisfies_external_condition(t)):
            ok = False
    report(ok, "criterion 4: parity identity and external cocycle construction")


def test_criterion_05_odd_level_triviality():
    ok = True
    for _, g, k, b in suite_instances([1, 3, 5]):
        if any(o.stabilizer_dim for o in orbits(g, k, b)):
            ok = False
        if cohomology_group_order(g, k, b) != 1:
            ok = False
        if not is_coboundary(construct_external_cocycle(g, k, b)):
            ok = False
    report(ok, "criterion 5: odd level gives trivial stabilizers and cohomology")


def test_criterion_06_intertwiner_law():
    rng = random.Random(SEED)
    ok = True
    for _, g, k, b in suite_instances(LEVELS):
        ws = enumerate_admissible(g, k, b)
        if not ws:
            continue
        orbs = orbits(g, k, b)
        rounds = scaled_rounds(200, g, len(ws), floor=6, budget=8_000)
        for _ in range(rounds):
            inv = random_invariant(orbs, rng)
            t1 = cocycle_from_characters(g, k, b, inv)
            t2 = t1 * coboundary_of(g, k, b, random_torsion_cochain(ws, rng))
            chain = cobounding_chain(t2 * t1.inverse())
            if not verify_intertwiner(t1, t2, chain):
                ok = False
    report(ok, "criterion 6: cohomologous pairs intertwined by cobounding chains")


def _all_boundaries(g, k):
    from itertools import product

    legs = g.boundary_vertices
    for vals in product(range(k + 1), repeat=len(legs)):
        yield dict(zip(legs, vals))


def test_criterion_07_gamma_n_equivalence():
    rng = random.Random(SEED)
    ok = True
    for name, n in GAMMA_N.items():
        g = SUITE[name]()
        for k in LEVELS:
            for b in _all_boundaries(g, k):
                if not enumerate_admissible(g, k, b):
                    continue
                fam = list(enumerate_sign_cocycles(g, k, b, cap=1 << 16))
                if len(fam) > 24:
                    fam = rng.sample(fam, 24)
                for i, t1 in enumerate(fam):
                    inv1 = cohomology_invariant(t1)
                    for t2 in fam[i + 1 :]:
                        same = inv1 == cohomology_invariant(t2)
                        if reps_isomorphic(t1, t2) != same:
                            ok = False
    report(ok, "criterion 7: circuit graphs: isomorphic reps iff equal invariant")


def test_criterion_08_standard_cocycle():
    ok = True
    for name in GAMMA_N:
        g = SUITE[name]()
        for k in LEVELS:
            for b in _all_boundaries(g, k):
                if not enumerate_admissible(g, k, b):
                    continue
                std = standard_gamma_n_cocycle(g, k, b)
                built = construct_external_cocycle(g, k, b)
                if not is_coboundary(std * built.inverse()):
                    ok = False
    g1 = SUITE["gamma1"]()
    std = standard_gamma_n_cocycle(g1, 4, {"w1": 2})
    lam = cycle_from_edge_ids(g1, ["f2"])
    ok = ok and std.value((2, 2), lam) == MINUS_ONE
    report(ok, "criterion 8: standard circuit cocycle is the external class")


def test_criterion_09_functoriality_and_characterization():
    ok = True
    for name, make in SUITE.items():
        g = make()
        if len(g.cuttable_edges()) > 3:
            continue
        b = zero_boundary(g)
        for k in [1, 2, 3, 4]:
            if not enumerate_admissible(g, k, b):
                continue
            if not verify_functoriality(g, k, b, cap=200_000):
                ok = False
            if not verify_characterization(g, k, b, cap=200_000):
                ok = False
    # a single flipped fixed-pair sign must be caught with a witness
    g = dumbbell()
    t = construct_external_cocycle(g, 4, {})
    a = cycle_from_edge_ids(g, ["a"])
    bad = dict(t.table)
    bad[(a, (2, 2, 2))] = bad[(a, (2, 2, 2))] * MINUS_ONE
    mutated = CocycleTable(g, t.inst, bad)
    ok = ok and gamma_piece_witness(mutated) is not None
    report(ok, "criterion 9: functoriality and characterization with witnesses")


def test_criterion_10_factorization_equivalence():
    rng = random.Random(SEED)
    ok = True
    for make in (theta, dumbbell):
        g = make()
        for k in [1, 2, 3, 4]:
            if not enumerate_admissible(g, k, {}):
                continue
            fam = list(enumerate_sign_cocycles(g, k, {}, cap=4096))
            classes = {}
            for t in fam:
                classes.setdefault(cohomology_invariant(t), []).append(t)
            reps = [members[0] for members in classes.values()]
            if len(reps) > 8:
                reps = rng.sample(reps, 8)
            for i, t1 in enumerate(reps):
                for t2 in reps[i:]:
                    same = cohomology_invariant(t1) == cohomology_invariant(t2)
                    if equivalent_under_factorization(t1, t2, cap=200_000) != same:
                        ok = False
            # within-class pairs are always equivalent
            for members in classes.values():
                if len(members) > 1:
                    t1, t2 = rng.sample(members, 2)
                    if not equivalent_under_factorization(t1, t2, cap=200_000):
                        ok = False
    report(ok, "criterion 10: equivalence under factorization iff equal invariant")


def verlinde_genus2(k: int) -> int:
    """Trigonometric dimension for a closed genus-2 graph at level k."""
    r = k + 2
    total = (r / 2.0) * sum(
        math.sin(math.pi * j / r) ** (-2) for j in range(1, r)
    )
    return round(total)


def test_criterion_11_dimension_oracle():
    ok = True
    for make in (theta, dumbbell):
        g = make()
        for k in LEVELS:
            if len(enumerate_admissible(g, k, {})) != verlinde_genus2(k):
                ok = False
    ok = ok and len(enumerate_admissible(theta(), 2, {})) == 10
    report(ok, "criterion 11: counts match the trigonometric dimension oracle")
