"""Weight decomposition along cuts, cocycle restriction, functoriality and
the characterization of the external class."""

import random

import pytest

from qcgraph import factorize
from qcgraph.circle import MINUS_ONE, ONE
from qcgraph.cohomology import (
    CocycleTable,
    CohomologyInvariant,
    cobounding_chain,
    coboundary_of,
    cocycle_from_characters,
    cohomology_invariant,
    enumerate_sign_cocycles,
    is_coboundary,
    is_twisted_cocycle,
)
from qcgraph.errors import CapExceeded, NotACocycle, NotGammaN, WeightMismatch
from qcgraph.external import (
    construct_external_cocycle,
    external_characters,
    standard_gamma_n_cocycle,
)
from qcgraph.f2 import F2Span
from qcgraph.factorize import (
    Decomposition,
    all_decompositions,
    decompose_weights,
    equivalent_under_factorization,
    gamma_piece_witness,
    jpp_values,
    make_decomposition,
    restrict_cocycle,
    restriction_plan,
    verify_characterization,
    verify_functoriality,
)
from qcgraph.graph import Graph, isolate_cycle
from qcgraph.represent import character, reps_isomorphic
from qcgraph.weights import act, enumerate_admissible, instance
from suitegraphs import (
    SUITE,
    dumbbell,
    gamma1,
    gamma2,
    gamma3,
    genus3_handle,
    leg_origin,
    suite_instances,
    theta,
    zero_boundary,
)


class TestDecomposeWeights:
    def test_dumbbell_bridge_count_identity(self):
        g, k = dumbbell(), 4
        dec = make_decomposition(g, {"c"}, {0})
        table = decompose_weights(g, k, {}, dec)
        total = sum(len(w1) * len(w2) for w1, w2 in table.values())
        assert total == len(enumerate_admissible(g, k, {}))

    def test_glue_recovers_weights(self):
        g, k = dumbbell(), 4
        dec = make_decomposition(g, {"c"}, {0})
        whole = set(enumerate_admissible(g, k, {}))
        glued = set()
        for jpp, (ws1, ws2) in decompose_weights(g, k, {}, dec).items():
            for w1 in ws1:
                for w2 in ws2:
                    glued.add(dec.glue_weights(w1, w2, jpp))
        assert glued == whole

    def test_theta_full_cut(self):
        g, k = theta(), 2
        dec = make_decomposition(g, {"e1", "e2", "e3"}, {0})
        table = decompose_weights(g, k, {}, dec)
        total = sum(len(w1) * len(w2) for w1, w2 in table.values())
        assert total == len(enumerate_admissible(g, k, {}))

    def test_empty_cut(self):
        g = theta()
        dec = make_decomposition(g, set(), {0})
        table = decompose_weights(g, 2, {}, dec)
        (ws1, ws2) = table[()]
        assert ws1 == enumerate_admissible(g, 2, {})
        assert ws2 == [()]

    def test_glue_rejects_mismatched_leg(self):
        g = dumbbell()
        dec = make_decomposition(g, {"c"}, {0})
        (w1s, w2s) = decompose_weights(g, 4, {}, dec)[(2,)]
        bad = next(w for w in decompose_weights(g, 4, {}, dec)[(0,)][1])
        with pytest.raises(WeightMismatch):
            dec.glue_weights(w1s[0], bad, (2,))


def leg_coordinates(dec, part):
    """Parent edge index of every edge of a carved part; a leg maps to the
    cut edge it came from."""
    out = []
    for eid in part.edge_ids:
        origin = leg_origin(dec.cut_result, eid)
        out.append(dec.graph.edge_index(eid if origin is None else origin))
    return tuple(out)


def coordinate_cases(g):
    """Every decomposition of g if it has at most 3 cuttable edges, and
    every isolated piece of g as part 1."""
    if len(g.cuttable_edges()) <= 3:
        yield from all_decompositions(g)
    for lam in g.all_cycles():
        if lam:
            with_cycle, _, res = isolate_cycle(g, lam)
            for piece in with_cycle:
                side1 = frozenset(piece.vertices) & set(g.vertices)
                dec = Decomposition(g, res.cut, side1)
                assert dec.part1 == piece
                yield dec


class TestDecompositionCoordinates:
    """The parent-coordinate view of a decomposition against its carved
    parts."""

    @pytest.mark.parametrize("name", list(SUITE))
    def test_coordinates_match_carved_parts(self, name):
        g = SUITE[name]()
        b = {v: 2 for v in g.boundary_vertices}
        for dec in coordinate_cases(g):
            part1, part2 = dec.part1, dec.part2
            assert dec.coords == (
                leg_coordinates(dec, part1),
                leg_coordinates(dec, part2),
            )
            inside = 0
            for eid in part1.edge_ids:
                if leg_origin(dec.cut_result, eid) is None:
                    inside |= 1 << g.edge_index(eid)
            assert dec.inside == inside
            for mu in part1.all_cycles():
                assert dec.part1_cycle(dec.to_original_cycle(mu)) == mu
            for jpp, (ws1, ws2) in decompose_weights(g, 2, b, dec).items():
                for w1 in ws1:
                    for w2 in ws2:
                        assert dec.part1_weight(dec.glue_weights(w1, w2, jpp)) == w1


class TestRestriction:
    def test_dumbbell_restriction_is_standard(self):
        g = dumbbell()
        ext = construct_external_cocycle(g, 4, {})
        dec = make_decomposition(g, {"c"}, {0})
        r = restrict_cocycle(ext, dec, (2,), (2, 2))
        assert is_twisted_cocycle(r)
        part = dec.part1
        lam = 1 << part.edge_index("a" if "a" in part.edge_ids else "b")
        assert r.value((2, 2), lam) == MINUS_ONE
        std = standard_gamma_n_cocycle(part, 4, r.boundary)
        assert cohomology_invariant(r) == cohomology_invariant(std)

    def test_restriction_is_cochain_map(self):
        # restricting a coboundary gives a coboundary
        g = dumbbell()
        c = {w: MINUS_ONE if w == (2, 2, 2) else ONE
             for w in enumerate_admissible(g, 4, {})}
        dc = coboundary_of(g, 4, {}, c)
        dec = make_decomposition(g, {"c"}, {0})
        for jpp in [(0,), (2,), (4,)]:
            for fixed in decompose_weights(g, 4, {}, dec)[jpp][1]:
                r = restrict_cocycle(dc, dec, jpp, fixed)
                assert is_twisted_cocycle(r)
                assert is_coboundary(r)

    def test_restriction_multiplicative(self):
        g = theta()
        t1 = construct_external_cocycle(g, 2, {})
        c = {w: MINUS_ONE if w[0] == 1 else ONE
             for w in enumerate_admissible(g, 2, {})}
        t2 = coboundary_of(g, 2, {}, c)
        dec = make_decomposition(g, {"e3"}, {0})
        jpp, fixed = (0,), ()
        r12 = restrict_cocycle(t1 * t2, dec, jpp, fixed)
        r1 = restrict_cocycle(t1, dec, jpp, fixed)
        r2 = restrict_cocycle(t2, dec, jpp, fixed)
        assert r12.table == (r1 * r2).table


class TestEquivalence:
    def test_cohomologous_cocycles_equivalent(self):
        g = theta()
        t = construct_external_cocycle(g, 2, {})
        c = {w: MINUS_ONE if sum(w) % 4 else ONE
             for w in enumerate_admissible(g, 2, {})}
        t2 = t * coboundary_of(g, 2, {}, c)
        assert equivalent_under_factorization(t, t2)

    def test_distinct_classes_not_equivalent(self):
        g = dumbbell()
        t = construct_external_cocycle(g, 4, {})
        assert not equivalent_under_factorization(t, CocycleTable.trivial(g, 4, {}))

    def test_cap(self):
        g = theta()
        t = CocycleTable.trivial(g, 2, {})
        with pytest.raises(CapExceeded):
            equivalent_under_factorization(t, t, cap=2)

    def test_carves_no_part_graph(self, monkeypatch):
        # the verbs read every decomposition and piece off the parent graph
        same = theta()
        t = construct_external_cocycle(same, 2, {})
        c = {w: MINUS_ONE if sum(w) % 4 else ONE
             for w in enumerate_admissible(same, 2, {})}
        t_cob = t * coboundary_of(same, 2, {}, c)
        g = dumbbell()
        ext = construct_external_cocycle(g, 4, {})
        trivial = CocycleTable.trivial(g, 4, {})

        def refuse(*args, **kwargs):
            raise AssertionError("a cut or part graph was built")

        monkeypatch.setattr(Graph, "subgraph", refuse)
        monkeypatch.setattr(factorize, "cut_edges", refuse)
        assert equivalent_under_factorization(t, t_cob)
        assert not equivalent_under_factorization(ext, trivial)
        assert gamma_piece_witness(ext) is None
        assert gamma_piece_witness(trivial) is not None
        for make, k in [(theta, 2), (dumbbell, 4), (gamma2, 2)]:
            graph = make()
            assert verify_characterization(graph, k, zero_boundary(graph))


class TestFunctoriality:
    @pytest.mark.parametrize("make,k", [
        (dumbbell, 2), (dumbbell, 4), (theta, 2), (gamma1, 4),
    ])
    def test_external_class_restricts_to_external_class(self, make, k):
        g = make()
        assert verify_functoriality(g, k, zero_boundary(g))


class TestCharacterization:
    def test_external_class_passes_witness(self):
        g = dumbbell()
        ext = construct_external_cocycle(g, 4, {})
        assert gamma_piece_witness(ext) is None

    def test_trivial_class_caught(self):
        g = dumbbell()
        witness = gamma_piece_witness(CocycleTable.trivial(g, 4, {}))
        assert witness is not None
        lam, jpp, fixed = witness
        assert lam != 0

    @pytest.mark.parametrize("make,k", [(dumbbell, 4), (theta, 2)])
    def test_full_characterization(self, make, k):
        g = make()
        assert verify_characterization(g, k, zero_boundary(g))

    def test_external_mismatch_fails(self, monkeypatch):
        standard = factorize._standard_target

        def negated(piece):
            target = standard(piece)
            return lambda *args: target(*args) * MINUS_ONE

        monkeypatch.setattr(factorize, "_standard_target", negated)
        g = dumbbell()
        assert not verify_characterization(g, 4, {})

    def test_piece_without_betti_number_one_rejected(self):
        # the figure eight around both loops isolates a piece of Betti
        # number 2
        g = Graph((("a", "u", "u"), ("b", "u", "u")), ())
        with pytest.raises(NotGammaN):
            list(factorize._piece_comparisons(g, instance(g, 2, {}), 4096))

    def test_unspanned_stabilizer_fails(self, monkeypatch):
        # dropping the comparisons at one orbit leaves a second class that
        # passes them all
        g = dumbbell()
        orb = next(o for o in instance(g, 4, {}).orbits if o.stabilizer_dim)
        comparisons = factorize._piece_comparisons

        def without_orbit(*args):
            for pair in comparisons(*args):
                if pair[1] not in orb.members:
                    yield pair

        assert verify_characterization(g, 4, {})
        monkeypatch.setattr(factorize, "_piece_comparisons", without_orbit)
        assert not verify_characterization(g, 4, {})


def every_class(g, k, b):
    """Every class of the instance as a lifted table, the external class
    first: class c flips the external character on the stabilizer_basis
    elements picked by its bits, orbit after orbit."""
    orbits = instance(g, k, b).orbits
    ext = external_characters(g, k, b).as_dict()
    dim = sum(orb.stabilizer_dim for orb in orbits)
    for c in range(1 << dim):
        chars, bits = {}, c
        for orb in orbits:
            span = F2Span(orb.stabilizer_basis)  # bit i stands for basis[i]
            flips = bits & ((1 << orb.stabilizer_dim) - 1)
            bits >>= orb.stabilizer_dim
            chars[orb.representative] = {
                lam: v * MINUS_ONE if bin(span.solve(lam) & flips).count("1") % 2 else v
                for lam, v in ext[orb.representative].items()
            }
        yield cocycle_from_characters(g, k, b, CohomologyInvariant.from_dict(chars))


ORACLE_INSTANCES = [
    (name, k)
    for name, g, k, b in suite_instances()
    if sum(orb.stabilizer_dim for orb in instance(g, k, b).orbits) <= 8
]


@pytest.mark.parametrize("name,k", ORACLE_INSTANCES)
def test_only_external_class_passes(name, k):
    # the brute-force oracle of the rank test: of all 2^D classes, exactly
    # the external one matches the standard class on every piece
    g = SUITE[name]()
    b = zero_boundary(g)
    passing = [
        i
        for i, t in enumerate(every_class(g, k, b))
        if gamma_piece_witness(t, cap=200_000) is None
    ]
    assert passing == [0]
    assert verify_characterization(g, k, b, cap=200_000)


# -- the restriction plan against the per-j'' oracle -------------------------
#
# The oracle is the direct path: loop over every j'', enumerate both parts,
# build each restricted table with restrict_cocycle and compare its
# representation or invariant.


def oracle_contexts(t, dec):
    for jpp in jpp_values(t.k, dec):
        b2 = dec.part_boundary(dec.part2, t.boundary, jpp)
        for fixed in enumerate_admissible(dec.part2, t.k, b2):
            yield jpp, fixed


def oracle_equivalent(t1, t2, cap=200_000):
    for dec in all_decompositions(t1.graph, cap):
        if dec.part1.n_edges == 0:
            continue
        for jpp, fixed in oracle_contexts(t1, dec):
            r1 = restrict_cocycle(t1, dec, jpp, fixed)
            r2 = restrict_cocycle(t2, dec, jpp, fixed)
            if not reps_isomorphic(r1, r2):
                return False
    return True


def oracle_functoriality(graph, k, boundary, cap=200_000):
    ext = construct_external_cocycle(graph, k, boundary)
    for dec in all_decompositions(graph, cap):
        if dec.part1.n_edges == 0:
            continue
        for jpp, fixed in oracle_contexts(ext, dec):
            b1 = dec.part_boundary(dec.part1, boundary, jpp)
            target = cohomology_invariant(construct_external_cocycle(dec.part1, k, b1))
            if cohomology_invariant(restrict_cocycle(ext, dec, jpp, fixed)) != target:
                return False
    return True


def oracle_witness(t):
    graph = t.graph
    for lam in graph.all_cycles():
        if lam == 0:
            continue
        with_cycle, _, res = isolate_cycle(graph, lam)
        for piece in with_cycle:
            side1 = frozenset(piece.vertices) & set(graph.vertices)
            dec = Decomposition(graph, res.cut, side1)
            for jpp, fixed in oracle_contexts(t, dec):
                b1 = dec.part_boundary(piece, t.boundary, jpp)
                restricted = restrict_cocycle(t, dec, jpp, fixed)
                standard = standard_gamma_n_cocycle(piece, t.k, b1)
                if cohomology_invariant(restricted) != cohomology_invariant(standard):
                    return lam, jpp, fixed
    return None


def leg_boundary(g):
    return {v: 2 for v in g.boundary_vertices}


SMALL_INSTANCES = [
    (make, k)
    for make in (theta, dumbbell, gamma1, gamma2, gamma3)
    for k in (2, 3, 4)
]
PLAN_INSTANCES = SMALL_INSTANCES + [(genus3_handle, 2)]


def sign_pairs(g, k, b, seed):
    """A same-class pair and, when the instance has two classes, a
    cross-class pair of sign cocycles."""
    rng = random.Random(seed)
    family = list(enumerate_sign_cocycles(g, k, b, cap=32))
    first = rng.choice(family)
    signs = {w: rng.choice((ONE, MINUS_ONE)) for w in first.weights}
    pairs = [(first, first * coboundary_of(g, k, b, signs))]
    inv = cohomology_invariant(first)
    others = [t for t in family if cohomology_invariant(t) != inv]
    if others:
        pairs.append((first, rng.choice(others)))
    return pairs


class TestPlanAgainstOracle:
    @pytest.mark.parametrize("make,k", PLAN_INSTANCES)
    def test_equivalence(self, make, k):
        g = make()
        b = leg_boundary(g)
        for t1, t2 in sign_pairs(g, k, b, seed=k):
            assert equivalent_under_factorization(t1, t2, cap=200_000) == (
                oracle_equivalent(t1, t2)
            )

    @pytest.mark.parametrize("make,k", SMALL_INSTANCES)
    def test_functoriality(self, make, k):
        g = make()
        b = leg_boundary(g)
        expected = oracle_functoriality(g, k, b)
        assert verify_functoriality(g, k, b, cap=200_000) == expected

    @pytest.mark.parametrize("make,k", SMALL_INSTANCES)
    def test_first_witness(self, make, k):
        g = make()
        b = leg_boundary(g)
        tables = [construct_external_cocycle(g, k, b)]
        tables += list(enumerate_sign_cocycles(g, k, b, cap=8))
        for t in tables:
            assert gamma_piece_witness(t, cap=200_000) == oracle_witness(t)

    @pytest.mark.parametrize("make,k", [(theta, 4), (dumbbell, 4), (gamma2, 2)])
    def test_plan_contexts_and_characters(self, make, k):
        # every context with a non-empty part-1 set, with its glued weights,
        # and the character read from the parent equals the restricted one
        g = make()
        b = leg_boundary(g)
        t = next(iter(enumerate_sign_cocycles(g, k, b, cap=8)))
        for dec in all_decompositions(g, cap=200_000):
            if dec.part1.n_edges == 0:
                continue
            contexts = restriction_plan(dec, t.weights)
            expected = {}
            for jpp, (ws1, ws2) in decompose_weights(g, k, b, dec).items():
                for fixed in ws2:
                    if ws1:
                        expected[(jpp, fixed)] = sorted(
                            dec.glue_weights(w1, fixed, jpp) for w1 in ws1
                        )
            assert list(contexts) == sorted(expected)
            cycles = [
                (mu, dec.to_original_cycle(mu)) for mu in dec.part1.all_cycles()
            ]
            assert {lam for _, lam in cycles} == {
                lam for lam in g.all_cycles() if not lam & ~dec.inside
            }
            for key, ws in contexts.items():
                assert sorted(ws) == expected[key]
                r = restrict_cocycle(t, dec, *key)
                for mu, lam in cycles:
                    from_parent = sum(
                        t.value(w, lam).as_sign() for w in ws if act(lam, w, k) == w
                    )
                    assert from_parent == character(r, mu)

    def test_witness_cap_counts_visited_contexts(self):
        g = dumbbell()
        t = CocycleTable.trivial(g, 4, {})
        witness = gamma_piece_witness(t)
        assert witness == oracle_witness(t)
        with pytest.raises(CapExceeded):
            gamma_piece_witness(construct_external_cocycle(g, 4, {}), cap=1)

    def test_non_cocycle_rejected(self):
        g = theta()
        t = CocycleTable.trivial(g, 2, {})
        bad = dict(t.table)
        key = next(iter(bad))
        bad[key] = MINUS_ONE
        broken = CocycleTable(g, t.inst, bad)
        assert not is_twisted_cocycle(broken)
        with pytest.raises(NotACocycle):
            equivalent_under_factorization(t, broken)
        with pytest.raises(NotACocycle):
            gamma_piece_witness(broken)
