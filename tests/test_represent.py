"""Monomial representations, characters and isomorphism testing."""

import pytest

from qcgraph.circle import MINUS_ONE, ONE
from qcgraph.cohomology import (
    CocycleTable,
    cobounding_chain,
    coboundary_of,
    cohomology_invariant,
)
from qcgraph.errors import NotACocycle
from qcgraph.external import construct_external_cocycle, standard_gamma_n_cocycle
from qcgraph.represent import (
    MonomialMatrix,
    character,
    rep_matrix,
    reps_isomorphic,
    verify_intertwiner,
)
from qcgraph.weights import enumerate_admissible
from suitegraphs import cycle_from_edge_ids, dumbbell, gamma1, gamma2, theta


class TestMatrixAlgebra:
    def test_identity(self):
        m = MonomialMatrix.identity(3)
        assert m @ m == m

    def test_rep_is_homomorphism(self):
        g = theta()
        t = construct_external_cocycle(g, 2, {})
        cycles = g.all_cycles()
        mats = {lam: rep_matrix(t, lam, checked=False) for lam in cycles}
        for l1 in cycles:
            for l2 in cycles:
                assert mats[l1] @ mats[l2] == mats[l1 ^ l2]

    def test_involution(self):
        g = dumbbell()
        t = construct_external_cocycle(g, 4, {})
        ident = MonomialMatrix.identity(len(t.weights))
        for lam in g.all_cycles():
            m = rep_matrix(t, lam, checked=False)
            assert m @ m == ident

    def test_rejects_non_cocycle(self):
        g = theta()
        t = CocycleTable.trivial(g, 2, {})
        t.table[(t.basis[0], (0, 0, 0))] = MINUS_ONE
        with pytest.raises(NotACocycle):
            rep_matrix(t, t.basis[0])


class TestCharacter:
    def test_zero_cycle_gives_dimension(self):
        g = dumbbell()
        t = CocycleTable.trivial(g, 4, {})
        assert character(t, 0) == len(enumerate_admissible(g, 4, {}))

    def test_theta_trivial_cocycle(self):
        g = theta()
        t = CocycleTable.trivial(g, 2, {})
        lam = cycle_from_edge_ids(g, ["e1", "e2"])
        # fixed weights are those with entries 1 on e1, e2: (1,1,0) and (1,1,2)
        assert character(t, lam) == 2

    def test_character_sums_target_signs(self):
        from qcgraph.external import external_target
        from qcgraph.weights import act

        g = dumbbell()
        t = construct_external_cocycle(g, 4, {})
        a = cycle_from_edge_ids(g, ["a"])
        expected = sum(
            external_target(g, 4, w, a).as_sign()
            for w in t.weights
            if act(a, w, 4) == w
        )
        assert character(t, a) == expected == 3

    def test_character_invariant_under_coboundary(self):
        g = theta()
        t = construct_external_cocycle(g, 2, {})
        c = {w: MINUS_ONE if sum(w) % 4 else ONE for w in t.weights}
        t2 = t * coboundary_of(g, 2, {}, c)
        for lam in g.all_cycles():
            assert character(t, lam) == character(t2, lam)


class TestIntertwiners:
    def test_cobounding_chain_intertwines(self):
        g = theta()
        t = construct_external_cocycle(g, 2, {})
        c = {w: MINUS_ONE if w[0] == 1 else ONE for w in t.weights}
        t2 = t * coboundary_of(g, 2, {}, c)
        ratio = t2 * t.inverse()
        chain = cobounding_chain(ratio)
        assert verify_intertwiner(t, t2, chain)

    def test_wrong_chain_fails(self):
        g = dumbbell()
        t1 = CocycleTable.trivial(g, 4, {})
        t2 = construct_external_cocycle(g, 4, {})
        ones = {w: ONE for w in t1.weights}
        assert not verify_intertwiner(t1, t2, ones)


class TestIsomorphism:
    def test_standard_vs_trivial_gamma1(self):
        g = gamma1()
        std = standard_gamma_n_cocycle(g, 4, {"w1": 2})
        assert not reps_isomorphic(std, CocycleTable.trivial(g, 4, {"w1": 2}))

    def test_cohomologous_implies_isomorphic(self):
        g = gamma2()
        b = {"w1": 0, "w2": 2}
        std = standard_gamma_n_cocycle(g, 4, b)
        built = construct_external_cocycle(g, 4, b)
        assert cohomology_invariant(std) == cohomology_invariant(built)
        assert reps_isomorphic(std, built)

    def test_distinct_invariants_distinct_reps(self):
        g = dumbbell()
        t = construct_external_cocycle(g, 4, {})
        assert not reps_isomorphic(t, CocycleTable.trivial(g, 4, {}))
