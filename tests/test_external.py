"""External-edge targets, the parity identity, and the cocycle construction."""

import pytest

from qcgraph.circle import MINUS_ONE, ONE
from qcgraph.cohomology import (
    coboundary_of,
    cohomology_invariant,
    is_coboundary,
)
from qcgraph.errors import NotFixed, NotGammaN, ZeroCycle
from qcgraph.external import (
    check_parity_identity,
    construct_external_cocycle,
    external_characters,
    external_target,
    satisfies_external_condition,
    standard_gamma_n_cocycle,
)
from qcgraph.weights import enumerate_admissible, orbits
from suitegraphs import (
    cycle_from_edge_ids,
    dumbbell,
    gamma1,
    gamma2,
    suite_instances,
    theta,
    tree3,
    zero_boundary,
)


class TestTarget:
    def test_theta_no_external_edges(self):
        # every edge of theta meets the cycle's vertices, so the product is
        # empty and the target is 1
        g = theta()
        lam = cycle_from_edge_ids(g, ["e1", "e2"])
        assert external_target(g, 2, (1, 1, 0), lam) == ONE

    def test_dumbbell_bridge(self):
        g = dumbbell()
        a = cycle_from_edge_ids(g, ["a"])
        assert external_target(g, 4, (2, 2, 2), a) == MINUS_ONE
        assert external_target(g, 4, (2, 2, 0), a) == ONE

    def test_gamma1_leg(self):
        g = gamma1()
        lam = cycle_from_edge_ids(g, ["f2"])
        assert external_target(g, 4, (2, 2), lam) == MINUS_ONE

    def test_not_fixed(self):
        g = gamma1()
        with pytest.raises(NotFixed):
            external_target(g, 4, (2, 1), cycle_from_edge_ids(g, ["f2"]))

    def test_zero_cycle(self):
        with pytest.raises(ZeroCycle):
            external_target(theta(), 2, (0, 0, 0), 0)

    def test_sign_valued_on_all_fixed_pairs(self):
        for _, g, k, b in suite_instances([2, 4]):
            if g.genus == 0:
                continue
            for w in enumerate_admissible(g, k, b):
                for lam in g.all_cycles():
                    if lam == 0:
                        continue
                    try:
                        v = external_target(g, k, w, lam)
                    except NotFixed:
                        continue
                    assert v.is_sign()


class TestParity:
    @pytest.mark.parametrize(
        "name,g,k,b", list(suite_instances([1, 2, 3, 4])),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_holds_on_suite(self, name, g, k, b):
        for orb in orbits(g, k, b):
            assert check_parity_identity(g, k, orb)

    def test_odd_k_vacuous(self):
        g = dumbbell()
        chars = external_characters(g, 3, {}).as_dict()
        assert all(d == {0: ONE} for d in chars.values())


class TestConstruction:
    @pytest.mark.parametrize(
        "name,g,k,b", list(suite_instances([2, 4])),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_satisfies_condition_on_suite(self, name, g, k, b):
        t = construct_external_cocycle(g, k, b)
        assert satisfies_external_condition(t)

    def test_dumbbell_values(self):
        g = dumbbell()
        t = construct_external_cocycle(g, 4, {})
        a = cycle_from_edge_ids(g, ["a"])
        b = cycle_from_edge_ids(g, ["b"])
        assert t.value((2, 2, 2), a) == MINUS_ONE
        assert t.value((2, 2, 2), b) == MINUS_ONE
        assert not is_coboundary(t)

    def test_class_unique(self):
        # multiplying by any coboundary preserves the external condition,
        # and the construction recovers the same class
        g = theta()
        t = construct_external_cocycle(g, 2, {})
        c = {w: MINUS_ONE if w[0] == 1 else ONE for w in t.weights}
        t2 = t * coboundary_of(g, 2, {}, c)
        assert satisfies_external_condition(t2)
        assert cohomology_invariant(t2) == cohomology_invariant(t)
        assert is_coboundary(t2 * t.inverse())

    def test_perturbed_lift_fails_condition(self):
        g = dumbbell()
        t = construct_external_cocycle(g, 4, {})
        bad = t.table.copy()
        key = (g.cycle_basis()[0], (2, 2, 2))
        bad[key] = bad[key] * MINUS_ONE
        t2 = t.__class__(g, t.inst, bad)
        assert not satisfies_external_condition(t2)


class TestStandardGammaN:
    def test_gamma1_value(self):
        g = gamma1()
        t = standard_gamma_n_cocycle(g, 4, {"w1": 2})
        lam = cycle_from_edge_ids(g, ["f2"])
        assert t.value((2, 2), lam) == MINUS_ONE
        assert satisfies_external_condition(t)

    def test_gamma2_no_fixed_weight(self):
        # odd boundary weights leave no candidate fixed weight: trivial table
        g = gamma2()
        t = standard_gamma_n_cocycle(g, 2, {"w1": 1, "w2": 1})
        assert all(v == ONE for v in t.table.values())
        assert satisfies_external_condition(t)

    def test_odd_level_trivial(self):
        t = standard_gamma_n_cocycle(gamma1(), 3, {"w1": 0})
        assert all(v == ONE for v in t.table.values())

    def test_agrees_with_construction_up_to_coboundary(self):
        for make, b in [
            (gamma1, {"w1": 2}),
            (gamma1, {"w1": 0}),
            (gamma2, {"w1": 0, "w2": 2}),
        ]:
            g = make()
            std = standard_gamma_n_cocycle(g, 4, b)
            built = construct_external_cocycle(g, 4, b)
            assert is_coboundary(std * built.inverse())

    def test_rejects_higher_genus(self):
        with pytest.raises(NotGammaN):
            standard_gamma_n_cocycle(theta(), 2, {})

    def test_rejects_tree(self):
        with pytest.raises(NotGammaN):
            standard_gamma_n_cocycle(tree3(), 2, zero_boundary(tree3()))
