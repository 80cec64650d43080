"""Admissibility, enumeration, the flip action, orbits and stabilizers,
and the shared per-(graph, level, boundary) instance."""

import gc
import random
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcgraph.circle import ONE
from qcgraph.cohomology import (
    CocycleTable,
    coboundary_of,
    cocycle_from_characters,
    cohomology_invariant,
    enumerate_sign_cocycles,
    is_coboundary,
)
from qcgraph.errors import RangeError
from qcgraph.external import construct_external_cocycle, external_characters
from qcgraph.weights import (
    act,
    check_admissible,
    enumerate_admissible,
    enumerate_admissible_bruteforce,
    fixed_edges,
    instance,
    orbits,
)
from suitegraphs import (
    cycle_from_edge_ids,
    dumbbell,
    gamma1,
    gamma2,
    random_unitrivalent,
    suite_instances,
    theta,
    tree3,
    zero_boundary,
)

THETA_K2 = [
    (0, 0, 0),
    (0, 1, 1),
    (0, 2, 2),
    (1, 0, 1),
    (1, 1, 0),
    (1, 1, 2),
    (1, 2, 1),
    (2, 0, 2),
    (2, 1, 1),
    (2, 2, 0),
]


class TestCheckAdmissible:
    def test_theta_triangle_violation(self):
        assert not check_admissible(theta(), 2, (0, 0, 2), {})

    def test_all_zero_always_admissible(self):
        for _, g, k, b in suite_instances([1, 2, 3]):
            assert check_admissible(g, k, (0,) * g.n_edges, b)

    def test_theta_112(self):
        assert check_admissible(theta(), 2, (1, 1, 2), {})

    def test_range_error(self):
        with pytest.raises(RangeError):
            check_admissible(theta(), 2, (0, 0, 3), {})

    def test_boundary_must_match(self):
        g = gamma1()
        assert check_admissible(g, 4, (2, 2), {"w1": 2})
        assert not check_admissible(g, 4, (2, 2), {"w1": 0})

    def test_loop_duplicates_its_value(self):
        # the loop contributes its entry twice at the vertex
        g = gamma1()
        assert check_admissible(g, 2, (2, 1), {"w1": 2})
        assert not check_admissible(g, 2, (2, 0), {"w1": 2})


class TestEnumerate:
    def test_theta_k2(self):
        assert enumerate_admissible(theta(), 2, {}) == THETA_K2

    def test_single_vertex_three_legs(self):
        g = tree3()
        # the boundary pins everything: one weight iff the triple passes
        assert enumerate_admissible(g, 2, {"w1": 1, "w2": 1, "w3": 2}) == [(1, 1, 2)]
        # half-integer total fails integrality
        assert enumerate_admissible(g, 2, {"w1": 1, "w2": 1, "w3": 1}) == []

    def test_half_integer_boundary_total_is_empty(self):
        assert enumerate_admissible(gamma1(), 4, {"w1": 1}) == []

    @pytest.mark.parametrize(
        "name,g,k,b", list(suite_instances([1, 2, 3, 4])),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_matches_bruteforce_oracle(self, name, g, k, b):
        if (k + 1) ** g.n_edges > 200_000:
            pytest.skip("oracle too large")
        assert enumerate_admissible(g, k, b) == enumerate_admissible_bruteforce(
            g, k, b
        )

    @settings(max_examples=60, deadline=None)
    @given(
        genus=st.integers(0, 3),
        legs=st.integers(0, 3),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_edge_orders_match_bruteforce(self, genus, legs, k, seed):
        # random edge orders put loops, boundary legs and parallel edges at
        # every position of the backtracking
        assume(2 * genus - 2 + legs >= 0)
        rng = random.Random(seed)
        g = random_unitrivalent(genus, legs, rng)
        assume((k + 1) ** g.n_edges <= 20_000)
        b = {v: rng.randrange(k + 1) for v in g.boundary_vertices}
        assert enumerate_admissible(g, k, b) == enumerate_admissible_bruteforce(
            g, k, b
        )

    def test_empty_graph(self):
        from qcgraph.graph import Graph

        assert enumerate_admissible(Graph((), ()), 3, {}) == [()]


class TestAction:
    def test_flip_on_support(self):
        g = theta()
        lam = cycle_from_edge_ids(g, ["e1", "e2"])
        assert act(lam, (0, 0, 0), 2) == (2, 2, 0)

    def test_zero_cycle_is_identity(self):
        assert act(0, (1, 1, 2), 2) == (1, 1, 2)

    def test_involution_and_group_law(self):
        g = dumbbell()
        k, b = 4, {}
        cycles = g.all_cycles()
        for w in enumerate_admissible(g, k, b):
            for l1 in cycles:
                assert act(l1, act(l1, w, k), k) == w
                for l2 in cycles:
                    assert act(l1 ^ l2, w, k) == act(l1, act(l2, w, k), k)

    @pytest.mark.parametrize(
        "name,g,k,b", list(suite_instances([1, 2, 3, 4])),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_preserves_admissibility(self, name, g, k, b):
        for w in enumerate_admissible(g, k, b):
            for lam in g.all_cycles():
                assert check_admissible(g, k, act(lam, w, k), b)


class TestOrbits:
    def test_theta_k2(self):
        orbs = orbits(theta(), 2, {})
        assert sorted(len(o.members) for o in orbs) == [2, 2, 2, 4]
        assert sorted(o.stabilizer_dim for o in orbs) == [0, 1, 1, 1]

    def test_odd_k_trivial_stabilizers(self):
        for _, g, k, b in suite_instances([1, 3, 5]):
            assert all(o.stabilizer_dim == 0 for o in orbits(g, k, b))

    def test_dumbbell_full_stabilizer(self):
        g = dumbbell()
        orb = next(
            o for o in orbits(g, 4, {}) if (2, 2, 2) in o.members
        )
        assert orb.stabilizer_dim == 2
        assert orb.members == frozenset({(2, 2, 2)})

    def test_orbit_stabilizer_counting(self):
        for _, g, k, b in suite_instances([2, 4]):
            orbs = orbits(g, k, b)
            total = sum(len(o.members) for o in orbs)
            assert total == len(enumerate_admissible(g, k, b))
            for o in orbs:
                assert len(o.members) << o.stabilizer_dim == 1 << g.genus

    def test_representative_is_lex_min(self):
        for o in orbits(dumbbell(), 4, {}):
            assert o.representative == min(o.members)

    def test_fixed_iff_half_level_on_support(self):
        g, k = theta(), 4
        for o in orbits(g, k, {}):
            w = o.representative
            for lam in g.all_cycles():
                fixed = act(lam, w, k) == w
                on_support = all(
                    w[i] == k // 2 for i in range(g.n_edges) if lam >> i & 1
                )
                assert fixed == on_support


class TestFixedEdges:
    @pytest.mark.parametrize(
        "name,g,k,b", list(suite_instances()),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_mask_test_matches_act(self, name, g, k, b):
        inst = instance(g, k, b)
        assert inst.fixed == tuple(fixed_edges(w, k) for w in inst.weights)
        for w, fixed in zip(inst.weights, inst.fixed):
            for lam in inst.cycles:
                assert (lam & ~fixed == 0) == (act(lam, w, k) == w)


class TestInstance:
    def test_tables_of_one_triple_share_one_instance(self):
        g, k, b = gamma2(), 4, {"w1": 2, "w2": 2}
        inst = instance(g, k, b)
        ones = {w: ONE for w in inst.weights}
        tables = [
            CocycleTable.build(g, k, b, lambda cycle, w: ONE),
            coboundary_of(g, k, dict(b), ones),
            cocycle_from_characters(g, k, b, external_characters(g, k, b)),
            construct_external_cocycle(g, k, {"w2": 2, "w1": 2}),
            *enumerate_sign_cocycles(g, k, b, cap=4),
        ]
        assert len(tables) == 8
        assert all(t.inst is inst for t in tables)
        assert (tables[0] * tables[1]).inst is inst
        assert tables[2].inverse().inst is inst

    def test_level_and_boundary_select_the_instance(self):
        g, b = gamma2(), {"w1": 2, "w2": 2}
        inst = instance(g, 4, b)
        assert instance(g, 2, b) is not inst
        assert instance(g, 4, {"w1": 0, "w2": 2}) is not inst
        assert instance(g, 4, {"w1": 2, "w2": 2}) is inst
        assert instance(gamma2(), 4, b) is not inst  # memoized per graph object

    def test_boundary_is_the_instance_copy(self):
        g, b = gamma1(), {"w1": 2}
        t = CocycleTable.trivial(g, 4, b)
        b["w1"] = 0
        assert t.boundary == {"w1": 2}
        assert t.boundary is not b
        assert CocycleTable.trivial(g, 4, {"w1": 2}).inst is t.inst

    def test_out_of_range_boundary_memoizes_nothing(self):
        g = gamma1()
        for _ in range(2):
            with pytest.raises(RangeError):
                instance(g, 4, {"w1": 5})
            with pytest.raises(RangeError):
                CocycleTable.trivial(g, 4, {"w1": 5})
            with pytest.raises(RangeError):
                orbits(g, 4, {"w1": 5})
        assert g._instances == {}

    def test_orbits_returns_a_fresh_list(self):
        g = theta()
        first = orbits(g, 2, {})
        expected = list(first)
        first.clear()
        second = orbits(g, 2, {})
        assert second is not first
        assert second == expected and len(second) == 4

    def test_graph_is_freed_by_refcounting_alone(self):
        gc.disable()
        try:
            g = dumbbell()
            ref = weakref.ref(g)
            for k in (2, 4):
                t = construct_external_cocycle(g, k, {})
                assert is_coboundary(t * t.inverse())  # perms, span and orbits
                cohomology_invariant(t)
            assert len(g._instances) == 2
            del g, t
            assert ref() is None
        finally:
            gc.enable()
