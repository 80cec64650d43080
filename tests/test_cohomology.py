"""Twisted cocycles, coboundaries, the class invariant and class counting."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qcgraph.errors import IncompleteTable, NotACoboundary
from qcgraph.external import construct_external_cocycle
from qcgraph.weights import act, enumerate_admissible, orbits
from suitegraphs import SUITE, cycle_from_edge_ids, dumbbell, gamma1, theta, tree3


def cochain(graph, k, boundary, overrides=None):
    c = {w: ONE for w in enumerate_admissible(graph, k, boundary)}
    c.update(overrides or {})
    return c


class TestCocycleIdentity:
    def test_trivial(self):
        assert is_twisted_cocycle(CocycleTable.trivial(theta(), 2, {}))

    def test_coboundary_is_cocycle(self):
        g = theta()
        c = cochain(g, 2, {}, {(0, 0, 0): MINUS_ONE})
        assert is_twisted_cocycle(coboundary_of(g, 2, {}, c))

    def test_order_four_values_off_fixed_points(self):
        # i / -i on a swapped pair satisfies the 2-torsion relation
        g = gamma1()
        i_val = CircleValue(Fraction(1, 4))
        values = {(2, 1): i_val, (2, 3): i_val.inverse(), (2, 2): ONE}
        t = CocycleTable.build(g, 4, {"w1": 2}, lambda b, w: values[w])
        assert is_twisted_cocycle(t)

    def test_incomplete_table(self):
        t = CocycleTable.trivial(theta(), 2, {})
        del t.table[(t.basis[0], t.weights[0])]
        with pytest.raises(IncompleteTable):
            is_twisted_cocycle(t)


    def test_decompose_rejects_mask_outside_h1(self):
        g = theta()
        t = CocycleTable.trivial(g, 2, {})
        lam = cycle_from_edge_ids(g, ["e1", "e2"])
        assert [t.basis[i] for i in t.decompose(lam)] == [lam]
        assert t.decompose(0) == ()
        for mask in (cycle_from_edge_ids(g, ["e1"]), 1 << g.n_edges):
            with pytest.raises(ValueError, match="not in the homology span"):
                t.decompose(mask)
            with pytest.raises(ValueError):
                t.value(t.weights[0], mask)


class TestCoboundaries:
    def test_theta_example_values(self):
        g = theta()
        c = cochain(g, 2, {}, {(0, 0, 0): MINUS_ONE})
        dc = coboundary_of(g, 2, {}, c)
        lam = cycle_from_edge_ids(g, ["e1", "e2"])
        for w in dc.weights:
            expected = MINUS_ONE if w in ((0, 0, 0), (2, 2, 0)) else ONE
            assert dc.value(w, lam) == expected

    def test_fixed_pair_cancellation(self):
        g = dumbbell()
        c = cochain(g, 4, {}, {(2, 2, 2): CircleValue(Fraction(1, 3))})
        dc = coboundary_of(g, 4, {}, c)
        assert is_coboundary(dc)

    def test_external_cocycle_is_not_coboundary(self):
        assert not is_coboundary(construct_external_cocycle(dumbbell(), 4, {}))

    def test_cobounding_chain_round_trip(self):
        g = theta()
        c = cochain(g, 2, {}, {(0, 0, 0): MINUS_ONE})
        dc = coboundary_of(g, 2, {}, c)
        c2 = cobounding_chain(dc)
        assert coboundary_of(g, 2, {}, c2).table == dc.table
        assert c2[(2, 2, 0)] * c2[(0, 0, 0)].inverse() == MINUS_ONE

    def test_cobounding_chain_rejects_nontrivial_class(self):
        with pytest.raises(NotACoboundary):
            cobounding_chain(construct_external_cocycle(dumbbell(), 4, {}))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 11), min_size=10, max_size=10))
    def test_random_cochains_cobound(self, exps):
        # d then "is d of something" must always hold, for any torsion values
        g = theta()
        ws = enumerate_admissible(g, 2, {})
        c = {w: CircleValue(Fraction(e, 12)) for w, e in zip(ws, exps)}
        dc = coboundary_of(g, 2, {}, c)
        assert is_twisted_cocycle(dc)
        assert is_coboundary(dc)
        assert cohomology_invariant(dc).is_trivial()
        c2 = cobounding_chain(dc)
        assert coboundary_of(g, 2, {}, c2).table == dc.table


class TestInvariant:
    def test_trivial_invariant(self):
        inv = cohomology_invariant(CocycleTable.trivial(theta(), 2, {}))
        assert inv.is_trivial()

    def test_dumbbell_external_invariant(self):
        g = dumbbell()
        inv = cohomology_invariant(construct_external_cocycle(g, 4, {}))
        chars = inv.as_dict()[(2, 2, 2)]
        a = cycle_from_edge_ids(g, ["a"])
        b = cycle_from_edge_ids(g, ["b"])
        assert chars[a] == MINUS_ONE and chars[b] == MINUS_ONE
        assert chars[a ^ b] == ONE

    def test_separates_classes_on_family(self):
        g = theta()
        fam = list(enumerate_sign_cocycles(g, 2, {}))
        invs = {}
        for t in fam:
            invs.setdefault(cohomology_invariant(t), []).append(t)
        assert len(invs) == cohomology_group_order(g, 2, {})
        for inv, members in invs.items():
            trivial = inv.is_trivial()
            for t in members[:8]:
                assert is_coboundary(t) == trivial


class TestCharacterLift:
    def test_trivial_lift(self):
        g = theta()
        inv = cohomology_invariant(CocycleTable.trivial(g, 2, {}))
        t = cocycle_from_characters(g, 2, {}, inv)
        assert all(v == ONE for v in t.table.values())

    def test_section_property_all_invariants(self):
        g, k = theta(), 2
        orbs = orbits(g, k, {})
        from itertools import product

        stabbed = [o for o in orbs if o.stabilizer_dim > 0]
        for signs in product([ONE, MINUS_ONE], repeat=len(stabbed)):
            d = {}
            for o in orbs:
                d[o.representative] = {lam: ONE for lam in o.stabilizer}
            for o, s in zip(stabbed, signs):
                (gen,) = o.stabilizer_basis
                d[o.representative][gen] = s
            inv = CohomologyInvariant.from_dict(d)
            t = cocycle_from_characters(g, k, {}, inv)
            assert is_twisted_cocycle(t)
            assert cohomology_invariant(t) == inv

    def test_dumbbell_full_stabilizer_character(self):
        g = dumbbell()
        a = cycle_from_edge_ids(g, ["a"])
        b = cycle_from_edge_ids(g, ["b"])
        d = {}
        for o in orbits(g, 4, {}):
            d[o.representative] = {lam: ONE for lam in o.stabilizer}
        d[(2, 2, 2)] = {0: ONE, a: MINUS_ONE, b: ONE, a ^ b: MINUS_ONE}
        inv = CohomologyInvariant.from_dict(d)
        t = cocycle_from_characters(g, 4, {}, inv)
        assert t.value((2, 2, 2), a) == MINUS_ONE
        assert t.value((2, 2, 2), b) == ONE
        assert cohomology_invariant(t) == inv


class TestCounting:
    def test_theta_k2_order(self):
        assert cohomology_group_order(theta(), 2, {}) == 8

    def test_tree_order_one(self):
        assert cohomology_group_order(tree3(), 4, {"w1": 0, "w2": 0, "w3": 0}) == 1

    def test_odd_k_order_one(self):
        assert cohomology_group_order(dumbbell(), 5, {}) == 1

    def test_brute_force_theta(self):
        assert brute_force_class_count(theta(), 2, {}) == 8

    def test_brute_force_tree(self):
        b = {"w1": 0, "w2": 0, "w3": 0}
        assert brute_force_class_count(tree3(), 3, b) == 1

    def test_brute_force_gamma1(self):
        assert brute_force_class_count(gamma1(), 4, {"w1": 2}) == 2

    def test_sign_family_members_are_cocycles(self):
        for t in enumerate_sign_cocycles(dumbbell(), 2, {}, cap=256):
            assert is_twisted_cocycle(t)


# sha256 over the serialized tables of enumerate_sign_cocycles, in order:
# (graph, level, boundary, cap, tables yielded, digest).  Level 2 yields
# the whole family; cap 256 takes the seeded-sample path where the family
# is larger.
SIGN_FAMILY_DIGESTS = [
    ("theta", 2, {}, 65536, 512, "f399ac074e57a547d8b6c3ea68021f1e2137c17fc3ec0295a5e6dab315d2a88f"),
    ("theta", 3, {}, 256, 256, "8cb026506715d1b49282be574cc1eb014cd1c11c303ddca09ad9ba1cb4eb7f49"),
    ("theta", 4, {}, 256, 256, "4dcb246e01de08c9a8d703f7c439ca9b34be3a7367fb0c9de25804ff397f9446"),
    ("dumbbell", 2, {}, 65536, 2048, "ff272344c45ec98a2a9092bf9ed141333aefb11489ce16bfe874f9ce3b2c3c14"),
    ("dumbbell", 3, {}, 256, 256, "f57f1024a2a5df48a431e24a5f146ec2e0da7251b4a2ab6f1078d10d2f30cc4a"),
    ("dumbbell", 4, {}, 256, 256, "4940a37247e69b8229acceb6888392d93e58791ad6562e2a6783611faccd8771"),
    ("gamma2", 2, {'w1': 0, 'w2': 0}, 65536, 4, "9a7030e64bc842209ea7ea5fe5fea4fa8d358cb2ecdcfd5bb9b49c33df53847c"),
    ("gamma2", 2, {'w1': 2, 'w2': 2}, 65536, 4, "9a7030e64bc842209ea7ea5fe5fea4fa8d358cb2ecdcfd5bb9b49c33df53847c"),
    ("gamma2", 3, {'w1': 0, 'w2': 0}, 256, 4, "62827b7af9a9f434bc8832a5eb927020b5855e281dd51dda7232f247afa1286a"),
    ("gamma2", 3, {'w1': 2, 'w2': 2}, 256, 8, "21784f5eb6c0cc17e84d54591a7c7be9be7a2d42f30d0bc6dadc36e65b4c1626"),
    ("gamma2", 4, {'w1': 0, 'w2': 0}, 256, 8, "e40306a52cc8458c98f1b4aea4c66090f991ca1a5fe5c40b5a165567789f0b91"),
    ("gamma2", 4, {'w1': 2, 'w2': 2}, 256, 32, "863c2b9f1566c45c16d01ec127864713737785b508f33e7c1f37866fe2215a99"),
]


@pytest.mark.parametrize(
    "name, k, boundary, cap, count, digest",
    SIGN_FAMILY_DIGESTS,
    ids=[f"{r[0]}-{r[1]}-{sum(r[2].values())}" for r in SIGN_FAMILY_DIGESTS],
)
def test_sign_family_golden_digest(name, k, boundary, cap, count, digest):
    h = hashlib.sha256()
    n = 0
    for t in enumerate_sign_cocycles(SUITE[name](), k, boundary, cap=cap):
        h.update(t.serialize().encode())
        n += 1
    assert (n, h.hexdigest()) == (count, digest)
