"""Int-backed circle values against a Fraction-backed reference, and the
flip-permutation table operations against references built on ``act``."""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcgraph.circle import MINUS_ONE, ONE, CircleValue
from qcgraph.cohomology import (
    CocycleTable,
    coboundary_of,
    cocycle_from_characters,
    enumerate_sign_cocycles,
    fixed_pairs,
    is_twisted_cocycle,
)
from qcgraph.external import construct_external_cocycle, external_characters
from qcgraph.represent import (
    MonomialMatrix,
    character,
    diagonal_intertwiner_ok,
    rep_matrix,
)
from qcgraph.weights import act, enumerate_admissible
from suitegraphs import dumbbell, gamma1, gamma2, genus3_handle, theta


@dataclass(frozen=True)
class RefCircle:
    """The Fraction-backed circle value: the test oracle."""

    exponent: Fraction

    def __post_init__(self):
        reduced = self.exponent % 1
        if reduced != self.exponent:
            object.__setattr__(self, "exponent", reduced)

    def __mul__(self, other: RefCircle) -> RefCircle:
        return RefCircle(self.exponent + other.exponent)

    def inverse(self) -> RefCircle:
        return RefCircle(-self.exponent)

    def __pow__(self, n: int) -> RefCircle:
        return RefCircle(self.exponent * n)

    @property
    def order(self) -> int:
        return self.exponent.denominator

    def is_one(self) -> bool:
        return self.exponent == 0

    def is_sign(self) -> bool:
        return self.exponent.denominator <= 2

    def as_sign(self) -> int:
        if self.exponent == 0:
            return 1
        if self.exponent == Fraction(1, 2):
            return -1
        raise ValueError(f"not a sign: {self}")

    def __str__(self) -> str:
        return f"{self.exponent.numerator}/{self.exponent.denominator}"


exponents = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 60)
)


def pair(e: Fraction) -> tuple[CircleValue, RefCircle]:
    return CircleValue(e), RefCircle(e)


def agrees(v: CircleValue, r: RefCircle) -> bool:
    return (
        v.exponent == r.exponent
        and type(v.exponent) is Fraction
        and str(v) == str(r)
        and 0 <= v.num < v.den
        and Fraction(v.num, v.den) == r.exponent
    )


class TestAgainstFractionReference:
    @given(exponents)
    def test_construction(self, e):
        v, r = pair(e)
        assert agrees(v, r)
        assert CircleValue(e.numerator, e.denominator) == v
        assert CircleValue(exponent=e) == v

    @given(exponents, exponents)
    def test_product(self, e1, e2):
        (v1, r1), (v2, r2) = pair(e1), pair(e2)
        assert agrees(v1 * v2, r1 * r2)

    @given(exponents)
    def test_inverse(self, e):
        v, r = pair(e)
        assert agrees(v.inverse(), r.inverse())
        assert (v * v.inverse()).is_one()

    @given(exponents, st.integers(-100, 100))
    def test_power(self, e, n):
        v, r = pair(e)
        assert agrees(v**n, r**n)

    @given(exponents, exponents)
    def test_equality_and_hash(self, e1, e2):
        (v1, r1), (v2, r2) = pair(e1), pair(e2)
        assert (v1 == v2) == (r1 == r2)
        assert (v1 != v2) == (r1 != r2)
        if v1 == v2:
            assert hash(v1) == hash(v2)

    @given(exponents)
    def test_predicates(self, e):
        v, r = pair(e)
        assert v.order == r.order
        assert v.is_one() == r.is_one()
        assert v.is_sign() == r.is_sign()
        if r.is_sign():
            assert v.as_sign() == r.as_sign()
        else:
            with pytest.raises(ValueError):
                v.as_sign()


class TestCircleValue:
    def test_constants(self):
        assert str(ONE) == "0/1" and str(MINUS_ONE) == "1/2"
        assert CircleValue.half_integer_exp(2) == MINUS_ONE
        assert CircleValue.half_integer_exp(1) == CircleValue(Fraction(1, 4))
        assert MINUS_ONE * MINUS_ONE == ONE

    def test_immutable(self):
        v = CircleValue(Fraction(1, 3))
        with pytest.raises(AttributeError):
            v.num = 2
        with pytest.raises(AttributeError):
            del v.den
        assert str(v) == "1/3"

    def test_pickle_round_trip(self):
        v = CircleValue(Fraction(5, 12))
        assert pickle.loads(pickle.dumps(v)) == v

    def test_not_equal_to_other_types(self):
        assert CircleValue(0) != 0
        assert CircleValue(Fraction(1, 2)) != Fraction(1, 2)

    def test_rejects_floats_and_bad_denominators(self):
        with pytest.raises(TypeError):
            CircleValue(0.5)
        with pytest.raises(ValueError):
            CircleValue(1, 0)
        with pytest.raises(ValueError):
            CircleValue(1, -2)


# -- table operations against act-based references --------------------------


def ref_is_twisted_cocycle(t: CocycleTable) -> bool:
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


def ref_value(t: CocycleTable, w, cycle: int) -> CircleValue:
    val, cur = ONE, w
    for i in t.decompose(cycle):
        b = t.basis[i]
        val = val * t.table[(b, cur)]
        cur = act(b, cur, t.k)
    return val


def ref_rep_matrix(t: CocycleTable, cycle: int) -> MonomialMatrix:
    index = {w: i for i, w in enumerate(t.weights)}
    perm = tuple(index[act(cycle, w, t.k)] for w in t.weights)
    return MonomialMatrix(perm, tuple(ref_value(t, w, cycle) for w in t.weights))


INSTANCES = [
    (theta, 2, {}),
    (theta, 4, {}),
    (dumbbell, 4, {}),
    (gamma1, 4, {"w1": 2}),
    (gamma2, 4, {"w1": 2, "w2": 2}),
    (genus3_handle, 2, {}),
]


def random_table(rng: random.Random) -> CocycleTable:
    """A cocycle (lifted external class times a torsion coboundary), a sign
    cocycle from the F2 family, or a table of random order-12 values."""
    make, k, boundary = rng.choice(INSTANCES)
    g = make()
    kind = rng.randrange(3)
    if kind == 0:
        weights = enumerate_admissible(g, k, boundary)
        c = {w: CircleValue(rng.randrange(12), 12) for w in weights}
        inv = external_characters(g, k, boundary)
        lifted = cocycle_from_characters(g, k, boundary, inv)
        return lifted * coboundary_of(g, k, boundary, c)
    if kind == 1:
        fam = list(enumerate_sign_cocycles(g, k, boundary, cap=16))
        return rng.choice(fam)
    return CocycleTable.build(
        g, k, boundary, lambda b, w: CircleValue(rng.randrange(12), 12)
    )


def assert_matches_reference(t: CocycleTable) -> None:
    assert is_twisted_cocycle(t) == ref_is_twisted_cocycle(t)
    cycles = t.graph.all_cycles()
    for lam in cycles:
        for w in t.weights:
            assert t.value(w, lam) == ref_value(t, w, lam)
        assert rep_matrix(t, lam, checked=False) == ref_rep_matrix(t, lam)
    expected = [
        (lam, w) for lam in cycles if lam for w in t.weights if act(lam, w, t.k) == w
    ]
    assert list(fixed_pairs(t)) == expected
    if all(v.is_sign() for v in t.table.values()):
        for lam in cycles:
            assert character(t, lam) == sum(
                ref_value(t, w, lam).as_sign()
                for w in t.weights
                if act(lam, w, t.k) == w
            )


class TestFlipPermutationsAgainstAct:
    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_tables(self, rng):
        assert_matches_reference(random_table(rng))

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_table_mutated_after_flips_built(self, rng):
        t = random_table(rng)
        assert t.inst.perms is not None  # permutations exist before the edit
        key = rng.choice(sorted(t.table))
        t.table[key] = t.table[key] * CircleValue(rng.randrange(1, 4), 4)
        assert_matches_reference(t)
        derived = t * t.inverse()
        assert derived.inst is t.inst
        assert all(v == ONE for v in derived.table.values())

    def test_coboundary_of_against_act(self):
        rng = random.Random(5)
        g, k = dumbbell(), 4
        weights = enumerate_admissible(g, k, {})
        c = {w: CircleValue(rng.randrange(12), 12) for w in weights}
        dc = coboundary_of(g, k, {}, c)
        for b in dc.basis:
            for w in weights:
                assert dc.table[(b, w)] == c[act(b, w, k)] * c[w].inverse()

    def test_intertwiner_against_act(self):
        rng = random.Random(11)
        g, k = dumbbell(), 4
        t1 = construct_external_cocycle(g, k, {})
        c = {w: CircleValue(rng.randrange(12), 12) for w in t1.weights}
        t2 = t1 * coboundary_of(g, k, {}, c)
        for b in t1.basis:
            ref = all(
                t1.table[(b, w)] * c[act(b, w, k)] == t2.table[(b, w)] * c[w]
                for w in t1.weights
            )
            assert diagonal_intertwiner_ok(t1, t2, c, b) == ref
            assert ref
            t2.table[(b, t1.weights[0])] = t2.table[(b, t1.weights[0])] * MINUS_ONE
            assert not diagonal_intertwiner_ok(t1, t2, c, b)
