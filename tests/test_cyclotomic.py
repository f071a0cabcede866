import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvl.cyclotomic import Conductor, Cyclo


def test_basis_exponents_have_canonical_digits():
    for n in (12, 30, 40, 105):
        cond = Conductor(n)
        count = sum(1 for j in range(n) if cond.reduce_exponent(j) == {j: 1})
        phi = sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)
        assert count == phi


def test_values_live_on_basis():
    for n in (8, 15, 24, 60):
        cond = Conductor(n)
        for j in range(n):
            z = Cyclo.zeta(n, j)
            assert all(cond.reduce_exponent(e) == {e: 1} for e in z.coeffs)
            # reducing must preserve the complex value
            direct = complex(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
            assert abs(z.complex_value() - direct) < 1e-9


def test_golden_ratio_identity():
    a = Cyclo.zeta(5) + Cyclo.zeta(5, 4)  # 2 cos(2 pi / 5)
    assert (a * a + a - 1).is_zero()


def test_root_of_unity_sums_vanish():
    for n in (2, 3, 4, 6, 8, 9, 12):
        total = Cyclo.zero(n)
        for j in range(n):
            total = total + Cyclo.zeta(n, j)
        assert total.is_zero()


def test_rational_detection_and_value():
    x = Cyclo(12, {0: 3})
    assert x.is_rational() and x.rational_value() == 3
    assert type(x.rational_value()) is int
    assert (x * 2).rational_value() == 6
    assert (2 * x - 7).rational_value() == -1
    z = Cyclo.zeta(7)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.rational_value()
    # the ring is Z[zeta_n]: no operand outside it is read in
    for other in (Fraction(1, 2), 0.5):
        for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: b * a):
            with pytest.raises(TypeError):
                op(x, other)


def test_conjugation_and_abs():
    z = Cyclo.zeta(11, 3)
    assert (z * z.conj()).rational_value() == 1
    v = Cyclo(8, {1: 1, 7: 1})  # 2 cos(pi/4) = sqrt(2)
    assert abs(v.abs_value() - math.sqrt(2)) < 1e-12
    assert v.conj() == v


def test_equality_across_conductors():
    # a rational is read in the other operand's field; two fields never mix
    assert Cyclo.zeta(6) * Cyclo.zeta(6) * Cyclo.zeta(6) == -1
    assert Cyclo.zeta(4) * Cyclo.zeta(4) == -1
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a == b):
        with pytest.raises(ValueError, match="conductors differ"):
            op(Cyclo.zeta(12, 2), Cyclo.zeta(6, 1))


def test_galois_automorphisms():
    z = Cyclo(7, {1: 1, 2: 1, 4: 1})  # quadratic Gauss period
    g = z.galois(3)  # swaps the period with its conjugate
    assert g == Cyclo(7, {3: 1, 5: 1, 6: 1})
    assert z + g == -1
    with pytest.raises(ValueError):
        z.galois(7)


small_values = st.builds(
    lambda pairs: Cyclo(12, dict(pairs)),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=11), st.integers(min_value=-4, max_value=4)),
        max_size=4,
    ),
)


@settings(max_examples=150, deadline=None)
@given(small_values, small_values, small_values)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    assert (a - a).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-50, max_value=50), small_values, small_values),
                min_size=1, max_size=4))
def test_dot_is_the_weighted_sum_of_products(terms):
    weights, xs, ys = zip(*terms)
    expected = Cyclo.zero(12)
    for w, x, y in terms:
        expected = expected + x * y * w
    assert Cyclo.dot(weights, xs, ys) == expected


@settings(max_examples=100, deadline=None)
@given(small_values, small_values)
def test_complex_embedding_is_homomorphic(a, b):
    za, zb = a.complex_value(), b.complex_value()
    assert abs((a * b).complex_value() - za * zb) < 1e-7 * (1 + abs(za)) * (1 + abs(zb))
    assert abs((a + b).complex_value() - (za + zb)) < 1e-9 * (2 + abs(za) + abs(zb))


@settings(max_examples=100, deadline=None)
@given(small_values)
def test_conj_matches_complex_conjugation(a):
    assert abs(a.conj().complex_value() - a.complex_value().conjugate()) < 1e-9 * (
        1 + abs(a.complex_value())
    )
