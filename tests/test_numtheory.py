from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvl import numtheory
from bvl.cli import run
from bvl.numtheory import (
    CapacityError,
    DomainError,
    cyclotomic_poly_eval,
    divisors,
    factorize,
    is_prime,
    is_prime_power,
    primitive_prime_divisors,
    zsigmondy_part,
)

GRID_Q = (2, 3, 4, 5, 7, 8, 9)


def test_cyclotomic_examples():
    assert cyclotomic_poly_eval(1, 5) == 4
    # divisor recurrence: 2^6 - 1 = 63 = Phi1*Phi2*Phi3*Phi6 = 1*3*7*Phi6
    assert cyclotomic_poly_eval(6, 2) == 3
    # 2^12 - 1 = 4095 = 1*3*7*5*3*Phi12
    assert cyclotomic_poly_eval(12, 2) == 13


def test_cyclotomic_division_fault_is_internal(monkeypatch, capsys):
    # a lower factor that does not divide is an explicit ArithmeticError
    # (exit 4), not an assert that python -O strips
    evaluate = numtheory.cyclotomic_poly_eval.__wrapped__  # past the cache
    monkeypatch.setattr(numtheory, "cyclotomic_poly_eval",
                        lambda n, q: evaluate(n, q) if n == 6 else 5)
    with pytest.raises(ArithmeticError, match="does not divide"):
        evaluate(6, 2)
    code = run(["zsigmondy", "--q", "2", "--n", "6"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == "error: internal: ArithmeticError: Phi_1(2) does not divide the rest of 2**6 - 1\n"


def test_cyclotomic_rejects_bad_domain():
    with pytest.raises(DomainError):
        cyclotomic_poly_eval(0, 3)
    with pytest.raises(DomainError):
        cyclotomic_poly_eval(4, 1)
    with pytest.raises(DomainError):
        cyclotomic_poly_eval(-2, 5)


def test_divisor_product_identity_full_grid():
    for q in GRID_Q:
        for n in range(1, 25):
            prod = 1
            for d in divisors(n):
                prod *= cyclotomic_poly_eval(d, q)
            assert prod == q**n - 1, (q, n)


def test_zsigmondy_examples():
    r = zsigmondy_part(2, 6)
    assert (r.phi_value, r.primitive_part, set(r.primitive_primes)) == (3, 1, set())
    r = zsigmondy_part(2, 4)
    assert (r.primitive_part, set(r.primitive_primes)) == (5, {5})
    r = zsigmondy_part(2, 1)
    assert (r.primitive_part, set(r.primitive_primes)) == (1, set())


def test_primitive_prime_examples():
    assert primitive_prime_divisors(2, 6) == set()
    assert primitive_prime_divisors(2, 12) == {13}
    assert primitive_prime_divisors(3, 2) == set()


def test_zsigmondy_invariants_over_grid():
    for q in GRID_Q:
        for n in range(1, 25):
            r = zsigmondy_part(q, n)
            assert r.phi_value % r.primitive_part == 0
            assert (q**n - 1) % r.phi_value == 0
            for k in range(1, n):
                assert gcd(r.primitive_part, q**k - 1) == 1
            assert r.primitive_primes == frozenset(primitive_prime_divisors(q, n))
            assert (r.primitive_part == 1) == (not r.primitive_primes)
            for p in r.primitive_primes:
                assert r.primitive_part % p == 0


def test_zsigmondy_theorem_oracle():
    # primitive primes exist for n > 2 except the classical exception (2, 6)
    for q in GRID_Q:
        for n in range(3, 25):
            if (q, n) == (2, 6):
                continue
            assert primitive_prime_divisors(q, n), (q, n)


def test_zsigmondy_exception_classification():
    # empty primitive part happens exactly at (2,6), n = 1 with q = 2,
    # and n = 2 with q + 1 a power of two
    for q in GRID_Q:
        for n in range(1, 25):
            empty = zsigmondy_part(q, n).primitive_part == 1
            exceptional = (
                (q, n) == (2, 6)
                or (n == 1 and q == 2)
                or (n == 2 and (q + 1) & q == 0)
            )
            assert empty == exceptional, (q, n)


def test_zsigmondy_rejects_non_prime_power():
    with pytest.raises(DomainError):
        zsigmondy_part(6, 3)
    with pytest.raises(DomainError):
        zsigmondy_part(1, 3)
    with pytest.raises(DomainError):
        primitive_prime_divisors(12, 2)


def test_prime_power_detection():
    assert is_prime_power(49) == (7, 2)
    assert is_prime_power(32) == (2, 5)
    assert is_prime_power(6) is None
    assert is_prime_power(1) is None


def test_factoring_past_the_rho_step_cap_is_a_capacity_error(monkeypatch):
    # two distinct primes near 2^61: rho needs about 2^30 steps to split them
    monkeypatch.setattr(numtheory, "RHO_STEP_CAP", 1000)
    with pytest.raises(CapacityError, match="122-bit composite"):
        factorize((2**61 - 1) * (2**61 - 31))


def test_rho_cap_counts_work_past_rho_step_bits(monkeypatch):
    # two Mersenne primes: a step on their 1,128-bit product costs
    # (1128 / 512)**2 steps on a 512-bit composite, so the cap allows 206
    monkeypatch.setattr(numtheory, "RHO_STEP_CAP", 1000)
    assert numtheory.RHO_STEP_BITS == 512
    with pytest.raises(CapacityError, match="1128-bit composite needs over 206 rho steps"):
        factorize((2**521 - 1) * (2**607 - 1))


def test_powers_past_the_bit_cap_are_refused_before_they_are_computed():
    assert numtheory.POWER_BIT_CAP == 4096
    # 2**4095 has 4,096 bits, 2**4096 one more
    assert (2**4095 - 1) % cyclotomic_poly_eval(4095, 2) == 0
    for q, n in ((2, 4096), (13, 1108), (2, 10**9), (3**40, 10**18), (2**5000 + 1, 1)):
        with pytest.raises(CapacityError, match="more than 4096 bits"):
            cyclotomic_poly_eval(n, q)
        with pytest.raises(CapacityError, match="more than 4096 bits"):
            zsigmondy_part(q, n)


def test_strong_pseudoprime_to_the_bases_up_to_37_is_split():
    # passes Miller-Rabin on the bases 2..37; base 41 is its witness
    n = 318_665_857_834_031_151_167_461
    assert not is_prime(n)
    assert factorize(n) == {399_165_290_221: 1, 798_330_580_441: 1}


def test_primes_past_the_miller_rabin_bound_are_proven_or_refused():
    # the least strong pseudoprime to the bases 2..41: never an unproven prime
    n = 1_287_836_182_261 * 2_575_672_364_521
    assert n == 3_317_044_064_679_887_385_961_981
    for decide in (is_prime, factorize):
        with pytest.raises(CapacityError, match="82-bit probable prime"):
            decide(n)
    # Mersenne primes past the bound, and the 109-bit primitive prime of
    # Phi_400(2), are proven through the factors of n - 1
    for p in (2**89 - 1, 2**107 - 1, 2**127 - 1, 432_363_203_127_002_885_506_543_172_618_401):
        assert is_prime(p) and factorize(p) == {p: 1}
    assert not is_prime((2**89 - 1) * (2**107 - 1))


def test_perfect_powers_split_without_rho(monkeypatch):
    # an integer root answers a prime square that rho could not split
    monkeypatch.setattr(numtheory, "RHO_STEP_CAP", 1000)
    assert is_prime_power((2**61 - 1) ** 2) == (2**61 - 1, 2)
    assert factorize((2**61 - 1) ** 6 * 3) == {3: 1, 2**61 - 1: 6}
    assert factorize((53 * 59) ** 4) == {53: 4, 59: 4}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10**9))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=2, max_value=12))
def test_cyclotomic_value_divides_power(n, q):
    assert (q**n - 1) % cyclotomic_poly_eval(n, q) == 0
