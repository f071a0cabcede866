"""Cyclotomic evaluation, Zsigmondy primitive parts and prime-field helpers.

All arithmetic here is exact arbitrary-precision integer arithmetic, and
primality is exact at every size.  Factoring is sized for the toolkit's
inputs: rho gives up past RHO_STEP_CAP steps, so a composite whose two least
prime factors pass about 2**40 is a CapacityError.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import gcd

# Most rho steps spent on one composite before factoring gives up: 2.6 times
# the 388,562 that Phi_420(2) takes to give up its 38-bit factor.
RHO_STEP_CAP = 1_000_000


class DomainError(ValueError):
    """Raised when an argument is outside an operation's stated domain."""


class CapacityError(RuntimeError):
    """Raised when a computation exceeds its configured size bound."""


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise DomainError(f"divisors: need n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def is_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2..41, exact below 3,317,044,064,679,887,385,961,981,
    the least strong pseudoprime to all of them.  Past it a pass is proven by
    Lehmer's theorem (n is prime iff each prime r | n - 1 has a base a with
    a^(n-1) = 1, a^((n-1)/r) != 1 mod n) or raises CapacityError: no unproven prime."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < 3_317_044_064_679_887_385_961_981:
        return True
    # a strong probable prime to base a has a^(n-1) = 1 mod n
    for r in factorize(n - 1):
        if all(pow(a, (n - 1) // r, n) == 1 for a in bases):
            raise CapacityError(f"no base proves the {n.bit_length()}-bit probable prime {n} prime")
    return True


# polynomials over F_p: ascending coefficient lists


def poly_trim(f: list[int]) -> list[int]:
    """Drop leading zero coefficients in place, keeping at least one."""
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """Product of a and b over F_p, untrimmed: len(a) + len(b) - 1 coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def poly_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by g over F_p, both trimmed."""
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(1, len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] * inv % p
        if c:
            q[i - dg] = c
            for j, gj in enumerate(g):
                f[i - dg + j] = (f[i - dg + j] - c * gj) % p
    return poly_trim(q), poly_trim(f)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite n by Floyd's cycle method on x^2 + c,
    c = 1, 2, ... in turn; CapacityError past RHO_STEP_CAP steps in all."""
    if n % 2 == 0:
        return 2
    steps = 0
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            steps += 1
            if steps > RHO_STEP_CAP:
                raise CapacityError(
                    f"factoring a {n.bit_length()}-bit composite needs over {RHO_STEP_CAP} rho steps"
                )
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1: Newton's method in integers, from above."""
    y = 1 << -(-n.bit_length() // k)  # 2^ceil(bits / k) exceeds the root
    x = y + 1
    while y < x:
        x, y = y, ((k - 1) * y + n // y ** (k - 1)) // k
    return x


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity}: trial division, then a
    perfect power r^j split at its integer root (r > 47, so j <= bits / 5;
    rho would take about sqrt(r) steps), then Pollard rho."""
    if n < 1:
        raise DomainError(f"factorize: need n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        j = next((j for j in range(2, m.bit_length() // 5 + 1) if _integer_root(m, j) ** j == m), 0)
        if j:
            stack += [_integer_root(m, j)] * j
        else:
            d = _pollard_rho(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def is_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p**k, or None if q is not a prime power."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    ((p, k),) = fac.items()
    return p, k


@lru_cache(maxsize=None)
def cyclotomic_poly_eval(n: int, q: int) -> int:
    """Value of the n-th cyclotomic polynomial at q.

    Computed through the divisor recurrence q**n - 1 = prod_{d|n} Phi_d(q),
    so every intermediate value is an exact integer.
    """
    if n < 1:
        raise DomainError(f"cyclotomic_poly_eval: need n >= 1, got {n}")
    if q < 2:
        raise DomainError(f"cyclotomic_poly_eval: need q >= 2, got {q}")
    value = q**n - 1
    for d in divisors(n):
        if d < n:
            value, rest = divmod(value, cyclotomic_poly_eval(d, q))
            if rest:  # explicit, not assert: python -O must not strip it
                raise ArithmeticError(f"Phi_{d}({q}) does not divide the rest of {q}**{n} - 1")
    return value


class ZsigmondyResult:
    """The primitive part of Phi_n(q) together with its prime support.

    primitive_part is the largest divisor of phi_value coprime to every
    q**k - 1 with 1 <= k < n; primitive_primes are exactly the primes
    dividing q**n - 1 but no earlier q**k - 1.
    """

    def __init__(self, *, q: int, n: int, phi_value: int, primitive_part: int,
                 primitive_primes: frozenset[int]):
        self.q = q
        self.n = n
        self.phi_value = phi_value
        self.primitive_part = primitive_part
        self.primitive_primes = primitive_primes


def _check_prime_power(q: int) -> tuple[int, int]:
    pk = is_prime_power(q)
    if pk is None:
        raise DomainError(f"q must be a prime power >= 2, got {q}")
    return pk


def zsigmondy_part(q: int, n: int) -> ZsigmondyResult:
    """Primitive part Phi*_n(q) of Phi_n(q) and its primitive primes."""
    _check_prime_power(q)
    if n < 1:
        raise DomainError(f"zsigmondy_part: need n >= 1, got {n}")
    phi = cyclotomic_poly_eval(n, q)
    part = phi
    for k in range(1, n):
        g = gcd(part, q**k - 1)
        while g > 1:
            part //= g
            g = gcd(part, q**k - 1)
    primes = frozenset(factorize(part)) if part > 1 else frozenset()
    return ZsigmondyResult(q=q, n=n, phi_value=phi, primitive_part=part, primitive_primes=primes)


def primitive_prime_divisors(q: int, n: int) -> set[int]:
    """Primes r with r | q**n - 1 and r not dividing q**k - 1 for k < n.

    Any such prime divides Phi_n(q), so only the prime factors of Phi_n(q)
    need to be tested; r is primitive exactly when the multiplicative order
    of q modulo r equals n.
    """
    _check_prime_power(q)
    if n < 1:
        raise DomainError(f"primitive_prime_divisors: need n >= 1, got {n}")
    out = set()
    for r in factorize(cyclotomic_poly_eval(n, q)):
        if pow(q, n, r) != 1:
            continue
        if all(pow(q, n // ell, r) != 1 for ell in factorize(n)):
            out.add(r)
    return out
