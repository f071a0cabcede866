"""Exact cyclotomic numbers with decidable equality.

An element of Q(zeta_n) is stored on the tensor basis built from the power
bases of the prime-power components: zeta_n**j is a basis vector iff, for
every prime power q = p**v exactly dividing n, the q-component of j is below
phi(q).  A non-basis root of unity rewrites through the single relation
1 + zeta_p + ... + zeta_p**(p-1) = 0 per prime, so reduction stays sparse and
coefficients stay rational with no denominator growth.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

from .numtheory import factorize


def _norm_coeff(c):
    """Collapse integral Fractions to int; keep exact otherwise."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Conductor:
    """Reduction tables for one cyclotomic field Q(zeta_n)."""

    _cache: dict[int, "Conductor"] = {}

    def __new__(cls, n: int):
        if n in cls._cache:
            return cls._cache[n]
        self = super().__new__(cls)
        self.n = n
        self.prime_powers = []  # (p, q = p**v, M_p, phi(q), q // p)
        for p, v in factorize(n).items():
            q = p**v
            m = n // q
            M = m * pow(m, -1, q) % n
            self.prime_powers.append((p, q, M, q - q // p, q // p))
        self._reduce_memo: dict[int, dict[int, int]] = {}
        cls._cache[n] = self
        return self

    def is_basis_exponent(self, j: int) -> bool:
        for p, q, _M, phi_q, _step in self.prime_powers:
            m = self.n // q
            if j * pow(m, -1, q) % q >= phi_q:
                return False
        return True

    def reduce_exponent(self, j: int) -> dict[int, int]:
        """Write zeta_n**j on the basis: {basis exponent: +-1 coefficient}."""
        j %= self.n
        memo = self._reduce_memo
        if j in memo:
            return memo[j]
        bad = None
        for p, q, M, phi_q, step in self.prime_powers:
            m = self.n // q
            a = j * pow(m, -1, q) % q
            if a >= phi_q:
                bad = (p, q, M, a, step)
                break
        if bad is None:
            memo[j] = {j: 1}
            return memo[j]
        p, q, M, a, step = bad
        r = a - (p - 1) * step
        out: dict[int, int] = {}
        for k in range(p - 1):
            delta = (r + k * step) - a
            sub = self.reduce_exponent((j + delta * M) % self.n)
            for jb, c in sub.items():
                out[jb] = out.get(jb, 0) - c
                if out[jb] == 0:
                    del out[jb]
        memo[j] = out
        return out

    def reduce_raw(self, raw: dict) -> dict:
        """Canonicalize a sparse exponent->coefficient dict."""
        out: dict[int, object] = {}
        for j, c in raw.items():
            if not c:
                continue
            for jb, s in self.reduce_exponent(j).items():
                v = out.get(jb, 0) + (c if s == 1 else s * c)
                if v:
                    out[jb] = v
                else:
                    out.pop(jb, None)
        return {j: _norm_coeff(c) for j, c in out.items() if c}


class Cyclo:
    """An exact element of a cyclotomic field, on the canonical basis."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, raw: dict | None = None):
        self.n = n
        self.coeffs = Conductor(n).reduce_raw(raw or {})

    @classmethod
    def _make(cls, n: int, canonical: dict) -> "Cyclo":
        x = object.__new__(cls)
        x.n = n
        x.coeffs = canonical
        return x

    @classmethod
    def zero(cls, n: int = 1) -> "Cyclo":
        return cls._make(n, {})

    @classmethod
    def from_rational(cls, r, n: int = 1) -> "Cyclo":
        r = _norm_coeff(Fraction(r))
        return cls._make(n, {0: r} if r else {})

    @classmethod
    def zeta(cls, n: int, j: int = 1) -> "Cyclo":
        return cls(n, {j % n: 1})

    # -- structure ----------------------------------------------------------

    def _pair(self, other) -> "Cyclo":
        """other in this field: a rational is read in it; a Cyclo must share it."""
        if not isinstance(other, Cyclo):
            return Cyclo.from_rational(other, self.n)
        if other.n != self.n:
            raise ValueError(f"conductors differ: {self.n} and {other.n}")
        return other

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self!r}")
        return Fraction(self.coeffs.get(0, 0))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Cyclo":
        out = dict(self.coeffs)
        for j, c in self._pair(other).coeffs.items():
            v = out.get(j, 0) + c
            if v:
                out[j] = _norm_coeff(v)
            else:
                out.pop(j, None)
        return Cyclo._make(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo._make(self.n, {j: -c for j, c in self.coeffs.items()})

    def __sub__(self, other) -> "Cyclo":
        return self + (-self._pair(other))

    def __rsub__(self, other) -> "Cyclo":
        return (-self) + other

    def __mul__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Cyclo.zero(self.n)
            return Cyclo._make(
                self.n, {j: _norm_coeff(c * other) for j, c in self.coeffs.items()}
            )
        b = self._pair(other)
        n = self.n
        raw: dict[int, object] = {}
        for j1, c1 in self.coeffs.items():
            for j2, c2 in b.coeffs.items():
                j = (j1 + j2) % n
                raw[j] = raw.get(j, 0) + c1 * c2
        return Cyclo._make(n, Conductor(n).reduce_raw(raw))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("division only by rational scalars")

    def conj(self) -> "Cyclo":
        return self.galois(self.n - 1) if self.n > 1 else self

    def galois(self, t: int) -> "Cyclo":
        """Field automorphism zeta_n -> zeta_n**t for gcd(t, n) = 1."""
        if self.n == 1:
            return self
        if gcd(t, self.n) != 1:
            raise ValueError(f"galois exponent {t} not coprime to {self.n}")
        return Cyclo(self.n, {j * t % self.n: c for j, c in self.coeffs.items()})

    def complex_value(self) -> complex:
        tau = 2.0 * math.pi / self.n
        re = sum(float(c) * math.cos(tau * j) for j, c in self.coeffs.items())
        im = sum(float(c) * math.sin(tau * j) for j, c in self.coeffs.items())
        return complex(re, im)

    def abs_value(self) -> float:
        """|x| as a float; error stays far below 1e-9 * (1 + sum |c_j|)."""
        return abs(self.complex_value())

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == other
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.coeffs == self._pair(other).coeffs

    def sort_key(self) -> tuple:
        """Deterministic total order among values sharing one conductor."""
        return tuple(
            (j, Fraction(c).numerator, Fraction(c).denominator)
            for j, c in sorted(self.coeffs.items())
        )

    def to_json_dict(self) -> dict:
        return {
            "conductor": self.n,
            "coefficients": {
                str(j): [Fraction(c).numerator, Fraction(c).denominator]
                for j, c in sorted(self.coeffs.items())
            },
        }

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in sorted(self.coeffs.items()):
            if j == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"z{self.n}^{j}")
            else:
                parts.append(f"{c}*z{self.n}^{j}")
        return "+".join(parts).replace("+-", "-")
