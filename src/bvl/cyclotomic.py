"""Exact cyclotomic integers with decidable equality.

An element of Z[zeta_n] is stored on the tensor basis built from the power
bases of the prime-power components: zeta_n**j is a basis vector iff, for
every prime power q = p**v exactly dividing n, the q-component of j is below
phi(q).  A non-basis root of unity rewrites through the single relation
1 + zeta_p + ... + zeta_p**(p-1) = 0 per prime, so reduction stays sparse and
every coefficient stays an integer.  Character values are algebraic integers,
so a character table needs no denominators: its sums are integer-weighted
(Cyclo.dot), and a caller that must divide does so once, on a rational
integer, at the end.
"""

from __future__ import annotations

import math
from math import gcd

from .numtheory import factorize


class Conductor:
    """Reduction tables for one cyclotomic ring Z[zeta_n]."""

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

    def reduce_raw(self, raw: dict[int, int]) -> dict[int, int]:
        """Canonicalize a sparse exponent->coefficient dict."""
        out: dict[int, int] = {}
        for j, c in raw.items():
            if not c:
                continue
            for jb, s in self.reduce_exponent(j).items():
                v = out.get(jb, 0) + (c if s == 1 else s * c)
                if v:
                    out[jb] = v
                else:
                    out.pop(jb, None)
        return out


class Cyclo:
    """An exact element of Z[zeta_n], on the canonical basis."""

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
    def zeta(cls, n: int, j: int = 1) -> "Cyclo":
        return cls(n, {j % n: 1})

    # -- structure ----------------------------------------------------------

    def _pair(self, other) -> "Cyclo":
        """other in this ring: an int is read in it; a Cyclo must share it."""
        if isinstance(other, int):
            return Cyclo._make(self.n, {0: other} if other else {})
        if not isinstance(other, Cyclo):
            raise TypeError(f"not a cyclotomic integer: {other!r}")
        if other.n != self.n:
            raise ValueError(f"conductors differ: {self.n} and {other.n}")
        return other

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    def rational_value(self) -> int:
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self!r}")
        return self.coeffs.get(0, 0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Cyclo":
        out = dict(self.coeffs)
        for j, c in self._pair(other).coeffs.items():
            v = out.get(j, 0) + c
            if v:
                out[j] = v
            else:
                out.pop(j, None)
        return Cyclo._make(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return Cyclo._make(self.n, {j: -c for j, c in self.coeffs.items()})

    def __sub__(self, other) -> "Cyclo":
        return self + (-self._pair(other))

    @staticmethod
    def dot(weights, xs, ys) -> "Cyclo":
        """The sum of w * x * y over zip(weights, xs, ys), reduced once.

        The weights are ints, and every x and y lies in the ring of xs[0]:
        the caller pairs its operands (the operators do, through _pair).
        """
        n = xs[0].n
        raw: dict[int, int] = {}
        for w, x, y in zip(weights, xs, ys):
            terms = y.coeffs.items()
            for j1, c1 in x.coeffs.items():
                c1 *= w
                for j2, c2 in terms:
                    j = (j1 + j2) % n
                    raw[j] = raw.get(j, 0) + c1 * c2
        return Cyclo._make(n, Conductor(n).reduce_raw(raw))

    def __mul__(self, other) -> "Cyclo":
        return Cyclo.dot((1,), (self,), (self._pair(other),))

    __rmul__ = __mul__

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
        if isinstance(other, int):
            return self.coeffs == ({0: other} if other else {})
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.coeffs == self._pair(other).coeffs

    def sort_key(self) -> tuple:
        """Deterministic total order among values sharing one conductor."""
        return tuple(sorted(self.coeffs.items()))

    def to_json_dict(self) -> dict:
        return {
            "conductor": self.n,
            "coefficients": {str(j): [c, 1] for j, c in sorted(self.coeffs.items())},
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
