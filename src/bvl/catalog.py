"""Constructors for the group families at desk scale.

Alternating and symmetric groups in natural action, PSL_n(q) on the points of
PG(n-1, q) for n = 2, 3 (one builder for both ranks), and JSON group files.
Each family is one entry of FAMILIES.  Matrix groups never escape this
module: every builder returns a permutation group.
"""

from __future__ import annotations

import json
import os
import stat
from itertools import permutations, product
from math import factorial, gcd, prod
from pathlib import Path

from .numtheory import CapacityError, DomainError, is_prime_power, poly_divmod, poly_mul
from .permgroup import PermGroup, Permutation, check_degree

class GroupSpec:
    """Parsed group specification: a family of FAMILIES, or FILE, and its parameter."""

    def __init__(self, *, family: str, param: int | str):
        self.family = family
        self.param = param  # the family's int parameter, or a FILE's path

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupSpec) and vars(self) == vars(other)


class LieMeta:
    """Lie-theoretic metadata of the ambient simple algebraic group."""

    def __init__(self, *, dim_G: int, rank: int, weyl_order: int, defining_prime: int, q: int):
        self.dim_G = dim_G
        self.rank = rank
        self.weyl_order = weyl_order
        self.defining_prime = defining_prime
        self.q = q

    def __eq__(self, other) -> bool:
        return isinstance(other, LieMeta) and vars(self) == vars(other)


def parse_spec(text: str) -> GroupSpec:
    """Parse the CLI grammar: a family prefix in either case and a decimal
    parameter (A5, s6, L2:7, l3:3), or file:PATH."""
    s = text.strip()
    if s[:5].lower() == "file:":
        return GroupSpec(family="FILE", param=s[5:])
    for family, fam in FAMILIES.items():
        head, rest = s[:len(fam.prefix)], s[len(fam.prefix):]
        if head in (fam.prefix, fam.prefix.lower()) and rest.isdigit():
            try:
                return GroupSpec(family=family, param=int(rest))
            except ValueError:  # a digit int() refuses, or past its digit limit
                break
    raise DomainError(f"cannot parse group spec {text!r}")


class GF:
    """Arithmetic tables for GF(p^f); elements are codes 0..q-1.

    The code of sum c_i * x**i is sum c_i * p**i.  The modulus is the
    lexicographically least monic irreducible of degree f over F_p.  add
    comes from digit vectors, mul and inv from the exp and log tables of the
    least primitive element g: a * b = g^(log a + log b).  Polynomial
    products are made only for the powers of the candidates for g.
    """

    def __init__(self, q: int):
        pk = is_prime_power(q)
        if pk is None:
            raise DomainError(f"field size must be a prime power, got {q}")
        self.q = q
        self.p, self.f = pk
        self.modulus = _find_irreducible(self.p, self.f)
        p, weights = self.p, self.basis()
        digits = [_digits(a, p, self.f) for a in range(q)]
        self.add = [[sum((x + y) % p * w for x, y, w in zip(da, db, weights)) for db in digits]
                    for da in digits]
        exp = self._primitive_powers()
        log = [0] * q
        for i, e in enumerate(exp):
            log[e] = i
        logs, exp2 = log[1:], exp + exp
        self.mul = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        self.inv = [0] + [exp[-la % (q - 1)] for la in logs]

    def _primitive_powers(self) -> list[int]:
        """g^0, g^1, ..., g^(q-2) for the least g of multiplicative order q - 1."""
        for g in range(1, self.q):
            powers, e = [1], g
            while e != 1:
                powers.append(e)
                e = self._mul(e, g)
            if len(powers) == self.q - 1:
                return powers
        raise ArithmeticError(f"no primitive element in GF({self.q})")

    def _mul(self, a: int, b: int) -> int:
        p, f = self.p, self.f
        product = poly_mul(_digits(a, p, f), _digits(b, p, f), p)
        return sum(c * w for c, w in zip(poly_divmod(product, self.modulus, p)[1], self.basis()))

    def basis(self) -> list[int]:
        """Codes of the F_p-basis 1, x, x**2, ..."""
        return [self.p**i for i in range(self.f)]


def _digits(a: int, p: int, f: int) -> list[int]:
    """The f base-p digits of a, least significant first."""
    out = []
    for _ in range(f):
        a, r = divmod(a, p)
        out.append(r)
    return out


def _find_irreducible(p: int, f: int) -> list[int]:
    """Least monic irreducible of degree f over F_p, as coefficient list."""
    if f == 1:
        return [0, 1]
    lower = [_digits(code, p, d) + [1] for d in range(1, f // 2 + 1) for code in range(p**d)]
    for code in range(p**f):
        cand = _digits(code, p, f) + [1]
        if cand[0] == 0:
            continue
        if all(poly_divmod(cand, g, p)[1] != [0] for g in lower):
            return cand
    raise ArithmeticError(f"no irreducible of degree {f} over F_{p}")


def _psl_group(n: int, q: int) -> PermGroup:
    """PSL_n(q) acting on the (q^n - 1)/(q - 1) points of PG(n-1, q).

    A point is its vector scaled so that its last nonzero coordinate is 1.
    Points are numbered from 1 by the position of that coordinate, last
    position first, then lexicographically: [a : 1] is a + 1 on the line and
    (a, b, 1) is a*q + b + 1 in the plane.  The generators are the elementary
    transvections E_rs(t), t over the F_p-basis of F_q.  They generate SL_n(q),
    whose action on points factors through the scalars, so the group built
    here is PSL_n(q) itself for every q.
    """
    F = GF(q)
    points = [
        head + (1,) + (0,) * (n - 1 - k)
        for k in reversed(range(n))  # position of the last nonzero coordinate
        for head in product(range(q), repeat=k)
    ]
    index = {v: i for i, v in enumerate(points, start=1)}

    def point_index(w: list[int]) -> int:
        c = F.inv[next(x for x in reversed(w) if x)]
        return index[tuple(F.mul[c][x] for x in w)]

    def transvection(r: int, s: int, t: int) -> Permutation:
        """v -> v + t * v[s] * e_r, the action of the matrix 1 + t * E_rs."""
        images = []
        for v in points:
            w = list(v)
            w[r] = F.add[v[r]][F.mul[t][v[s]]]
            images.append(point_index(w))
        return Permutation(images)

    gens = [transvection(r, s, t) for t in F.basis() for r, s in permutations(range(n), 2)]
    return PermGroup(gens, degree=len(points), name=f"L{n}:{q}")


def _alternating_group(n: int) -> PermGroup:
    if n == 3:
        gens = [Permutation.from_cycles(3, [(1, 2, 3)])]
    else:
        long_cycle = tuple(range(1, n + 1)) if n % 2 == 1 else tuple(range(2, n + 1))
        gens = [
            Permutation.from_cycles(n, [(1, 2, 3)]),
            Permutation.from_cycles(n, [long_cycle]),
        ]
    return PermGroup(gens, degree=n, name=f"A{n}")


def _symmetric_group(n: int) -> PermGroup:
    gens = [
        Permutation.from_cycles(n, [(1, 2)]),
        Permutation.from_cycles(n, [tuple(range(1, n + 1))]),
    ]
    return PermGroup(gens, degree=n, name=f"S{n}")


def data_dir() -> Path:
    """Bundled data directory, overridable through BVL_DATA_DIR."""
    env = os.environ.get("BVL_DATA_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


# far above any usable input: a degree-255 group file with 1,000 generators
# is about 1 MB
JSON_BYTE_CAP = 16 * 2**20


def read_json(path: str | Path, what: str):
    """The JSON value in the file at path; a file that cannot give one is a
    DomainError naming what (missing, a bad path, not a regular file,
    unreadable, not UTF-8 JSON, or nested past the parser's depth).

    The path is stat-ed before it is opened, so a FIFO is refused without
    blocking in open, and a file over JSON_BYTE_CAP bytes is a CapacityError
    before any byte is read.
    """
    try:
        info = os.stat(path)
    except FileNotFoundError:
        raise DomainError(f"{what}: not found") from None
    except OSError as exc:
        raise DomainError(f"{what}: cannot read ({exc.strerror})") from None
    except ValueError:  # an embedded NUL byte
        raise DomainError(f"{what}: invalid path") from None
    if not stat.S_ISREG(info.st_mode):
        raise DomainError(f"{what}: not a regular file")
    if info.st_size > JSON_BYTE_CAP:
        raise CapacityError(f"{what}: {info.st_size} bytes, over the cap of {JSON_BYTE_CAP}")
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # a file that cannot be read
        raise DomainError(f"{what}: cannot read ({exc.strerror})") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DomainError(f"{what}: invalid JSON ({exc})") from None
    except RecursionError:
        raise DomainError(f"{what}: invalid JSON (nested too deeply)") from None


def _is_json(value, kind) -> bool:
    """value has JSON type kind: a Python type, or [kind] for a list of kind.

    bool is an int subclass, so true and false are refused where int belongs.
    """
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is_json(x, kind[0]) for x in value)
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def check_fields(payload, fields: dict, what: str) -> dict:
    """The named fields of payload, a JSON object in which each has its JSON type.

    fields maps each name to its kind, as _is_json reads it.  An input that is
    not such an object is a DomainError naming what.
    """
    if not isinstance(payload, dict):
        raise DomainError(f"{what}: expected a JSON object")
    for key, kind in fields.items():
        if key not in payload:
            raise DomainError(f"{what}: missing field {key!r}")
        if not _is_json(payload[key], kind):
            raise DomainError(f"{what}: field {key!r} has the wrong JSON type")
    return {key: payload[key] for key in fields}


GROUP_FIELDS = {"name": object, "degree": int, "generators": [[int]]}


def load_group_file(path: str | Path) -> PermGroup:
    """Build a group from a JSON file {"name", "degree", "generators"}.

    Generators are 1-based image arrays.  Relative paths that do not exist
    as given are looked up in the bundled data directory.  A stated degree
    past MAX_DEGREE is a CapacityError before any generator is checked.
    """
    p = Path(path)
    if not p.exists():
        candidate = data_dir() / p
        if candidate.exists():
            p = candidate
    what = f"group file {path}"
    fields = check_fields(read_json(p, what), GROUP_FIELDS, what)
    degree = fields["degree"]
    if degree < 1:
        raise DomainError(f"{what}: bad degree {degree!r}")
    check_degree(degree)
    points = list(range(1, degree + 1))
    for idx, arr in enumerate(fields["generators"]):
        if sorted(arr) != points:
            raise DomainError(f"{what}: generator {idx} is not a bijection of 1..{degree}")
    G = PermGroup(fields["generators"], degree=degree, name=str(fields["name"]))
    G.spec_string = f"file:{path}"
    return G


def _psl_order(n: int, q: int) -> int:
    return q ** (n * (n - 1) // 2) * prod(q**i - 1 for i in range(2, n + 1)) // gcd(n, q - 1)


class Family:
    """A catalog family: specs are prefix + parameter, the parameter one of values.

    A parameter outside values is refused with "{must_be}, got {param}".
    build(param) makes the group and order(param) gives its order; linear_dim
    is the n of PSL_n(q), whose groups carry Lie metadata, and 0 otherwise.
    """

    def __init__(self, prefix: str, values, must_be: str, build, order, linear_dim: int = 0):
        self.prefix = prefix
        self.values = values
        self.must_be = must_be
        self.build = build
        self.order = order
        self.linear_dim = linear_dim


FAMILIES = {
    "ALT": Family("A", range(3, 13), "alternating degree must be in 3..12",
                  _alternating_group, lambda n: factorial(n) // 2),
    "SYM": Family("S", range(3, 13), "symmetric degree must be in 3..12",
                  _symmetric_group, factorial),
    "PSL2": Family("L2:", (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49),
                   "L2 parameter must be a prime power in 4..49",
                   lambda q: _psl_group(2, q), lambda q: _psl_order(2, q), linear_dim=2),
    "PSL3": Family("L3:", (2, 3, 5), "L3 parameter must be one of 2, 3, 5",
                   lambda q: _psl_group(3, q), lambda q: _psl_order(3, q), linear_dim=3),
}


def catalog_specs() -> list[str]:
    """Every spec of FAMILIES, family by family, parameters ascending."""
    return [fam.prefix + str(x) for fam in FAMILIES.values() for x in fam.values]


def build_group(spec: GroupSpec | str) -> PermGroup:
    """Construct the permutation group described by a GroupSpec (or its text form).

    A family's group is checked against its order formula, and a mismatch is
    an internal fault; it carries the family's Lie metadata as G.meta.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if spec.family == "FILE":
        return load_group_file(spec.param)
    fam, x = FAMILIES[spec.family], spec.param
    if x not in fam.values:
        raise DomainError(f"{fam.must_be}, got {x}")
    G, order = fam.build(x), fam.order(x)
    if G.order != order:
        raise ArithmeticError(f"{G.name} built with order {G.order}, formula {order}")
    if fam.linear_dim:
        n = fam.linear_dim
        G.meta = LieMeta(dim_G=n * n - 1, rank=n - 1, weyl_order=factorial(n),
                         defining_prime=is_prime_power(x)[0], q=x)
    return G


def classical_order(spec: GroupSpec) -> int:
    """Textbook order formula for the spec's family."""
    if spec.family == "FILE":
        raise DomainError("no order formula for FILE specs")
    return FAMILIES[spec.family].order(spec.param)
