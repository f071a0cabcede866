"""Structure constants n(C1,C2,C3) and the empirical theorem checks.

n(C1,C2,C3) counts, for a fixed x in C1, the pairs (y, z) in C2 x C3 with
xyz = 1.  Every verdict reads n = T(C1, C2, C3) / |C1|, T the triple count
of ClassMap.triple_counts: the nonvanishing scan for products of regular
semisimple classes, and the point-count probe for triple varieties, whose
point count is T.  The character formula

    n = (|C2||C3| / |G|) * sum over irreducible chi of
        chi(C1) chi(C2) chi(C3) / chi(1)

is the independent route that checks the counts (`bvl struct --method
both`).  It is summed in cyclotomic integers, with the integer weights
|G| / chi(1), and divided once, by |G|^2, at the end.  The character bound
reads the table.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .chartab import CharacterTable, TableError
from .cyclotomic import Cyclo
from .numtheory import DomainError
from .permgroup import PermGroup, check_class_order

BOUND_TOLERANCE = 1e-6


class BoundReport:
    """Max |chi(s)| per regular semisimple class against the Weyl bound."""

    def __init__(self, *, per_class_max: dict[str, float], bound: int, passed: bool):
        self.per_class_max = per_class_max
        self.bound = bound
        self.passed = passed


class PointCountReport:
    """Exact F_q-point count of a triple variety next to its leading term."""

    def __init__(self, *, labels: tuple[str, str, str], n_value: int,
                 class_size: int, exact_count: int, predicted: int, ratio: Fraction):
        self.labels = labels
        self.n_value = n_value
        self.class_size = class_size
        self.exact_count = exact_count
        self.predicted = predicted
        self.ratio = ratio


class GowScanReport:
    def __init__(self, *, regular_classes: list[str], semisimple_classes: list[str],
                 triples_checked: int, violations: list[tuple[str, str, str]]):
        self.regular_classes = regular_classes
        self.semisimple_classes = semisimple_classes
        self.triples_checked = triples_checked
        self.violations = violations

    @property
    def all_positive(self) -> bool:
        return not self.violations


def structure_constant_formula(T: CharacterTable, c1: str, c2: str, c3: str) -> int:
    """n(C1,C2,C3) = S |C2| |C3| / |G|^2, S the cyclotomic integer
    sum over chi of (|G| / chi(1)) chi(C1) chi(C2) chi(C3).  An S off Z, or a
    quotient that is inexact or negative, is an internal fault, never rounded."""
    k1, k2, k3 = (T.cmap.by_label(c) for c in (c1, c2, c3))
    total = Cyclo.dot([T.group_order // d for d in T.degrees],
                      [row[k1.index] * row[k2.index] for row in T.rows],
                      [row[k3.index] for row in T.rows])
    if not total.is_rational():
        raise TableError(f"non-rational structure-constant sum for {(c1, c2, c3)}")
    n, rest = divmod(total.rational_value() * k2.size * k3.size, T.group_order ** 2)
    if rest or n < 0:
        raise TableError(f"structure constant {(c1, c2, c3)} is not a nonnegative integer: "
                         f"{n} + {rest}/{T.group_order ** 2}")
    return n


def structure_constant_brute(G: PermGroup, c1: str, c2: str, c3: str) -> int:
    """n(C1,C2,C3) = T(C1, C2, C3) / |C1|, counted by ClassMap.triple_counts.

    A T that |C1| does not divide is an internal fault, never floored away.
    """
    cmap = G.conjugacy_data()
    k1, k2, k3 = (cmap.by_label(c) for c in (c1, c2, c3))
    t = cmap.triple_counts(k1.index, k2.index)[k3.index]
    if t % k1.size:
        raise TableError(f"T{(c1, c2, c3)} = {t} is not a multiple of |C1| = {k1.size}")
    return t // k1.size


# ---------------------------------------------------------------------------
# semisimple-class bookkeeping


def semisimple_classes(G: PermGroup) -> list[str]:
    """Nontrivial classes of order coprime to the defining prime."""
    p = require_meta(G).defining_prime
    return [c.label for c in G.conjugacy_data().classes
            if c.element_order > 1 and gcd(c.element_order, p) == 1]


def regular_semisimple_classes(G: PermGroup) -> list[str]:
    """Semisimple classes whose centralizer order is prime to p.

    In PSL2 this keeps every nontrivial p'-class; in PSL3 it drops exactly
    the classes centralized by a GL2-type subgroup, leaving the torus
    classes the point-count and nonvanishing statements quantify over.
    """
    cmap = G.conjugacy_data()
    return [c for c in semisimple_classes(G)
            if gcd(G.order // cmap.by_label(c).size, G.meta.defining_prime) == 1]


def require_meta(G: PermGroup):
    """G.meta, the Lie metadata of G, checked before any class or table work.

    A group past the class bound is a capacity error whether or not it has
    metadata, as its class enumeration would raise; any other group without
    metadata is a usage error.
    """
    check_class_order(G)
    if G.meta is None:
        raise DomainError("operation needs a Lie-type catalog group (no metadata)")
    return G.meta


def gow_scan(G: PermGroup) -> GowScanReport:
    """Nonvanishing of n(C1,C2,C3) over regular semisimple C1, C2 and
    nontrivial semisimple C3."""
    regular = regular_semisimple_classes(G)
    semisimple = semisimple_classes(G)
    violations = [(c1, c2, c3) for c1 in regular for c2 in regular for c3 in semisimple
                  if structure_constant_brute(G, c1, c2, c3) == 0]
    return GowScanReport(
        regular_classes=regular,
        semisimple_classes=semisimple,
        triples_checked=len(regular) ** 2 * len(semisimple),
        violations=violations,
    )


def char_bound_check(G: PermGroup, T: CharacterTable) -> BoundReport:
    """Max |chi(s)| over irreducibles per regular semisimple class,
    compared against the Weyl-group order."""
    meta = require_meta(G)
    per_class: dict[str, float] = {}
    for label in regular_semisimple_classes(G):
        idx = T.cmap.by_label(label).index
        per_class[label] = max(row[idx].abs_value() for row in T.rows)
    passed = all(v <= meta.weyl_order + BOUND_TOLERANCE for v in per_class.values())
    return BoundReport(per_class_max=per_class, bound=meta.weyl_order, passed=passed)


def point_count_probe(G: PermGroup, c1: str, c2: str, c3: str) -> PointCountReport:
    """Exact count T(C1,C2,C3) = n(C1,C2,C3) * |C1| next to the leading term q^(2 dim - 3r).

    The count equals the number of F_q-points of the triple variety
    {(x,y,z) in C1 x C2 x C3 : xyz = 1}; no pass/fail judgment is made since
    the comparison is asymptotic.
    """
    meta = require_meta(G)
    if meta.rank < 2:
        raise DomainError(f"point-count probe needs rank >= 2, got rank {meta.rank}")
    regular = set(regular_semisimple_classes(G))
    for c in (c1, c2, c3):
        if c not in regular:
            raise DomainError(f"class {c} is not regular semisimple in {G.name}")
    n = structure_constant_brute(G, c1, c2, c3)
    size1 = G.conjugacy_data().by_label(c1).size
    predicted = meta.q ** (2 * meta.dim_G - 3 * meta.rank)
    exact = n * size1
    return PointCountReport(
        labels=(c1, c2, c3),
        n_value=n,
        class_size=size1,
        exact_count=exact,
        predicted=predicted,
        ratio=Fraction(exact, predicted),
    )
