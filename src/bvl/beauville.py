"""Sigma sets, Beauville structures and all-pairs generating class pairs.

Sigma(x, y) is the union of the conjugacy classes of all powers of x, y and
xy; a group has an unmixed Beauville structure when two generating pairs
have sigma sets meeting only in the identity.  Since the covered classes
depend only on the class-type triple of a pair, both search and nonexistence
certification work at class-type granularity, with pair enumeration inside a
type fixing the first component to the class representative (simultaneous
conjugation makes this lossless).  An all-pairs generation scan goes further:
conjugating by z in <c> fixes c, so <c, z^-1 d z> = z^-1 <c, d> z and one test
decides the whole <c>-conjugation orbit of d (and of each power d^k in D).
The class-pair search folds further: for k coprime to o(c), <c^k, d> = <c, d>
and x -> x^k maps C onto the class C^k bijectively, so one all-pairs scan
decides (C^k, D^l) for all such k and l, the whole Galois orbit of the class
pair.
"""

from __future__ import annotations

import random
from math import gcd

from .catalog import check_fields
from .numtheory import CapacityError, DomainError
from .permgroup import (
    MAX_CLASSES,
    ClassMap,
    MembershipError,
    PermGroup,
    Permutation,
    conjugates_by,
    image_powers,
    is_transitive_on_group_domain,
    subgroup_order,
)

DEFAULT_TYPE_BUDGET = 10_000_000

STATUS_CERTIFICATE = "certificate"
STATUS_NONE_EXHAUSTED = "none-exhausted"
STATUS_NONE_BUDGET = "none-budget"


class BeauvilleCertificate:
    """Two generating pairs whose sigma sets meet only in the identity.

    FIELDS maps each field to its JSON type (catalog.check_fields).  pairs
    holds four 1-based image arrays x1, y1, x2, y2, and orders o(x1), o(y1),
    o(x1 y1), o(x2), o(y2), o(x2 y2).
    """

    FIELDS = {"group": str, "pairs": [[int]], "orders": [int], "sigma_classes": [[str]],
              "hyperbolic": [bool], "seed": int}

    def __init__(self, **fields):
        if fields.keys() != self.FIELDS.keys():
            raise TypeError(f"certificate fields are {list(self.FIELDS)}, got {list(fields)}")
        vars(self).update(fields)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.FIELDS}

    @classmethod
    def from_json_dict(cls, payload, what: str = "certificate") -> "BeauvilleCertificate":
        """Parse a certificate, refusing any field of the wrong JSON type."""
        return cls(**check_fields(payload, cls.FIELDS, what))


class GenClassCertificate:
    """Exhaustive all-pairs generation verdict for classes C (or a set) and D."""

    def __init__(self, *, c_labels: tuple[str, ...], d_label: str, pairs_tested: int,
                 counterexample: tuple[list[int], list[int]] | None = None):
        self.c_labels = c_labels
        self.d_label = d_label
        self.pairs_tested = pairs_tested  # pairs decided: tested, or covered (see all_pairs_generate)
        self.counterexample = counterexample

    @property
    def all_generate(self) -> bool:
        return self.counterexample is None


class SearchResult:
    def __init__(self, *, status: str, certificate: BeauvilleCertificate | None = None,
                 types_examined: int = 0, pair_tests: int = 0):
        self.status = status
        self.certificate = certificate
        self.types_examined = types_examined
        self.pair_tests = pair_tests


def _class_type(cmap: ClassMap, x: Permutation, y: Permutation) -> tuple[int, int, int]:
    """The classes of x, y and xy; class_of raises MembershipError outside G."""
    return cmap.class_of(x), cmap.class_of(y), cmap.class_of(x * y)


def sigma_set(G: PermGroup, x: Permutation, y: Permutation) -> int:
    """Sigma(x, y) as a class mask: bit i for each class i that the powers of
    x, y or xy meet.  Bit 0, the identity's class, is always set.
    """
    cmap = G.conjugacy_data()
    masks = cmap.power_masks
    a, b, c = _class_type(cmap, x, y)
    return masks[a] | masks[b] | masks[c]


def _generates(G: PermGroup, x: Permutation, y: Permutation) -> bool | None:
    """G = <x, y>, for x and y known to lie in G.

    An intransitive pair cannot generate a transitive G: None says that this
    check refused it, unsifted.  Any other pair goes to subgroup_order, which
    sifts x and y and stops once its chain reaches |G|: True or False.
    """
    if G.is_transitive and not is_transitive_on_group_domain(G, (x, y)):
        return None
    return subgroup_order(G, [x, y]) == G.order


def is_generating_pair(G: PermGroup, x: Permutation, y: Permutation) -> bool:
    """G = <x, y>; MembershipError if x or y lies outside G.

    subgroup_order sifts x and y through G's chain; a pair that _generates
    refuses before reaching it is sifted here.
    """
    answer = _generates(G, x, y)
    if answer is None and not (G.contains(x) and G.contains(y)):
        raise MembershipError("is_generating_pair: element is not in the group")
    return bool(answer)


def _is_hyperbolic(a: int, b: int, c: int) -> bool:
    """1/a + 1/b + 1/c < 1 for the orders of x, y and xy, in integers."""
    return a * b + b * c + c * a < a * b * c


def verify_beauville(
    G: PermGroup,
    pair1: tuple[Permutation, Permutation],
    pair2: tuple[Permutation, Permutation],
    require_hyperbolic: bool = False,
    seed: int = 0,
) -> tuple[BeauvilleCertificate | None, str | None]:
    """Check both pairs generate and their sigma sets meet only in 1.

    Returns (certificate, None) on success, (None, reason) naming the first
    failed condition otherwise.  An element outside G raises MembershipError
    from is_generating_pair.  Sigma, the orders and hyperbolicity are read
    off each pair's class type.  Every sigma set holds class 0, the identity,
    so they meet only in it exactly when their masks meet in 1.
    """
    for idx, (x, y) in enumerate((pair1, pair2), start=1):
        if not is_generating_pair(G, x, y):
            return None, f"generation-pair{idx}"
    cmap = G.conjugacy_data()
    masks = cmap.power_masks
    types = [_class_type(cmap, *pair1), _class_type(cmap, *pair2)]
    m1, m2 = (masks[a] | masks[b] | masks[c] for a, b, c in types)
    if m1 & m2 != 1:
        return None, "sigma-intersection"
    orders = [cmap.classes[i].element_order for t in types for i in t]
    hyper = [_is_hyperbolic(*orders[:3]), _is_hyperbolic(*orders[3:])]
    if require_hyperbolic and not all(hyper):
        bad = 1 if not hyper[0] else 2
        return None, f"hyperbolicity-pair{bad}"
    cert = BeauvilleCertificate(
        group=G.spec_string or G.name,
        pairs=[g.to_list() for g in (*pair1, *pair2)],
        orders=orders,
        sigma_classes=[[c.label for c in cmap.classes if m >> c.index & 1] for m in (m1, m2)],
        hyperbolic=hyper,
        seed=seed,
    )
    return cert, None


def verify_certificate(
    G: PermGroup, cert: BeauvilleCertificate, require_hyperbolic: bool = False
) -> tuple[bool, str]:
    """Re-verify a parsed certificate from scratch against the group."""
    try:
        perms = [Permutation(arr) for arr in cert.pairs]
    except (ValueError, CapacityError) as exc:  # not a bijection, or past MAX_DEGREE points
        return False, f"malformed-permutation: {exc}"
    if len(perms) != 4:
        return False, "malformed-pairs"
    if any(p.degree != G.degree for p in perms):
        return False, "degree-mismatch"
    if not all(G.contains(p) for p in perms):
        return False, "element-outside-group"
    fresh, reason = verify_beauville(
        G, (perms[0], perms[1]), (perms[2], perms[3]),
        require_hyperbolic=require_hyperbolic, seed=cert.seed,
    )
    if fresh is None:
        return False, reason
    if fresh.orders != cert.orders:
        return False, "orders-mismatch"
    if [sorted(s) for s in fresh.sigma_classes] != [sorted(s) for s in cert.sigma_classes]:
        return False, "sigma-classes-mismatch"
    if fresh.hyperbolic != cert.hyperbolic:
        return False, "hyperbolic-mismatch"
    return True, "ok"


# ---------------------------------------------------------------------------
# search


def _class_types(cmap: ClassMap) -> list[tuple[tuple[int, int, int], int]]:
    """All class-type triples with a nonzero pair count, in lexicographic order.

    A pair (x, y) has type (c1, c2, c3) when x is in C1, y in C2 and xy in C3.
    With x the representative of C1 the count is T(c1, c2, c3*) / |C1|, with
    C3* the class inverse to C3; it is nonzero exactly when T is.  Galois
    orbits of classes (ClassMap.rational) go to two sides, alternately by
    size.  Two of any three classes share a side, so by the symmetry of T,
    T(a, b, c) is ClassMap.triple_counts row {a, b} at c if a and b share a
    side, else row {a, c} at b or row {b, c} at a.  Only same-side rows of
    nontrivial classes are read, and the sides are Galois-stable, so
    triple_counts scans one pair per Galois orbit of them.
    Each type comes with its sigma set as a class mask (ClassMap.power_masks).
    Types touching the identity class are dropped: such a pair generates a
    cyclic subgroup, and a cyclic group is never the whole group here unless
    G itself is cyclic, in which case the powers of a generator meet every
    class and sigma-disjointness is impossible anyway.
    """
    classes, rational, masks = cmap.classes, cmap.rational, cmap.power_masks
    k = len(classes)
    orbits = sorted(set(rational), key=lambda r: (classes[r].size, r))
    side = [orbits.index(r) % 2 for r in rational]
    rows = [[cmap.triple_counts(a, b) if a and b and side[a] == side[b] else None
             for b in range(k)] for a in range(k)]
    inverse = [c.power_row[-1] for c in classes]
    out = []
    for i1 in range(1, k):
        for i2 in range(1, k):
            row = rows[i1][i2]
            if row is None:
                row = [0] + [rows[i1][c][i2] if side[c] == side[i1] else rows[i2][c][i1]
                             for c in range(1, k)]
            for i3 in range(1, k):
                if row[inverse[i3]]:
                    out.append(((i1, i2, i3), masks[i1] | masks[i2] | masks[i3]))
    return out


def _type_pairs(cmap: ClassMap, types, strategy: str):
    """Yield each type index a with a lazy iterator over its sigma-disjoint b >= a.

    Flattened, the pairs (a, b) come in search order.  Types are in
    lexicographic order, so nested-index order is the order of
    (types[a], types[b]): that is EXHAUSTIVE_CLASSES.  COPRIME_FIRST yields
    the pairs whose element-order products are coprime in one pass, then the
    rest in a second.  Sigma sets share the identity (bit 0) and nothing else
    exactly when their masks meet in 1.  A row is only built as far as it is
    read, so a caller can drop the rest of it (search_beauville does once
    type a has no witness).
    """
    masks = [mask for _, mask in types]
    orders = [c.element_order for c in cmap.classes]
    prods = [orders[i1] * orders[i2] * orders[i3] for (i1, i2, i3), _ in types]
    passes = (True, False) if strategy == "COPRIME_FIRST" else (None,)

    def row(a, coprime):
        ma, pa = masks[a], prods[a]
        for b in range(a, len(masks)):
            if ma & masks[b] == 1 and (coprime is None or (gcd(pa, prods[b]) == 1) is coprime):
                yield b

    for coprime in passes:
        for a in range(len(masks)):
            yield a, row(a, coprime)


class _TypeSearcher:
    """Finds (and memoizes) a generating pair of a given class type.

    x is the representative of C1 and y walks C2 in a seeded shuffle, one
    pair test per position: the class of y * x (conjugate to xy) must be C3,
    and then <x, y> = G.  Class members lie in G, so the generation test is
    _generates: an intransitive pair is refused without a sift.

    A generating pair of a transitive G on n points is transitive, so by the
    Riemann-Hurwitz bound (Scott, Ann. of Math. 1977) c(x) + c(y) + c(xy)
    <= n + 2, where c counts cycles, fixed points included.  cycles[i] is c
    of the representative of class i; a type past the bound is not walked.
    By Scott's bound on the sign character, a G with an odd element is not
    generated by two even classes; odd[i] is (n - c) mod 2 of class i.
    """

    def __init__(self, G: PermGroup, seed: int, budget: int):
        self.G = G
        self.cmap = G.conjugacy_data()
        self.seed = seed
        self.budget = budget
        self.cycles = [G.degree - sum(len(c) - 1 for c in cl.representative.cycles())
                       for cl in self.cmap.classes]
        self.odd = [(G.degree - c) % 2 for c in self.cycles]
        self.has_odd = 1 in self.odd
        self.cache: dict[tuple[int, int, int], tuple[Permutation, Permutation] | None] = {}
        self.budget_hit = False
        self.pair_tests = 0

    def witness(self, t: tuple[int, int, int]):
        """A generating pair of type t, or None.

        A type past either bound has no generating pair: it gets None and is
        charged what the walk would test, every position of C2 or budget + 1
        of them, without a walk.

        In the walk, a failed y fails with its <x>-conjugation orbit, which
        keeps the type (x x^-1 y x = x^-1 (x y) x), as <x, x^-1 y x> =
        x^-1 <x, y> x.  Later positions in it are counted, after the budget
        check, but not tested.
        """
        if t in self.cache:
            return self.cache[t]
        i1, i2, i3 = t
        cmap = self.cmap
        found = None
        tests = 0
        if (self.G.is_transitive and sum(self.cycles[i] for i in t) > self.G.degree + 2
                or self.has_odd and not (self.odd[i1] or self.odd[i2])):
            tests = min(cmap.classes[i2].size, self.budget + 1)
            self.budget_hit |= tests > self.budget
        else:
            x = cmap.classes[i1].representative
            candidates = cmap.elements_of(i2)
            conjugates = conjugates_by(x)
            failed: set[bytes] = set()
            order = list(range(len(candidates)))
            rng = random.Random(self.seed * 1_000_003 + i1 * 3721 + i2 * 61 + i3)
            rng.shuffle(order)
            for tests, pos in enumerate(order, 1):
                if tests > self.budget:
                    self.budget_hit = True
                    break
                y = candidates[pos]
                if cmap.class_of(y * x) != i3 or y.images in failed:
                    continue
                if _generates(self.G, x, y):
                    found = (x, y)
                    break
                failed.update(conjugates(y.images))
        self.pair_tests += tests
        self.cache[t] = found
        return found


def search_beauville(
    G: PermGroup,
    strategy: str = "COPRIME_FIRST",
    seed: int = 0,
    budget: int = DEFAULT_TYPE_BUDGET,
    require_hyperbolic: bool = False,
) -> SearchResult:
    """Search for an unmixed Beauville structure at class-type granularity.

    COPRIME_FIRST visits type pairs with coprime order products first;
    EXHAUSTIVE_CLASSES sweeps all type pairs in canonical order.  Both cover
    the whole type space, so a search that ends without a certificate and
    without hitting the budget certifies nonexistence.
    """
    if strategy not in ("COPRIME_FIRST", "EXHAUSTIVE_CLASSES"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if budget < 0:
        raise DomainError(f"budget must be >= 0, got {budget}")
    cmap = G.conjugacy_data()
    if G.order == 1:
        return SearchResult(status=STATUS_NONE_EXHAUSTED)
    if len(cmap.classes) > MAX_CLASSES:
        raise CapacityError(
            f"class-type search needs <= {MAX_CLASSES} classes, got {len(cmap.classes)}"
        )
    types = _class_types(cmap)
    searcher = _TypeSearcher(G, seed, budget)

    def hyperbolic(a: int) -> bool:  # read off the class orders of type a
        return _is_hyperbolic(*(cmap.classes[i].element_order for i in types[a][0]))

    for a, row in _type_pairs(cmap, types, strategy):
        for b in row:
            w1 = searcher.witness(types[a][0])
            if w1 is None:
                break  # the rest of the row needs a witness of type a too
            w2 = searcher.witness(types[b][0])
            if w2 is None:
                continue
            if require_hyperbolic and not (hyperbolic(a) and hyperbolic(b)):
                continue
            cert, reason = verify_beauville(
                G, w1, w2, require_hyperbolic=require_hyperbolic, seed=seed
            )
            if cert is None:
                raise RuntimeError(f"search produced a non-verifying pair: {reason}")
            return SearchResult(
                status=STATUS_CERTIFICATE,
                certificate=cert,
                types_examined=len(types),
                pair_tests=searcher.pair_tests,
            )

    status = STATUS_NONE_BUDGET if searcher.budget_hit else STATUS_NONE_EXHAUSTED
    return SearchResult(
        status=status, types_examined=len(types), pair_tests=searcher.pair_tests
    )


# ---------------------------------------------------------------------------
# generating class pairs


def all_pairs_generate(G: PermGroup, c_labels, d_label: str) -> GenClassCertificate:
    """Test G = <c, d> for the representative c of each class in C and every
    d in D; conjugation invariance of pair generation makes this exhaustive
    over C x D.

    For z in <c>, <c, z^-1 d z> = z^-1 <c, d> z, and for d^k in D (so k is
    coprime to o(D)), <c, d^k> = <c, d>: the <c>-conjugates of those powers
    all get d's verdict.  D is walked in ascending order; a generating d marks
    them covered, and covered elements are counted but not tested.  Only
    generating d cover, so the first failing d is tested and reported exactly
    as a plain scan would.
    """
    if isinstance(c_labels, str):
        c_labels = (c_labels,)
    c_labels = tuple(c_labels)
    cmap = G.conjugacy_data()
    d_class = cmap.by_label(d_label)
    d_elements = cmap.elements_of(d_class.index)
    tested = 0
    for c_label in c_labels:
        c_rep = cmap.by_label(c_label).representative
        conjugates = conjugates_by(c_rep)
        covered: set[bytes] = set()
        for d in d_elements:
            tested += 1
            if d.images in covered:
                continue
            if not is_generating_pair(G, c_rep, d):
                return GenClassCertificate(
                    c_labels=c_labels,
                    d_label=d_label,
                    pairs_tested=tested,
                    counterexample=(c_rep.to_list(), d.to_list()),
                )
            for i, power in zip(d_class.power_row, image_powers(d.images, d_class.element_order)):
                if i == d_class.index and power not in covered:
                    covered.update(conjugates(power))
    return GenClassCertificate(
        c_labels=c_labels,
        d_label=d_label,
        pairs_tested=tested,
        counterexample=None,
    )


def search_gen_classes(G: PermGroup) -> list[tuple[str, str]]:
    """All ordered class pairs (C, D) for which every pair in C x D generates.

    Generation of <c, d> is symmetric, so one all_pairs_generate call decides
    both orders of a class pair.  It makes about |D| / o(c) generation tests,
    so each pair is scanned with c from the class that makes that smaller.

    One call also decides the pair's whole Galois orbit.  For k coprime to
    o(c), c^k generates the same cyclic group as c, so <c^k, d> = <c, d>, and
    x -> x^k maps C onto the class C^k (power_row[k]) bijectively.  So (C, D)
    and (C^k, D^l) get the same verdict for every k coprime to o(C) and l
    coprime to o(D).  Each class is keyed by its rational class, the least
    index among its Galois conjugates (ClassMap.rational), and the verdict is
    memoised per unordered pair of keys; the first class pair met in the loop
    decides it.  The one order bound is that of the class map (CapacityError
    past permgroup.CLASS_ORDER_BOUND).
    """
    cmap = G.conjugacy_data()
    classes = [c for c in cmap.classes if c.element_order > 1]
    rational = cmap.rational
    verdicts: dict[tuple[int, int], bool] = {}
    good: list[tuple[int, int]] = []
    for i, x in enumerate(classes):
        for y in classes[i:]:
            key = tuple(sorted((rational[x.index], rational[y.index])))
            if key not in verdicts:
                # |y| / o(x) > |x| / o(y): scan with c in y, d in x
                c, d = (y, x) if y.size * y.element_order > x.size * x.element_order else (x, y)
                verdicts[key] = all_pairs_generate(G, c.label, d.label).all_generate
            if verdicts[key]:
                good.append((x.index, y.index))
                if x is not y:
                    good.append((y.index, x.index))
    return [(cmap.classes[i].label, cmap.classes[j].label) for i, j in sorted(good)]
