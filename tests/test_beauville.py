import itertools
import operator
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from bvl import beauville
from bvl.beauville import (
    STATUS_CERTIFICATE,
    STATUS_NONE_BUDGET,
    STATUS_NONE_EXHAUSTED,
    BeauvilleCertificate,
    _class_types,
    _type_pairs,
    all_pairs_generate,
    is_generating_pair,
    search_beauville,
    search_gen_classes,
    sigma_set,
    verify_beauville,
    verify_certificate,
)
from bvl.catalog import build_group, catalog_specs
from bvl.numtheory import DomainError, is_prime_power
from bvl.chartab import character_table
from bvl.permgroup import MembershipError, PermGroup, Permutation, _Chain, subgroup_order
from bvl.structconst import structure_constant_formula


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def mask_labels(cd, mask):
    return tuple(c.label for c in cd.classes if mask >> c.index & 1)


def test_sigma_set_examples():
    G = build_group("A5")
    cd = G.conjugacy_data()
    e = G.identity()
    assert mask_labels(cd, sigma_set(G, e, e)) == ("1a",)
    x = cyc(5, (1, 2, 3, 4, 5))
    assert mask_labels(cd, sigma_set(G, x, x * x)) == ("1a", "5a", "5b")
    y = next(
        g for g in cd.elements_of(cd.by_label("2a").index) if (x * g).order() == 3
    )
    assert mask_labels(cd, sigma_set(G, x, y)) == ("1a", "2a", "3a", "5a", "5b")


def test_sigma_set_contains_pair_classes_and_identity():
    G = build_group("L2:7")
    cd = G.conjugacy_data()
    rng = random.Random(3)
    for _ in range(25):
        x, y = G.random_element(rng), G.random_element(rng)
        s = sigma_set(G, x, y)
        for g in (G.identity(), x, y, x * y):
            assert s >> cd.class_of(g) & 1


def test_sigma_set_conjugation_invariance():
    G = build_group("A6")
    rng = random.Random(17)
    x, y = cyc(6, (1, 2, 3, 4, 5)), cyc(6, (1, 2), (3, 4, 5, 6))
    base = sigma_set(G, x, y)
    for _ in range(100):
        g = G.random_element(rng)
        gi = g.inverse()
        assert sigma_set(G, gi * x * g, gi * y * g) == base


def _power_classes(cd, x, y):
    """Reference sigma: the classes of every power of x, y and xy, by Permutation products."""
    return {cd.class_of(p) for g in (x, y, x * y)
            for p in itertools.accumulate([g] * g.order(), operator.mul)}


def _orders_reference(x, y):
    """o(x), o(y), o(xy) from cycle lengths, and 1/a + 1/b + 1/c < 1 in Fractions."""
    orders = [x.order(), y.order(), (x * y).order()]
    return orders, sum(Fraction(1, o) for o in orders) < 1


@pytest.mark.parametrize("spec,certified", [
    ("A5", False), ("L2:7", True), ("file:m11.json", True), ("S5", True),
])
def test_sigma_orders_and_hyperbolicity_match_the_permutations(spec, certified):
    # sigma_set and verify_beauville read sigma, orders and hyperbolicity off
    # the pair's class type; the references work on the permutations
    G = build_group(spec)
    cd = G.conjugacy_data()
    identity, masks = {cd.class_of(G.identity())}, cd.power_masks
    rng = random.Random(5)
    pairs = []
    for _ in range(60):
        x, y = G.random_element(rng), G.random_element(rng)
        mask = sigma_set(G, x, y)
        assert mask == masks[cd.class_of(x)] | masks[cd.class_of(y)] | masks[cd.class_of(x * y)]
        assert set(mask_labels(cd, mask)) == {cd.classes[i].label for i in _power_classes(cd, x, y)}
        if is_generating_pair(G, x, y) and len(pairs) < 16:
            pairs.append((x, y))
    for seed in range(3):  # random pairs are rarely sigma-disjoint: add searched ones
        result = search_beauville(G, seed=seed)
        if result.certificate is not None:
            x1, y1, x2, y2 = map(Permutation, result.certificate.pairs)
            pairs += [(x1, y1), (x2, y2)]
    certificates = 0
    for p1, p2 in itertools.combinations(pairs, 2):
        cert, reason = verify_beauville(G, p1, p2)
        disjoint = _power_classes(cd, *p1) & _power_classes(cd, *p2) == identity
        assert (cert is not None, reason) == (disjoint, None if disjoint else "sigma-intersection")
        if cert is not None:
            certificates += 1
            (o1, h1), (o2, h2) = _orders_reference(*p1), _orders_reference(*p2)
            assert (cert.orders, cert.hyperbolic) == (o1 + o2, [h1, h2])
    assert (certificates > 0) == certified, certificates


def test_sigma_set_membership_error():
    G = build_group("A5")
    with pytest.raises(MembershipError):
        sigma_set(G, cyc(5, (1, 2)), G.identity())


def test_is_generating_pair():
    G = build_group("A5")
    assert is_generating_pair(G, cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5)))
    assert not is_generating_pair(G, G.identity(), G.identity())
    assert not is_generating_pair(G, cyc(5, (1, 2, 3)), cyc(5, (1, 3, 2)))


def test_verify_refuses_identical_pairs():
    G = build_group("L2:7")
    r = search_beauville(G)
    assert r.status == STATUS_CERTIFICATE
    x1, y1 = Permutation(r.certificate.pairs[0]), Permutation(r.certificate.pairs[1])
    cert, reason = verify_beauville(G, (x1, y1), (x1, y1))
    assert cert is None and reason == "sigma-intersection"


def test_verify_refuses_non_generating_pair():
    G = build_group("A5")
    x = cyc(5, (1, 2, 3))
    cert, reason = verify_beauville(G, (x, x), (x, x))
    assert cert is None and reason == "generation-pair1"


def test_a5_admits_no_structure_on_any_generating_pairs():
    # two concrete generating pairs of A5 never verify (Theorem: A5 is excluded)
    G = build_group("A5")
    p1 = (cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5)))
    p2 = (cyc(5, (1, 2, 3, 4, 5)), cyc(5, (1, 2), (3, 4)))
    assert is_generating_pair(G, *p1) and is_generating_pair(G, *p2)
    cert, reason = verify_beauville(G, p1, p2)
    assert cert is None and reason == "sigma-intersection"


def test_search_a5_exhausts():
    r = search_beauville(build_group("A5"), strategy="EXHAUSTIVE_CLASSES")
    assert r.status == STATUS_NONE_EXHAUSTED
    r = search_beauville(build_group("A5"), strategy="COPRIME_FIRST")
    assert r.status == STATUS_NONE_EXHAUSTED


def test_search_finds_and_roundtrips_certificates():
    for spec in ("L2:7", "A6"):
        G = build_group(spec)
        r = search_beauville(G, seed=0)
        assert r.status == STATUS_CERTIFICATE
        cert = r.certificate
        # re-verify from scratch against an independently built group
        fresh = build_group(spec)
        ok, reason = verify_certificate(fresh, cert)
        assert ok, reason
        # serialization round-trip
        again = BeauvilleCertificate.from_json_dict(cert.to_json_dict())
        ok, reason = verify_certificate(fresh, again)
        assert ok, reason


def test_search_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        search_beauville(build_group("A5"), strategy="RANDOM")


def test_search_budget_exhaustion():
    r = search_beauville(build_group("L2:7"), budget=1)
    assert r.status == STATUS_NONE_BUDGET
    with pytest.raises(DomainError, match="budget must be >= 0"):
        search_beauville(build_group("L2:7"), budget=-1)


def test_search_with_hyperbolicity_required():
    r = search_beauville(build_group("L2:7"), require_hyperbolic=True)
    assert r.status == STATUS_CERTIFICATE
    assert r.certificate.hyperbolic == [True, True]


def test_hyperbolicity_in_integers_matches_fractions():
    # the boundary triples (2, 3, 6), (2, 4, 4) and (3, 3, 3) are Euclidean
    for a, b, c in itertools.product(range(1, 13), repeat=3):
        expected = Fraction(1, a) + Fraction(1, b) + Fraction(1, c) < 1
        assert beauville._is_hyperbolic(a, b, c) == expected, (a, b, c)


def test_verify_rejects_tampered_hyperbolic_field():
    G = build_group("L2:7")
    cert = search_beauville(G).certificate
    cert.hyperbolic = [False, True]
    ok, reason = verify_certificate(G, cert)
    assert not ok and reason == "hyperbolic-mismatch"


def test_verify_rejects_wrong_degree_certificate():
    G = build_group("L2:7")
    cert = search_beauville(G).certificate
    cert.pairs = [list(range(1, 6)) for _ in range(4)]  # degree-5 identities
    ok, reason = verify_certificate(G, cert)
    assert not ok and reason == "degree-mismatch"


def test_verify_refuses_element_outside_group():
    G = build_group("L2:7")
    cert = search_beauville(G).certificate
    x = cert.pairs[0]
    x[:2] = x[1], x[0]  # an odd permutation, outside L2:7 < A8
    ok, reason = verify_certificate(G, cert)
    assert not ok and reason == "element-outside-group"
    # direct API callers still get the exception
    x, y, x2, y2 = (Permutation(arr) for arr in cert.pairs)
    with pytest.raises(MembershipError):
        verify_beauville(G, (x, y), (x2, y2))
    with pytest.raises(MembershipError):
        is_generating_pair(G, x, y)


def _reference_witness(G, cmap, t, seed, budget):
    # the plain witness loop: x * y per position, the public generation test
    # and no Riemann-Hurwitz bound
    i1, i2, i3 = t
    x = cmap.classes[i1].representative
    candidates = cmap.elements_of(i2)
    order = list(range(len(candidates)))
    random.Random(seed * 1_000_003 + i1 * 3721 + i2 * 61 + i3).shuffle(order)
    tests = 0
    for pos in order:
        tests += 1
        if tests > budget:
            return None, tests, True
        y = candidates[pos]
        if cmap.class_of(x * y) == i3 and is_generating_pair(G, x, y):
            return (x, y), tests, False
    return None, tests, False


def _witness_group(spec):
    if spec == "S3xS3":  # intransitive on 6 points: the bound does not apply
        return PermGroup([cyc(6, (1, 2, 3)), cyc(6, (1, 2)), cyc(6, (4, 5, 6)), cyc(6, (4, 5))])
    return build_group(spec)


@pytest.mark.parametrize("spec,seed,budget", [
    ("L2:25", 0, 10_000_000), ("L2:25", 7, 10_000_000), ("L2:25", 0, 5), ("file:m11.json", 0, 5),
    ("A5", 0, 10_000_000), ("L2:7", 0, 10_000_000), ("L3:3", 0, 10_000_000),
    ("S5", 0, 10_000_000), ("S3xS3", 0, 10_000_000),
], ids=["0-10000000", "7-10000000", "0-5", "M11-0-5", "A5", "L2:7", "L3:3", "S5", "S3xS3"])
def test_type_witness_matches_reference_loop(spec, seed, budget):
    # skipping a y whose <x>-conjugation orbit already failed, and refusing a
    # type past the Riemann-Hurwitz bound unwalked, keep every witness and
    # every pair_tests count of the loop that tests each position
    G = _witness_group(spec)
    classdata = G.conjugacy_data()
    searcher = beauville._TypeSearcher(G, seed, budget)
    for t, _ in _class_types(classdata):
        before = searcher.pair_tests
        found = searcher.witness(t)
        expected, tests, hit = _reference_witness(G, classdata, t, seed, budget)
        assert (found, searcher.pair_tests - before) == (expected, tests), t
        if hit:
            assert searcher.budget_hit, t
    assert searcher.budget_hit == (budget == 5)


def test_search_beauville_m11_generation_test_gate(monkeypatch):
    # a bound on work, not time: a failed test skips the rest of its
    # <x>-conjugation orbit, still counted in pair_tests, and a type past the
    # Riemann-Hurwitz bound is not walked (2,350 generation tests when every
    # position was tested, 1,044 with the skip, 303 with the bound)
    G = build_group("file:m11.json")
    calls = []
    generates = beauville._generates

    def counted(G, x, y):
        calls.append(y)
        return generates(G, x, y)

    monkeypatch.setattr(beauville, "_generates", counted)
    assert search_beauville(G, seed=0).pair_tests == 18_312
    assert len(calls) <= 320, len(calls)


@pytest.fixture
def walk_counts(monkeypatch):
    """Lists that record each seeded shuffle and each generation test."""
    shuffles, calls = [], []
    shuffle, generates = random.Random.shuffle, beauville._generates

    def counted_shuffle(self, x):
        shuffles.append(len(x))
        return shuffle(self, x)

    def counted_generates(G, x, y):
        calls.append(y)
        return generates(G, x, y)

    monkeypatch.setattr(random.Random, "shuffle", counted_shuffle)
    monkeypatch.setattr(beauville, "_generates", counted_generates)
    return shuffles, calls


def test_riemann_hurwitz_bound_refuses_types_without_a_walk(walk_counts):
    # a type with c(C1) + c(C2) + c(C3) > n + 2 makes no shuffle and no
    # generation test; of the 28 types with no witness that the search on M11
    # meets at seed 0, 8 pass the bound and are walked: 10 shuffles in all
    shuffles, calls = walk_counts
    G = build_group("file:m11.json")
    searcher = beauville._TypeSearcher(G, 0, 10_000_000)
    refused = [t for t, _ in _class_types(G.conjugacy_data())
               if sum(searcher.cycles[i] for i in t) > G.degree + 2]
    assert refused
    for t in refused:
        assert searcher.witness(t) is None, t
    assert (shuffles, calls) == ([], [])
    result = search_beauville(G, seed=0)
    assert (len(shuffles), len(calls), result.pair_tests) == (10, 303, 18_312)


def _sign(g):
    return sum(len(c) - 1 for c in g.cycles()) % 2


def test_sign_bound_refuses_even_types_without_a_walk(walk_counts):
    # in S7 two even classes generate at most A7: such a type makes no
    # shuffle and no generation test, and is charged as the walk would be
    # (406 shuffles and 3,378 generation tests when these types were walked)
    shuffles, calls = walk_counts
    G = build_group("S7")
    searcher = beauville._TypeSearcher(G, 0, 10_000_000)
    even = [t for t, _ in _class_types(G.conjugacy_data())
            if not searcher.odd[t[0]] and not searcher.odd[t[1]]]
    assert searcher.has_odd and even
    for t in even:
        assert searcher.witness(t) is None, t
    assert (shuffles, calls) == ([], [])
    result = search_beauville(G, seed=0)
    assert (len(shuffles), len(calls), result.pair_tests) == (286, 539, 194_070)


@pytest.mark.parametrize("spec", ["S5", "S6"])
def test_sign_bound_refuses_only_types_without_a_generating_pair(spec):
    # brute force over C2: no y in an even C2 generates G with an even x
    G = build_group(spec)
    cmap = G.conjugacy_data()
    searcher = beauville._TypeSearcher(G, 0, 10_000_000)
    assert searcher.odd == [_sign(c.representative) for c in cmap.classes] and searcher.has_odd
    refused = {t[:2] for t, _ in _class_types(cmap)
               if not (searcher.odd[t[0]] or searcher.odd[t[1]])}
    assert refused
    for i1, i2 in refused:
        x = cmap.classes[i1].representative
        assert not any(is_generating_pair(G, x, y) for y in cmap.elements_of(i2)), (i1, i2)


def test_sign_bound_never_fires_on_the_simple_catalog_groups():
    # a nonabelian simple permutation group lies in A_n
    specs = [s for s in catalog_specs() if s[0] != "S" and s not in ("A3", "A4")]
    specs += ["file:m11.json", "file:m12.json"]
    for spec in specs:
        assert not any(_sign(g) for g in build_group(spec).generators), spec


def test_search_seed_determinism():
    G1 = build_group("L2:11")
    G2 = build_group("L2:11")
    r1 = search_beauville(G1, seed=42)
    r2 = search_beauville(G2, seed=42)
    assert r1.certificate.to_json_dict() == r2.certificate.to_json_dict()


def test_coprime_orders_suffice():
    # generating pairs with coprime order triples always verify
    G = build_group("L2:13")
    r = search_beauville(G, strategy="COPRIME_FIRST")
    cert = r.certificate
    o1, o2 = cert.orders[:3], cert.orders[3:]
    prod1 = o1[0] * o1[1] * o1[2]
    prod2 = o2[0] * o2[1] * o2[2]
    assert gcd(prod1, prod2) == 1
    pairs = [Permutation(arr) for arr in cert.pairs]
    cert2, reason = verify_beauville(G, (pairs[0], pairs[1]), (pairs[2], pairs[3]))
    assert cert2 is not None, reason


def _sorted_pairs_reference(classdata, types, strategy):
    """Build every sigma-disjoint type pair, then sort: the search order before streaming."""
    sigma = [
        frozenset().union(*(classdata.classes[i].power_row for i in t)) for t, _ in types
    ]

    def order_product(t):
        prod = 1
        for i in t:
            prod *= classdata.classes[i].element_order
        return prod

    candidates = [
        (a, b)
        for a in range(len(types))
        for b in range(a, len(types))
        if sigma[a] & sigma[b] == {0}
    ]
    if strategy == "COPRIME_FIRST":
        def sort_key(pair):
            a, b = pair
            coprime = gcd(order_product(types[a][0]), order_product(types[b][0])) == 1
            return (0 if coprime else 1, types[a][0], types[b][0])
    else:
        def sort_key(pair):
            a, b = pair
            return (types[a][0], types[b][0])
    return sorted(candidates, key=sort_key)


@pytest.mark.parametrize("strategy", ["COPRIME_FIRST", "EXHAUSTIVE_CLASSES"])
# In A5, L2:7 and L2:11 every sigma-disjoint pair is coprime, so the two
# strategies agree there; A6 (3a and 3b) has non-coprime disjoint pairs too.
@pytest.mark.parametrize("spec", ["A5", "L2:7", "L2:11", "A6"])
def test_type_pair_stream_matches_sorted_reference(spec, strategy):
    G = build_group(spec)
    cd = G.conjugacy_data()
    types = _class_types(cd)
    streamed = [(a, b) for a, row in _type_pairs(cd, types, strategy) for b in row]
    assert streamed == _sorted_pairs_reference(cd, types, strategy)


@pytest.mark.parametrize("spec", ["A5", "L2:7", "L2:8", "file:m11.json", "L3:3"])
def test_class_types_match_structure_constant_formula(spec):
    # the types are the triples with n > 0, and n, read off the
    # ClassMap.triple_counts rows that _class_types reads, is the formula's
    G = build_group(spec)
    cd = G.conjugacy_data()
    T = character_table(G)
    labels = [c.label for c in cd.classes]
    expected = {}
    for i1 in range(1, len(labels)):
        for i2 in range(1, len(labels)):
            for i3 in range(1, len(labels)):
                inverse3 = cd.classes[i3].inverse_class
                n = structure_constant_formula(T, labels[i1], labels[i2], inverse3)
                if n:
                    expected[(i1, i2, i3)] = n
    types = _class_types(cd)
    assert [t for t, _ in types] == sorted(expected)
    counts = {}
    for (i1, i2, i3), _ in types:
        t = cd.triple_counts(i1, i2)[cd.classes[i3].power_row[-1]]
        n, rest = divmod(t, cd.classes[i1].size)
        assert rest == 0, (i1, i2, i3)
        counts[(i1, i2, i3)] = n
    assert counts == expected


def test_search_l2_49_within_30_seconds():
    start = time.perf_counter()
    G = build_group("L2:49")
    r = search_beauville(G, seed=3)
    assert r.status == STATUS_CERTIFICATE
    ok, reason = verify_certificate(G, r.certificate)
    assert ok, reason
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize(
    "spec,labels",
    # every class pair of the small groups; in M11, 90 of the 990 (5a, 8a) pairs generate
    [("A5", None), ("L2:7", None), ("A6", None), ("file:m11.json", ("5a", "8a"))],
    ids=["A5", "L2:7", "A6", "M11-5a-8a"],
)
def test_subgroup_order_early_stop_matches_full_chain(spec, labels):
    # subgroup_order stops once the orbit product reaches |G|; PermGroup builds
    # the complete chain with no target, so the two must agree on every pair
    G = build_group(spec)
    cd = G.conjugacy_data()
    if labels is None:
        class_pairs = [(c, d) for c in cd.classes for d in cd.classes]
    else:
        class_pairs = [(cd.by_label(labels[0]), cd.by_label(labels[1]))]
    generating = 0
    for c, d_class in class_pairs:
        for d in cd.elements_of(d_class.index):
            order = subgroup_order(G, [c.representative, d])
            assert order == PermGroup([c.representative, d]).order, (c.label, d)
            generating += order == G.order
    assert 0 < generating < sum(d.size for _, d in class_pairs)


def test_all_pairs_generate_examples():
    A5 = build_group("A5")
    g = all_pairs_generate(A5, "5a", "3a")
    assert g.all_generate and g.pairs_tested == 20
    g = all_pairs_generate(A5, "5a", "5b")
    assert not g.all_generate and g.counterexample is not None
    c, d = (Permutation(arr) for arr in g.counterexample)
    assert subgroup_order(A5, [c, d]) < A5.order


def test_all_pairs_generate_matches_full_double_loop():
    # soundness of the fixed-representative convention on a small group
    G = build_group("A5")
    cmap = G.conjugacy_data()
    for c_lbl, d_lbl in (("5a", "3a"), ("5a", "5b"), ("3a", "3a")):
        fixed = all_pairs_generate(G, c_lbl, d_lbl).all_generate
        full = all(
            is_generating_pair(G, c, d)
            for c in cmap.elements_of(cmap.by_label(c_lbl).index)
            for d in cmap.elements_of(cmap.by_label(d_lbl).index)
        )
        assert fixed == full, (c_lbl, d_lbl)


def _plain_all_pairs(G, c_labels, d_label):
    """(counterexample, pairs_tested) of a scan that tests every pair."""
    cd = G.conjugacy_data()
    tested = 0
    for c_label in c_labels:
        c = cd.by_label(c_label).representative
        for d in cd.elements_of(cd.by_label(d_label).index):
            tested += 1
            if subgroup_order(G, [c, d]) != G.order:
                return (c.to_list(), d.to_list()), tested
    return None, tested


@pytest.mark.parametrize("spec,c_labels,d_label", [
    ("file:m11.json", ("2a",), "11a"),
    ("file:m11.json", ("5a",), "8a"),
    ("file:m11.json", ("8a",), "11a"),
    ("file:m11.json", ("11a",), "8a"),
    ("A6", ("5a", "5b"), "4a"),
    ("L2:11", ("6a",), "5a"),
    # D stable under its powers d -> d^k: counterexamples at 132 and 91, and
    # all 432 pairs of (4a, 13a) generate
    ("L3:3", ("13d",), "13a"),
    ("file:m11.json", ("6a",), "8a"),
    ("L3:3", ("4a",), "13a"),
])
def test_all_pairs_generate_orbit_skipping_matches_plain_scan(spec, c_labels, d_label):
    # one test per <c>-conjugation orbit of D and of its powers in D: same
    # verdict, counterexample and count
    G = build_group(spec)
    cert = all_pairs_generate(G, c_labels, d_label)
    assert (cert.counterexample, cert.pairs_tested) == _plain_all_pairs(G, c_labels, d_label)


@pytest.mark.parametrize("c_label,calls,pairs_tested", [
    ("8a", 18, 720), ("4a", 36, 720), ("2a", 7, 11),
])
def test_all_pairs_generate_tests_one_pair_per_orbit(monkeypatch, c_label, calls, pairs_tested):
    # no nontrivial power of c commutes with an element of order 11, so each
    # <c>-orbit of 11a has o(c) elements; 11a is fixed by the five squares
    # k mod 11 (d^k lies in 11a), so a generating test covers 5 orbits:
    # 720 / 40 = 18 and 720 / 20 = 36 tests
    seen = []

    def counting(G, x, y):
        seen.append(y)
        return is_generating_pair(G, x, y)

    monkeypatch.setattr(beauville, "is_generating_pair", counting)
    cert = all_pairs_generate(build_group("file:m11.json"), c_label, "11a")
    assert (len(seen), cert.pairs_tested) == (calls, pairs_tested)


def test_is_generating_pair_refuses_outsiders_at_the_transitivity_short_circuit():
    # <(1 2), (3 4)> is intransitive, so the answer comes without a chain
    G = build_group("A5")
    with pytest.raises(MembershipError):
        is_generating_pair(G, cyc(5, (1, 2)), cyc(5, (3, 4)))
    with pytest.raises(ValueError, match="degree mismatch"):
        is_generating_pair(G, cyc(6, (1, 2, 3)), cyc(6, (4, 5, 6)))
    with pytest.raises(ValueError, match="degree mismatch"):
        is_generating_pair(G, cyc(5, (1, 2, 3, 4, 5)), cyc(6, (1, 2, 3, 4, 5, 6)))


def test_is_generating_pair_sifts_a_transitive_proper_pair_once(monkeypatch):
    # x (order 5) and y (order 11) generate L2(11), transitive on M11's 11 points:
    # subgroup_order sifts them, and nothing sifts them again
    G = build_group("file:m11.json")
    x = Permutation([1, 9, 5, 2, 8, 3, 10, 11, 7, 4, 6])
    y = Permutation([10, 7, 1, 2, 6, 9, 11, 4, 8, 5, 3])
    assert subgroup_order(G, [x, y]) == 660
    calls = []
    contains = PermGroup.contains

    def counted(self, g):
        calls.append(g)
        return contains(self, g)

    monkeypatch.setattr(PermGroup, "contains", counted)
    assert not is_generating_pair(G, x, y)
    assert calls == [x, y]


def test_all_pairs_generate_multiple_c_classes():
    A6 = build_group("A6")
    g = all_pairs_generate(A6, ("5a", "5b"), "4a")
    assert g.all_generate and g.pairs_tested == 180


def test_search_gen_classes_a5():
    pairs = search_gen_classes(build_group("A5"))
    assert ("5a", "3a") in pairs and ("3a", "5a") in pairs
    assert ("5a", "5b") not in pairs
    assert all(lbl != "1a" for pair in pairs for lbl in pair)


def test_search_gen_classes_l2_11():
    pairs = search_gen_classes(build_group("L2:11"))
    assert ("6a", "5a") in pairs and ("6a", "5b") in pairs


def test_search_gen_classes_m11_within_4_seconds():
    start = time.perf_counter()
    pairs = search_gen_classes(build_group("file:m11.json"))
    assert pairs == [
        ("4a", "11a"), ("4a", "11b"), ("8a", "11a"), ("8a", "11b"), ("8b", "11a"),
        ("8b", "11b"), ("11a", "4a"), ("11a", "8a"), ("11a", "8b"), ("11b", "4a"),
        ("11b", "8a"), ("11b", "8b"),
    ]
    assert time.perf_counter() - start < 4


def test_search_gen_classes_scans_each_pair_from_the_cheaper_side(monkeypatch):
    # a class pair costs about |D| / o(c) generation tests, fewer where D is
    # stable under powers; on M11 scanning every pair with c in the earlier
    # class makes 249, and the cheaper side once per Galois orbit of class
    # pairs 117 (855 and 249 when a test covered only the <c>-orbit of d)
    G = build_group("file:m11.json")
    tests = []

    def counting(G, x, y):
        tests.append(y)
        return is_generating_pair(G, x, y)

    monkeypatch.setattr(beauville, "is_generating_pair", counting)
    labels = [c.label for c in G.conjugacy_data().classes if c.element_order > 1]
    earlier_first = set()
    for i, c in enumerate(labels):
        for d in labels[i:]:
            if all_pairs_generate(G, c, d).all_generate:
                earlier_first |= {(c, d), (d, c)}
    unoriented = len(tests)
    tests.clear()
    pairs = search_gen_classes(G)
    assert (unoriented, len(tests)) == (249, 117)
    assert len(pairs) == len(earlier_first) and set(pairs) == earlier_first


def test_search_gen_classes_m11_work_gate(monkeypatch):
    # a bound on work, not time, so it holds on any host: permutation products
    # and inverses of the M11 search once the class data exists (56,981 with
    # Schreier vectors worked top level first; the recursive chain with eager
    # transversals made 137,521)
    G = build_group("file:m11.json")
    G.conjugacy_data()
    calls = Counter()
    for name in ("__mul__", "inverse"):
        def counted(*args, _method=getattr(Permutation, name), _name=name):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(Permutation, name, counted)
    search_gen_classes(G)
    assert sum(calls.values()) <= 70_000, calls


def test_search_gen_classes_m11_sift_gate(monkeypatch):
    # a bound on work, not time: sifts through any stabilizer chain in the
    # M11 search once the class data exists (8,622 deciding every class pair,
    # 3,146 deciding one pair per Galois orbit, 1,545 once a generating test
    # also covers the powers d^k in D)
    G = build_group("file:m11.json")
    G.conjugacy_data()
    calls = []
    sift = _Chain._sift

    def counted(self, g, start):
        calls.append(start)
        return sift(self, g, start)

    monkeypatch.setattr(_Chain, "_sift", counted)
    search_gen_classes(G)
    assert len(calls) <= 1_700, len(calls)


def unfolded_gen_classes(G):
    """search_gen_classes without the fold: every unordered nontrivial class pair."""
    classes = [c for c in G.conjugacy_data().classes if c.element_order > 1]
    good = set()
    for i, x in enumerate(classes):
        for y in classes[i:]:
            if all_pairs_generate(G, x.label, y.label).all_generate:
                good |= {(x.label, y.label), (y.label, x.label)}
    return good


# A7 has classes of equal order that are not Galois conjugate (3a, 3b)
# with different verdicts, so keying by element order alone fails there
@pytest.mark.parametrize("spec", ["A5", "L2:11", "A6", "L2:25", "A7"])
def test_search_gen_classes_fold_matches_unfolded_reference(spec):
    G = build_group(spec)
    pairs = search_gen_classes(G)
    assert len(pairs) == len(set(pairs)) and set(pairs) == unfolded_gen_classes(G)


def test_search_gen_classes_m11_decides_each_galois_orbit_once(monkeypatch):
    G = build_group("file:m11.json")
    calls = []

    def counting(G, c_label, d_label):
        calls.append((c_label, d_label))
        return all_pairs_generate(G, c_label, d_label)

    monkeypatch.setattr(beauville, "all_pairs_generate", counting)
    pairs = search_gen_classes(G)
    assert len(calls) == 28  # of 45 unordered nontrivial class pairs
    # 8a, 8b and 11a, 11b are Galois conjugate; 5a is rational
    for c, d, verdict in [("5a", "8a", False), ("5a", "8b", False),
                          ("11a", "8a", True), ("11b", "8b", True)]:
        assert all_pairs_generate(G, c, d).all_generate is verdict
        assert ((c, d) in pairs) is verdict and ((d, c) in pairs) is verdict


def test_search_gen_classes_trivial_group():
    trivial = PermGroup([], degree=3, name="trivial")
    assert search_gen_classes(trivial) == []
