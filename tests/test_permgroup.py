import itertools
import json
import math
import operator
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bvl.permgroup as pg
from bvl.beauville import _class_types
from bvl.catalog import build_group, catalog_specs, load_group_file
from bvl.chartab import character_table
from bvl.permgroup import (
    MAX_DEGREE,
    CapacityError,
    MembershipError,
    PermGroup,
    Permutation,
    conjugacy_classes,
    image_powers,
    is_transitive_on_group_domain,
    subgroup_order,
)
from bvl.numtheory import is_prime_power


def cyc(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def closure(generators, degree):
    """Image bytes of every element of <generators>, by breadth-first closure.

    Plain bytes.translate products, no stabilizer chain: the reference that
    chain orders and membership are checked against.
    """
    identity = bytes(range(degree + 1))
    pads = [g.images + bytes(range(degree + 1, 256)) for g in generators]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for v in frontier:
            for pad in pads:
                w = v.translate(pad)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def file_group(tmp_path, name, degree, generators):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "degree": degree, "generators": generators}))
    return build_group(f"file:{path}")


def test_permutation_basics():
    p = cyc(5, (1, 2, 3))
    q = cyc(5, (3, 4, 5))
    assert p.images[1] == 2
    assert (p * q).images[2] == 4  # 2 -> 3 under p, 3 -> 4 under q
    assert p.inverse() * p == Permutation.identity(5)
    assert p.order() == 3
    assert (p * q).order() == 5
    assert cyc(6, (1, 2), (3, 4, 5)).order() == 6
    e = Permutation.identity(5)
    assert [Permutation._raw(x) for x in image_powers(p.images, 4)] == [e, p, p * p, e]
    assert p * p == p.inverse()


# plain-list reference: 1-based image lists, products act left to right


def _ref_mul(a, b):
    return [b[x - 1] for x in a]


def _ref_inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a, 1):
        out[x - 1] = i
    return out


def _ref_cycles(a):
    seen = set()
    out = []
    for start in range(1, len(a) + 1):
        if start in seen or a[start - 1] == start:
            continue
        cyc = []
        j = start
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = a[j - 1]
        out.append(tuple(cyc))
    return out


same_degree_perms = st.integers(1, MAX_DEGREE).flatmap(
    lambda n: st.lists(st.permutations(range(1, n + 1)), min_size=2, max_size=6)
)


@settings(max_examples=150, deadline=None)
@given(same_degree_perms, st.integers(-5, 5))
def test_permutation_kernel_matches_list_reference(perms, k):
    a, b = perms[0], perms[1]
    p, q = Permutation(a), Permutation(b)
    assert (p * q).to_list() == _ref_mul(a, b)
    assert p.inverse().to_list() == _ref_inverse(a)
    power = list(range(1, len(a) + 1))
    for _ in range(abs(k)):
        power = _ref_mul(power, a if k > 0 else _ref_inverse(a))
    step = p if k >= 0 else p.inverse()
    assert list(image_powers(step.images, abs(k) + 1))[-1] == bytes([0, *power])
    assert (q.inverse() * p * q).to_list() == _ref_mul(_ref_mul(_ref_inverse(b), a), b)
    cycles = _ref_cycles(a)
    assert p.cycles() == cycles
    assert p.order() == math.lcm(*map(len, cycles))
    # class labels and representatives rely on bytes sorting like int tuples
    elems = [Permutation(x) for x in perms]
    by_bytes = sorted(elems, key=lambda e: e.images)
    by_tuple = sorted(elems, key=lambda e: tuple(e.images))
    assert [e.images for e in by_bytes] == [e.images for e in by_tuple]


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])


def test_bsgs_examples():
    A5 = PermGroup([cyc(5, (1, 2, 3, 4, 5)), cyc(5, (3, 4, 5))])
    assert A5.order == 60
    trivial = PermGroup([], degree=5)
    assert trivial.order == 1
    assert trivial.base == []
    M11 = load_group_file("m11.json")
    assert M11.order == 7920
    cd = M11.conjugacy_data()
    assert sum(c.size for c in cd.classes) == 7920


def test_bsgs_order_invariant():
    G = build_group("A5")
    prod = 1
    for size in G.basic_orbit_sizes:
        prod *= size
    assert prod == G.order


def test_bsgs_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        PermGroup([cyc(5, (1, 2)), cyc(6, (1, 2))])


def test_membership_examples():
    A5 = build_group("A5")
    assert A5.contains(cyc(5, (1, 2, 3)))
    assert not A5.contains(cyc(5, (1, 2)))
    with pytest.raises(ValueError):
        A5.contains(cyc(6, (1, 2, 3)))


def test_membership_random_words_and_odd_permutations():
    rng = random.Random(12345)
    for spec in ("A6", "A7"):
        G = build_group(spec)
        n = G.degree
        for _ in range(1000):
            w = G.identity()
            for _ in range(rng.randint(1, 8)):
                w = w * rng.choice(G.generators)
            assert G.contains(w)
        for _ in range(100):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            p = Permutation(images)
            if p == G.identity():
                continue
            parity = sum(len(c) - 1 for c in p.cycles()) % 2
            if parity == 0:  # make it odd
                p = p * cyc(n, (1, 2))
            if p == G.identity():
                continue
            assert not G.contains(p)


def test_strong_generators_pass_membership():
    G = build_group("L2:11")
    for g in G.strong_generators:
        assert G.contains(g)
    for g in G.generators:
        assert G.contains(g)


def test_random_element_is_member_and_seeded():
    G = load_group_file("m12.json")
    r1 = [G.random_element(random.Random(7)) for _ in range(20)]
    r2 = [G.random_element(random.Random(7)) for _ in range(20)]
    assert r1 == r2
    for g in r1:
        assert G.contains(g)


def test_conjugacy_classes_a5():
    cd = build_group("A5").conjugacy_data()
    assert [(c.label, c.size) for c in cd.classes] == [
        ("1a", 1), ("2a", 15), ("3a", 20), ("5a", 12), ("5b", 12)
    ]


def naive_classes(G):
    """The conjugacy classes of G as sets of image bytes, conjugating by every element."""
    elements = [Permutation._raw(t) for t in closure(G.generators, G.degree)]
    classes = set()
    seen = set()
    for e in elements:
        if e.images not in seen:
            orbit = frozenset((h.inverse() * e * h).images for h in elements)
            seen |= orbit
            classes.add(orbit)
    return classes


def powers_of(g, count):
    """g^0, g^1, ..., g^(count - 1) by products: a reference apart from image_powers."""
    return list(itertools.accumulate([g] * (count - 1), operator.mul,
                                     initial=Permutation.identity(g.degree)))


def count_draws(monkeypatch):
    """Patch _chain_elements to append every element it yields to the returned list."""
    drawn = []
    walk = pg._chain_elements

    def counted(G):
        for images in walk(G):
            drawn.append(images)
            yield images

    monkeypatch.setattr(pg, "_chain_elements", counted)
    return drawn


@pytest.mark.parametrize("spec", ["A5", "C7", "S4", "C2xS3"])
def test_conjugacy_classes_against_naive_partition(spec, tmp_path, monkeypatch):
    # central and one-element classes: the walk must not stop before the last one
    if spec == "C7":
        G = file_group(tmp_path, "C7", 7, [[2, 3, 4, 5, 6, 7, 1]])
    elif spec == "C2xS3":
        G = file_group(tmp_path, "C2xS3", 5, [cyc(5, (1, 2, 3)).to_list(),
                                              cyc(5, (1, 2)).to_list(), cyc(5, (4, 5)).to_list()])
    else:
        G = build_group(spec)
    drawn = count_draws(monkeypatch)
    cmap = conjugacy_classes(G)
    classes = {frozenset(g.images for g in cmap.elements_of(i)) for i in range(len(cmap.classes))}
    assert classes == naive_classes(G)
    # the table stores half of G; class_of finds every element, stored or not
    index = {g: i for i in range(len(cmap.classes)) for g in (x.images for x in cmap.elements_of(i))}
    assert {g: cmap.class_of(Permutation._raw(g)) for g in closure(G.generators, G.degree)} == index
    if spec == "C7":
        # abelian: every class is one element, and each draw g also enters the
        # class of g^-1, so the walk draws 1, g, g^2, g^3 and then stops
        assert len(drawn) == (G.order + 1) // 2 == 4


def test_class_walk_stops_once_the_classes_cover_the_group(monkeypatch):
    # the draws cross the cosets of the first base point's stabilizer, so
    # M12's last class turns up at draw 169 of 95,040
    drawn = count_draws(monkeypatch)
    G = load_group_file("m12.json")
    assert sum(c.size for c in conjugacy_classes(G).classes) == G.order == 95040
    assert len(set(drawn)) == len(drawn) <= 250


@pytest.mark.parametrize("spec, bound", [("A9", 5000), ("L3:5", 300), ("A10", 40000)])
def test_class_walk_draws_few_elements(spec, bound, monkeypatch):
    # 20,558, 12,567 and 184,651 draws when the stabilizer element varied fastest
    drawn = count_draws(monkeypatch)
    G = build_group(spec)
    assert sum(c.size for c in conjugacy_classes(G).classes) == G.order
    assert len(drawn) <= bound


def test_conjugacy_classes_s3():
    cd = build_group("S3").conjugacy_data()
    assert [(c.label, c.size) for c in cd.classes] == [("1a", 1), ("2a", 3), ("3a", 2)]


def test_conjugacy_classes_m11_element_orders():
    cd = load_group_file("m11.json").conjugacy_data()
    assert sorted(c.element_order for c in cd.classes) == [1, 2, 3, 4, 5, 6, 8, 8, 11, 11]


def test_class_equation_over_catalog_sample():
    for spec in ("A5", "A6", "A7", "S5", "S6", "L2:7", "L2:25", "L3:2", "L3:3"):
        G = build_group(spec)
        assert sum(c.size for c in G.conjugacy_data().classes) == G.order


@pytest.mark.parametrize("spec", ["trivial", "C7", "S3", "A4", "S4", "A5", "S5", "A6", "S6", "L2:7",
                                  "L2:8", "L2:9", "L2:11", "L2:13", "L2:16", "L2:25", "L2:27",
                                  "L2:32", "L2:49", "L3:2", "L3:3", "L3:5", "A7", "A8", "A9", "S9",
                                  "file:m11.json", "file:m12.json"])
def test_class_0_is_the_identity(spec, tmp_path):
    # order 1 sorts first: beauville reads sigma-disjointness as masks meeting
    # in bit 0; each power mask is checked against Permutation powers
    if spec == "trivial":
        G = PermGroup([], degree=4)
    elif spec == "C7":
        G = file_group(tmp_path, "C7", 7, [[2, 3, 4, 5, 6, 7, 1]])
    else:
        G = build_group(spec)
    cmap = G.conjugacy_data()
    first = cmap.classes[0]
    assert first.representative == G.identity() and (first.label, first.size) == ("1a", 1)
    assert cmap.class_of(G.identity()) == 0
    for c, mask in zip(cmap.classes, cmap.power_masks):
        rep = c.representative
        powers = {cmap.class_of(p) for p in powers_of(rep, c.element_order)}
        assert mask == sum(1 << i for i in powers) and mask & 1, c.label


def test_class_equation_largest_catalog_groups():
    # completes the order <= 1e6 sweep: the smaller groups are covered above
    # and by the acceptance suite's table checks
    for spec in ("A9", "S9", "L3:5"):
        G = build_group(spec)
        assert sum(c.size for c in G.conjugacy_data().classes) == G.order


def test_class_map_conjugation_invariance():
    G = build_group("L2:8")
    cd = G.conjugacy_data()
    rng = random.Random(99)
    for _ in range(1000):
        g = G.random_element(rng)
        h = G.random_element(rng)
        assert cd.class_of(g) == cd.class_of(h.inverse() * g * h)


def test_power_and_inverse_class_links():
    cd = build_group("A5").conjugacy_data()
    for c in cd.classes:
        inv = cd.by_label(c.inverse_class)
        assert inv.inverse_class == c.label
        assert c.power_classes[1] == c.label
        assert c.power_classes[c.element_order] == "1a"
        powers = powers_of(c.representative, c.element_order + 1)
        for k, label in c.power_classes.items():
            assert cd.class_of(powers[k]) == cd.by_label(label).index
    five = cd.by_label("5a")
    assert cd.classes[five.power_row[2]].label == "5b"  # squaring swaps the 5-classes


@pytest.mark.parametrize("spec", ["A5", "L2:7", "A6", "file:m11.json"])
def test_triple_counts_symmetric(spec):
    cmap = build_group(spec).conjugacy_data()
    k = len(cmap.classes)
    for a, b, c in itertools.combinations_with_replacement(range(k), 3):
        values = {cmap.triple_counts(p, q)[r] for p, q, r in itertools.permutations((a, b, c))}
        assert len(values) == 1, (spec, a, b, c, values)


@pytest.mark.parametrize("spec", ["A5", "L2:7"])
def test_triple_counts_match_direct_count(spec):
    # T(a, b, c) counts the (x, y) in C_a x C_b with (xy)^-1 in C_c
    cmap = build_group(spec).conjugacy_data()
    k = len(cmap.classes)
    for c in cmap.classes:
        assert cmap.class_of(c.representative.inverse()) == c.power_row[-1]
    for a in range(k):
        for b in range(k):
            direct = [0] * k
            for x in cmap.elements_of(a):
                for y in cmap.elements_of(b):
                    direct[cmap.class_of((x * y).inverse())] += 1
            assert list(cmap.triple_counts(a, b)) == direct, (spec, a, b)


def test_triple_counts_scan_each_unordered_pair_once(monkeypatch):
    scans = Counter()
    scan = pg.ClassMap._scan

    def counted(self, a, b):
        scans[frozenset((a, b))] += 1
        return scan(self, a, b)

    monkeypatch.setattr(pg.ClassMap, "_scan", counted)
    G = build_group("L2:7")
    _class_types(G.conjugacy_data())
    character_table(G)
    assert scans and max(scans.values()) == 1


@pytest.mark.parametrize("spec", ["L2:25", "L2:49", "file:m11.json", "A7", "L3:3"])
def test_galois_folded_rows_match_direct_scans(spec):
    # every row not scanned is read through a Galois permutation of classes
    cmap = build_group(spec).conjugacy_data()
    k = len(cmap.classes)
    for a, b in itertools.combinations_with_replacement(range(k), 2):
        assert cmap.triple_counts(a, b) == cmap._scan(a, b), (spec, a, b)


@pytest.mark.parametrize("spec,scans,pairs", [("L2:25", 24, 105), ("L2:49", 48, 351)])
def test_class_types_scan_once_per_galois_orbit(monkeypatch, spec, scans, pairs):
    # the class types read every unordered pair of nontrivial classes off the
    # rows of nontrivial pairs on one side of a Galois-stable split, so only
    # those are scanned, one per Galois orbit
    scanned = []
    scan = pg.ClassMap._scan

    def counted(self, a, b):
        scanned.append((a, b))
        return scan(self, a, b)

    monkeypatch.setattr(pg.ClassMap, "_scan", counted)
    cd = build_group(spec).conjugacy_data()
    _class_types(cd)
    k = len(cd.classes)
    assert (len(scanned), (k - 1) * k // 2) == (scans, pairs)
    assert len(set(scanned)) == len(scanned)


@pytest.mark.parametrize("spec", ["A5", "L2:7", "L2:25", "file:m11.json", "L3:3"])
def test_class_types_match_direct_scans(spec):
    # the counts of cross-side pairs, read off rows from the other side,
    # against a scan of every ordered pair of nontrivial classes
    cmap = build_group(spec).conjugacy_data()
    k, masks = len(cmap.classes), cmap.power_masks
    expected = [((i1, i2, i3), masks[i1] | masks[i2] | masks[i3])
                for i1 in range(1, k) for i2 in range(1, k) for row in [cmap._scan(i1, i2)]
                for i3 in range(1, k) if row[cmap.classes[i3].power_row[-1]]]
    assert _class_types(cmap) == expected


def test_class_types_l3_5_scan_gate(monkeypatch):
    # a bound on work: a scan of {a, b} runs over min(|C_a|, |C_b|) elements;
    # scanning every nontrivial class pair, Galois-folded, took 1,115,642
    scanned = []
    scan = pg.ClassMap._scan

    def counted(self, a, b):
        scanned.append(min(self.classes[a].size, self.classes[b].size))
        return scan(self, a, b)

    monkeypatch.setattr(pg.ClassMap, "_scan", counted)
    _class_types(build_group("L3:5").conjugacy_data())
    assert 0 < sum(scanned) <= 700_000, sum(scanned)


def test_rational_keys_the_galois_orbits():
    # two classes share a key exactly when one holds a coprime power of the
    # other's elements; the key is the least index of the orbit
    cmap = build_group("L2:25").conjugacy_data()
    for c in cmap.classes:
        o = c.element_order
        orbit = {c.power_row[k % o] for k in range(1, o + 1) if math.gcd(k, o) == 1}
        assert {i for i, r in enumerate(cmap.rational) if r == cmap.rational[c.index]} == orbit
        assert cmap.rational[c.index] == min(orbit)


@pytest.mark.parametrize("spec", ["A6", "file:m11.json"])
def test_elements_of_sorted_per_class_and_covering_the_group(spec):
    G = build_group(spec)
    cmap = G.conjugacy_data()
    seen = Counter()
    for i, c in enumerate(cmap.classes):
        elements = cmap.elements_of(i)
        images = [g.images for g in elements]
        assert images == sorted(images) and len(images) == c.size
        assert c.representative in elements
        assert all(cmap.class_of(g) == i and g.order() == c.element_order for g in elements)
        seen.update(images)
    assert set(seen.values()) == {1}
    assert set(seen) == closure(G.generators, G.degree)


@pytest.mark.parametrize("spec", ["A5", "L2:7", "file:m11.json", "cyclic", "trivial"])
def test_chain_elements_yield_each_element_once(spec, tmp_path):
    if spec == "cyclic":
        G = file_group(tmp_path, "C7", 7, [[2, 3, 4, 5, 6, 7, 1]])
        assert len(G._chain.levels) == 1
    elif spec == "trivial":
        G = PermGroup([], degree=4)
        assert G.order == 1 and not G._chain.levels
    else:
        G = build_group(spec)
    elements = list(pg._chain_elements(G))
    assert len(elements) == len(set(elements)) == G.order
    assert set(elements) == closure(G.generators, G.degree)


@pytest.mark.parametrize("spec", ["file:m12.json", "A5", "L2:25"])
def test_chain_elements_cross_the_first_basic_orbit_first(spec):
    G = build_group(spec)
    level = G._chain.levels[0]
    first = itertools.islice(pg._chain_elements(G), len(level.orbit))
    assert sorted(images[level.point] for images in first) == sorted(level.orbit)


def test_chain_elements_store_only_the_two_point_stabilizer():
    # the walk keeps a list of the elements fixing two base points, not one:
    # on A9 that is 2,520 image bytes instead of 20,160 (about 1 MB)
    G = build_group("A9")
    one_point = G.order // len(G._chain.levels[0].orbit)
    tracemalloc.start()
    try:
        next(pg._chain_elements(G))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * one_point // 4, peak


def class_snapshot(G):
    cd = conjugacy_classes(G)
    classes = [(c.label, c.representative, c.size, c.element_order, c.power_row)
               for c in cd.classes]
    # walk slots depend on the conjugators, class indices do not
    return classes, {images: cd.class_of(Permutation._raw(images)) for images in pg._chain_elements(G)}


@pytest.mark.parametrize("spec", ["L2:25", "L3:3", "L2:32", "file:m12.json"])
def test_conjugating_pair_gives_the_classes_of_the_generators(spec, monkeypatch):
    G = build_group(spec)
    pair = pg._conjugators(G)
    assert len(G.generators) > 2 and len(pair) == 2
    assert subgroup_order(G, pair) == G.order
    chosen = class_snapshot(G)
    monkeypatch.setattr(pg, "_conjugators", lambda G: G.generators)
    assert class_snapshot(G) == chosen


def test_conjugators_fall_back_to_generators_when_no_pair_generates(tmp_path):
    # C2 x C2 x C2 needs three generators
    G = file_group(tmp_path, "C2cubed", 6, [[2, 1, 3, 4, 5, 6], [1, 2, 4, 3, 5, 6],
                                            [1, 2, 3, 4, 6, 5]])
    assert G.order == 8
    assert pg._conjugators(G) == G.generators


def test_conjugators_keep_two_generators_without_drawing(monkeypatch):
    G = build_group("A5")
    assert len(G.generators) == 2

    def no_draw(rng):
        raise AssertionError("a 2-generator group needs no random pair")

    monkeypatch.setattr(G, "random_element", no_draw)
    assert pg._conjugators(G) is G.generators


def plain_conjugation_classes(G):
    """G's classes as frozensets of image bytes, each the closure of one element
    under conjugation by G's generators, with plain bytes.translate products."""
    tail = bytes(range(G.degree + 1, 256))
    pairs = [(g.inverse().images, g.images + tail) for g in G.generators]
    seen = set()
    classes = []
    for e in sorted(closure(G.generators, G.degree)):
        if e in seen:
            continue
        orbit = {e}
        frontier = [e]
        while frontier:
            v = frontier.pop() + tail
            for g_inv, g in pairs:
                w = g_inv.translate(v).translate(g)
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


def plain_inverse(images):
    inverse = bytearray(len(images))
    for i, j in enumerate(images):
        inverse[j] = i
    return bytes(inverse)


@pytest.mark.parametrize("spec", ["A5", "S5", "L2:7", "A7", "L2:25", "file:m11.json", "L3:3",
                                  "C12", "trivial"])
def test_paired_walk_matches_plain_conjugation_closure(spec):
    if spec == "C12":
        G = PermGroup([cyc(7, (1, 2, 3), (4, 5, 6, 7))])
    elif spec == "trivial":
        G = PermGroup([], degree=4)
    else:
        G = build_group(spec)
    cmap = conjugacy_classes(G)
    classes = [frozenset(g.images for g in cmap.elements_of(c.index)) for c in cmap.classes]
    assert set(classes) == set(plain_conjugation_classes(G))
    assert len(classes) == len(set(classes))
    for c, members in zip(cmap.classes, classes):
        inverses = frozenset(map(plain_inverse, members))
        assert classes[cmap.by_label(c.inverse_class).index] == inverses
        assert (c.inverse_class == c.label) == (inverses == members)
        assert all(cmap.class_of(Permutation._raw(g)) == c.index for g in members)


def test_m12_class_walk_conjugates_one_of_each_inverse_pair(monkeypatch):
    # the walk skips a conjugate whose inverse it has walked: 47,966 walked
    # elements (95,932 conjugations); a closure of every class walks 95,040
    walked = []
    walk = pg._conjugation_orbit

    def counted(*args):
        members, low, real = walk(*args)
        walked.append(len(members))  # members holds the walked elements only
        return members, low, real

    monkeypatch.setattr(pg, "_conjugation_orbit", counted)
    G = load_group_file("m12.json")
    assert sum(c.size for c in conjugacy_classes(G).classes) == G.order
    assert sum(walked) <= 48_000, sum(walked)


def half_table_group(spec):
    if spec == "C12":
        return PermGroup([cyc(7, (1, 2, 3), (4, 5, 6, 7))])
    return build_group(spec)


@pytest.mark.parametrize("spec", ["A5", "L2:7", "L2:25", "file:m11.json", "C12"])
def test_class_of_agrees_with_elements_of_on_stored_and_inverse_lookups(spec):
    G = half_table_group(spec)
    cmap = conjugacy_classes(G)
    kinds = Counter()
    for i in range(len(cmap.classes)):
        for g in cmap.elements_of(i):
            assert cmap.class_of(g) == i
            kinds[g.images in cmap._table] += 1
    # both halves are looked up: stored elements and inverses of stored ones
    assert sum(kinds.values()) == G.order and kinds[True] and kinds[False]
    # each group lies in the alternating group of its degree: a transposition
    # misses the table, and so does its inverse, itself
    with pytest.raises(MembershipError):
        cmap.class_of(cyc(G.degree, (1, 2)))


@pytest.mark.parametrize("spec", ["A5", "L2:7", "L2:25", "file:m11.json", "C12"])
def test_class_table_holds_one_element_of_each_inverse_pair(spec):
    G = half_table_group(spec)
    elements = closure(G.generators, G.degree)
    assert len(elements) == G.order
    square_one = sum(1 for g in elements if plain_inverse(g) == g)  # g^2 = 1
    table = conjugacy_classes(G)._table
    assert len(table) == (G.order + square_one) // 2
    assert set(table) <= elements
    assert not any(plain_inverse(g) in table for g in table if plain_inverse(g) != g)


def test_class_table_memory_per_element():
    # one table entry per pair {g, g^-1}: the traced peak of the walk is
    # about 67 bytes per element of M12, where a table of every element
    # took 133
    G = load_group_file("m12.json")
    tracemalloc.start()
    try:
        conjugacy_classes(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 90 * G.order, peak / G.order


def test_power_rows_multiply_no_permutations(monkeypatch):
    G = PermGroup([cyc(12, (1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11, 12))])
    assert G.order == 35
    products = []
    mul = Permutation.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    cd = conjugacy_classes(G)
    assert not products
    monkeypatch.undo()
    for c in cd.classes:
        powers = powers_of(c.representative, c.element_order)
        assert c.power_row == tuple(cd.class_of(p) for p in powers)


def test_subgroup_order_examples():
    A5 = build_group("A5")
    assert subgroup_order(A5, [cyc(5, (1, 2, 3)), cyc(5, (3, 4, 5))]) == 60
    assert subgroup_order(A5, [cyc(5, (1, 2, 3)), cyc(5, (2, 3, 4))]) == 12
    assert subgroup_order(A5, [A5.identity()]) == 1
    with pytest.raises(MembershipError):
        subgroup_order(A5, [cyc(5, (1, 2))])


@pytest.fixture(scope="module")
def catalog_groups():
    return [build_group(spec) for spec in catalog_specs() + ["file:m11.json", "file:m12.json"]]


def test_chain_transversals_and_strong_generators(catalog_groups):
    # the chain holds image bytes: u(beta) is an element's images, u_inv(beta)
    # and tables[k] are padded translate tables
    for G in catalog_groups:
        levels = G._chain.levels
        identity = G.identity().images
        assert [g.images for g in G.strong_generators] == (levels[0].gens if levels else [])
        for i, lv in enumerate(levels):
            assert lv.tables == [s + bytes(range(len(s), 256)) for s in lv.gens]
            for beta in lv.orbit:
                assert lv.u(beta)[lv.point] == beta, (G.name, i, beta)
                assert lv.u(beta).translate(lv.u_inv(beta)) == identity
            for k, s in enumerate(lv.gens):
                assert all(s[b] == b for b in G.base[:i]), (G.name, i)
                for beta in lv.orbit:  # complete: every Schreier generator sifts to 1
                    schreier = lv.u(beta).translate(lv.tables[k]).translate(lv.u_inv(s[beta]))
                    res, _ = G._chain._sift(schreier, i + 1)
                    assert res == identity, (G.name, i, beta)


def test_is_transitive_reads_the_first_basic_orbit(catalog_groups, tmp_path):
    c2_cubed = file_group(tmp_path, "C2cubed", 6, [[2, 1, 3, 4, 5, 6], [1, 2, 4, 3, 5, 6],
                                                   [1, 2, 3, 4, 6, 5]])
    others = [PermGroup([], degree=4), PermGroup([], degree=1), c2_cubed]
    for G in catalog_groups + others:
        assert G.is_transitive == is_transitive_on_group_domain(G, G.generators), G
    assert [G.is_transitive for G in others] == [False, True, False]


def check_against_closure(G, gens, probes):
    """Chain order, early-stopped order and membership all agree with the closure."""
    elements = closure(gens, G.degree)
    H = PermGroup(gens)
    assert H.order == subgroup_order(G, gens) == len(elements), gens
    for g in probes:
        assert H.contains(g) == (g.images in elements), (gens, g)
    return H.order


@pytest.mark.parametrize("spec", ["A5", "L2:7"])
def test_chain_matches_closure_on_every_class_pair(spec):
    G = build_group(spec)
    elements = [Permutation._raw(images) for images in sorted(closure(G.generators, G.degree))]
    orders = set()
    for c in G.conjugacy_data().classes:
        for d in elements:
            orders.add(check_against_closure(G, [c.representative, d], elements))
    assert G.order in orders and min(orders) == 1


@pytest.mark.parametrize("spec", ["A6", "file:m11.json"])
def test_chain_matches_closure_on_random_sets(spec):
    G = build_group(spec)
    rng = random.Random(11)
    probes = [G.random_element(rng) for _ in range(40)]
    stabilizer = [g for g in (G.random_element(rng) for _ in range(400)) if g.images[1] == 1]
    orders = set()
    for size in (2, 3):
        for _ in range(3):
            gens = [G.random_element(rng) for _ in range(size)]
            orders.add(check_against_closure(G, gens, probes + [gens[0] * gens[-1]]))
            gens = rng.sample(stabilizer, size)  # inside a point stabilizer: proper
            orders.add(check_against_closure(G, gens, probes + [gens[-1] * gens[0]]))
        x = rng.choice(probes)
        orders.add(check_against_closure(G, powers_of(x, size + 1)[1:], probes))
    assert G.order in orders and len(orders) > 2


def test_conjugacy_capacity_error():
    G = build_group("S10")  # order 3,628,800 > CLASS_ORDER_BOUND
    with pytest.raises(CapacityError):
        conjugacy_classes(G)


def test_chain_sift_cap_sits_above_the_catalog_counts(monkeypatch):
    # a complete chain of S12 sifts 820 Schreier generators, the most of any
    # catalog group; with the cap one below that count the build is refused
    assert build_group("S12").order == math.factorial(12)
    monkeypatch.setattr(pg, "CHAIN_SIFT_CAP", 819)
    with pytest.raises(CapacityError, match="over 819 sifted Schreier generators"):
        build_group("S12")


def test_determinism_of_construction():
    gens = [cyc(8, (1, 2, 3, 4, 5, 6, 7, 8)), cyc(8, (1, 2))]
    G1 = PermGroup(gens)
    G2 = PermGroup(gens)
    assert G1.base == G2.base
    assert G1.basic_orbit_sizes == G2.basic_orbit_sizes
    assert [g.images for g in G1.strong_generators] == [g.images for g in G2.strong_generators]
