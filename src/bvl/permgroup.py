"""Permutation-group kernel: stabilizer chains, membership, conjugacy classes.

Points are 1-based throughout the public surface.  A permutation of degree n
stores its images as n + 1 bytes with a fixed 0 in slot 0, so a product is
one ``bytes.translate`` call and needs no index shifting.  Degrees above
MAX_DEGREE (255) raise CapacityError.  Equal-length bytes sort like tuples of
ints, so class labels and representatives do not depend on the storage.
Products act left-to-right: (p * q) means apply p, then q.

Stabilizer chains come from one deterministic Schreier-Sims engine (_Chain)
on Schreier vectors: transversal elements are built on first use, and
Schreier generators are taken from the top level down.  is_generating_pair
is the one generation test: it refuses an intransitive pair of a transitive
G, and hands any other pair to subgroup_order, which passes the known order
|G| as a target, so construction stops as soon as the chain proves |G| (see
_Chain).
Only a proper subgroup, or a PermGroup, gets a complete chain.  A build
that sifts more than CHAIN_SIFT_CAP Schreier generators raises
CapacityError, so a large-degree file group ends in seconds.  Inside the
chain elements stay image bytes, never Permutation objects, with padded
tables kept per level (see _Level), so a product, an inversion and a sift
step are one C call each.  PermGroup wraps the strong generators once.

Conjugacy classes come from one path, conjugacy_classes: each element of G
drawn from its complete chain, across the cosets of the first base point's
stabilizer, and not yet classed seeds a conjugation walk, which finds its
class and the inverse class together.  The element-to-class table stores
one element of each pair {w, w^-1}; ClassMap._slots finds the other through
its inverse.  Groups above CLASS_ORDER_BOUND (2,000,000; S10 is the smallest
catalog group past it) raise CapacityError instead.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from functools import cached_property
from itertools import islice, repeat
from math import gcd, lcm, prod
from operator import itemgetter

from .numtheory import CapacityError, DomainError

# Largest group order whose elements conjugacy_classes walks and sorts into
# conjugation orbits, and most classes a table or class-type search takes.
CLASS_ORDER_BOUND = 2_000_000
MAX_CLASSES = 60

# Largest degree whose points fit in one byte each.
MAX_DEGREE = 255

# Most Schreier generators one stabilizer-chain build sifts: 12 times the 820
# that S12 takes, the most of any catalog group.  Each residue grows an orbit
# by a point, so a chain takes at most R = sum of (orbit length - 1) residues,
# no level holds more than R generators, and a build sifts at most
# (sum of orbit lengths) * R: 77 * 66 = 5,082 at degree 12, so no group of
# degree <= 12 reaches the cap.
CHAIN_SIFT_CAP = 10_000

# The identity on every byte value: bytes.translate needs a 256-entry table,
# so a right operand is padded with fixed points while an operation runs.
_PAD = bytes(range(256))


class EnumerationError(RuntimeError):
    """Raised when class enumeration does not account for every group element."""


class MembershipError(ValueError):
    """Raised when an element lies outside the group it is used with."""


def check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise CapacityError(f"permutation degree must be <= {MAX_DEGREE}, got {degree}")


def _pad(images: bytes) -> bytes:
    """The translate table of a permutation: its images, then fixed points."""
    return images + _PAD[len(images):]


class Permutation:
    """A permutation of {1..degree}, stored as image bytes with images[0] = 0."""

    __slots__ = ("images",)

    def __init__(self, images):
        """From a 1-based image array: images[i - 1] is the image of point i."""
        data = tuple(images)
        n = len(data)
        check_degree(n)
        if sorted(data) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {data}")
        self.images = bytes((0,) + data)

    @classmethod
    def _raw(cls, data: bytes) -> "Permutation":
        p = object.__new__(cls)
        p.images = data
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        check_degree(degree)
        return cls._raw(_PAD[: degree + 1])

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        data = list(range(degree + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                data[a] = b
            if cyc:
                data[cyc[-1]] = cyc[0]
        return cls(data[1:])

    @property
    def degree(self) -> int:
        return len(self.images) - 1

    # __mul__ and inverse inline _pad and _raw: they are on the per-pair paths
    # of the witness search and all_pairs_generate.
    def __mul__(self, other: "Permutation") -> "Permutation":
        e = other.images
        p = object.__new__(Permutation)
        p.images = self.images.translate(e + _PAD[len(e):])
        return p

    def inverse(self) -> "Permutation":
        n = len(self.images)
        p = object.__new__(Permutation)
        p.images = bytes.maketrans(self.images, _PAD[:n])[:n]
        return p

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * (self.degree + 1)
        out = []
        for start in range(1, self.degree + 1):
            if seen[start] or self.images[start] == start:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        n = 1
        for c in self.cycles():
            n = n * len(c) // gcd(n, len(c))
        return n

    def to_list(self) -> list[int]:
        """1-based image array, as stored in group files and certificates."""
        return list(self.images[1:])

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


class _Level:
    """One stabilizer-chain level on a Schreier vector, in image bytes.

    gens holds this level's strong generators and every deeper level's, as
    image bytes in the order found, and tables their padded translate tables;
    orbit and gens only grow.  edge[beta] = (parent point, generator index)
    is the Schreier vector: beta = parent^gens[index].  The transversal
    element u(beta), mapping the base point to beta, is built from edge on
    first use as u(parent) translated by one generator table, and memoised as
    image bytes; u_inv(beta) is memoised as the padded table of its inverse,
    ready to translate by.
    """

    __slots__ = ("point", "gens", "tables", "orbit", "edge", "_u", "_u_inv")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[bytes] = []
        self.tables: list[bytes] = []
        self.orbit: list[int] = [point]
        self.edge: dict[int, tuple[int, int] | None] = {point: None}
        self._u: dict[int, bytes] = {point: _PAD[: degree + 1]}
        self._u_inv: dict[int, bytes] = {point: _PAD}

    def append(self, s: bytes) -> None:
        """Append s to gens without closing the orbit."""
        self.gens.append(s)
        self.tables.append(_pad(s))

    def add_generator(self, s: bytes) -> None:
        """Append s to gens and close the orbit: old points need only s, new ones every generator."""
        self.append(s)
        edge, orbit, old = self.edge, self.orbit, len(self.orbit)
        for beta in orbit[:old]:
            if s[beta] not in edge:
                edge[s[beta]] = (beta, len(self.gens) - 1)
                orbit.append(s[beta])
        for beta in islice(orbit, old, None):  # also visits the points appended meanwhile
            for k, t in enumerate(self.gens):
                if t[beta] not in edge:
                    edge[t[beta]] = (beta, k)
                    orbit.append(t[beta])

    def u(self, beta: int) -> bytes:
        u = self._u.get(beta)
        if u is None:
            parent, k = self.edge[beta]
            u = self._u[beta] = self.u(parent).translate(self.tables[k])
        return u

    def u_inv(self, beta: int) -> bytes:
        v = self._u_inv.get(beta)
        if v is None:
            u = self.u(beta)
            v = self._u_inv[beta] = bytes.maketrans(u, _PAD[: len(u)])
        return v


class _Chain:
    """Schreier-Sims stabilizer chain on Schreier vectors, top level first.

    Schreier generators u(beta) * s * u(beta^s)^-1 are taken from level 0
    down, one per (orbit position, generator index) pair, and sifted through
    the deeper levels; a tree-edge pair gives 1 and is skipped.  A nontrivial
    residue joins the level where its sift stopped (a new level if it fixes
    every base point) and every level above; the orbits it can grow are
    closed at once, then the target is checked.  Each residue grows the orbit
    of its level or adds a level, so construction terminates.

    With a target order (the order of a group known to contain the generated
    one), construction stops once the product of the basic orbit lengths
    reaches it.  Level i's generators fix the first i base points, so each
    orbit is an orbit of a subgroup of the true point stabilizer and the
    product is a lower bound on the generated order: reaching the target
    proves the two groups equal.

    Otherwise one top-down sweep completes the chain.  Orbits are closed
    under their generators before their level is swept, and a residue of a
    level-i Schreier generator lies in H_i, the group generated at level i,
    and fixes the first i + 1 base points.  So it is only appended to levels
    0..i: H_0..H_i do not change, and no level's orbit grows during its own
    sweep.  By Schreier's lemma, the Schreier generators of level i's orbit
    and of the generators it held when its sweep began generate the
    stabilizer of its base point in H_i.  Each of them has sifted to 1
    through the deeper levels, so that stabilizer is H_{i+1}, and order()
    is exact.
    """

    def __init__(self, generators: list[Permutation], degree: int, target: int | None = None):
        self.degree = degree
        self.target = target
        self.identity = _PAD[: degree + 1]
        self.levels: list[_Level] = []
        for g in generators:
            if self._add_residue(*self._sift(g.images, 0), 0):
                return
        sifted = 0
        for i, lv in enumerate(self.levels):  # also visits levels added meanwhile
            for beta in lv.orbit:
                u = lv.u(beta)
                for k, s in enumerate(lv.gens):  # also visits generators added meanwhile
                    img = s[beta]
                    if lv.edge[img] == (beta, k):
                        continue
                    sifted += 1
                    if sifted > CHAIN_SIFT_CAP:
                        raise CapacityError(f"stabilizer chain needs over {CHAIN_SIFT_CAP} "
                                            "sifted Schreier generators")
                    schreier = u.translate(lv.tables[k]).translate(lv.u_inv(img))
                    if self._add_residue(*self._sift(schreier, i + 1), i + 1):
                        return

    def _add_residue(self, res: bytes, j: int, start: int) -> bool:
        """Add a residue that stopped at level j; True once the target is reached.

        A residue sifted from level start = i + 1 lies in the group generated at
        level i, so it cannot grow the orbits of levels 0..i: it is only appended.
        """
        if res == self.identity:
            return False
        if j == len(self.levels):
            point = next(k for k in range(1, self.degree + 1) if res[k] != k)
            self.levels.append(_Level(point, self.degree))
        for lv in self.levels[:start]:
            lv.append(res)
        for lv in self.levels[start : j + 1]:
            lv.add_generator(res)
        return self.target is not None and self.order() >= self.target

    def _sift(self, g: bytes, start: int) -> tuple[bytes, int]:
        for i in range(start, len(self.levels)):
            lv = self.levels[i]
            beta = g[lv.point]
            if beta not in lv.edge:
                return g, i
            g = g.translate(lv.u_inv(beta))
        return g, len(self.levels)

    def contains(self, g: Permutation) -> bool:
        return self._sift(g.images, 0)[0] == self.identity

    def order(self) -> int:
        return prod(len(lv.orbit) for lv in self.levels)

    def random_element(self, rng: random.Random) -> Permutation:
        g = self.identity
        for lv in self.levels:
            g = g.translate(_pad(lv.u(rng.choice(lv.orbit))))
        return Permutation._raw(g)


class PermGroup:
    """A finite permutation group with base and strong generating set."""

    def __init__(self, generators, degree: int | None = None, name: str = ""):
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        if gens:
            degrees = {g.degree for g in gens}
            if len(degrees) != 1:
                raise ValueError(f"generator degrees differ: {sorted(degrees)}")
            d = degrees.pop()
            if degree is not None and degree != d:
                raise ValueError(f"stated degree {degree} != generator degree {d}")
            degree = d
        elif degree is None:
            raise ValueError("empty generator list needs an explicit degree")
        check_degree(degree)
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self.spec_string = name  # builders overwrite with a parseable spec
        self.meta = None  # catalog.LieMeta of a Lie-type catalog group
        self._chain = _Chain(gens, degree)
        levels = self._chain.levels
        self.order = self._chain.order()
        self.base = [lv.point for lv in levels]
        self.strong_generators = [Permutation._raw(s) for s in levels[0].gens] if levels else []
        self.basic_orbit_sizes = [len(lv.orbit) for lv in levels]
        self._classmap: ClassMap | None = None

    @property
    def is_transitive(self) -> bool:
        """The first basic orbit is the whole domain, or the domain is one point."""
        return self.degree == 1 or self.basic_orbit_sizes[:1] == [self.degree]

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
        return self._chain.contains(g)

    def random_element(self, rng: random.Random) -> Permutation:
        return self._chain.random_element(rng)

    def conjugacy_data(self) -> "ClassMap":
        if self._classmap is None:
            self._classmap = conjugacy_classes(self)
        return self._classmap

    def __repr__(self) -> str:
        label = self.name or f"degree-{self.degree} group"
        return f"<PermGroup {label}, order {self.order}>"


def subgroup_order(G: PermGroup, gens) -> int:
    """Exact order of the subgroup generated by gens inside G.

    |G| is the chain's target, so a generating set stops its construction
    early (see _Chain); a proper subgroup gets a complete chain.
    """
    gens = list(gens)
    for g in gens:
        if not G.contains(g):
            raise MembershipError(f"element {g!r} is not in the group")
    return _Chain(gens, G.degree, target=G.order).order()


def is_transitive_on_group_domain(G: PermGroup, gens) -> bool:
    """Orbit of point 1 under gens covers the whole domain.

    Cheap necessary condition for generating a transitive group; used to
    short-circuit generation tests.  False for gens of another degree.
    """
    if any(g.degree != G.degree for g in gens):
        return False
    seen = bytearray(G.degree + 1)
    seen[1] = 1
    stack = [1]
    count = 1
    while stack:
        a = stack.pop()
        for g in gens:
            b = g.images[a]
            if not seen[b]:
                seen[b] = 1
                count += 1
                stack.append(b)
    return count == G.degree


def is_generating_pair(G: PermGroup, x: Permutation, y: Permutation) -> bool:
    """G = <x, y>, the one generation test; MembershipError if x or y lies outside G.

    An intransitive pair cannot generate a transitive G: it is refused, and
    sifted only to raise MembershipError for an element outside G.  Any
    other pair goes to subgroup_order, which sifts x and y and stops once
    its chain reaches |G|.
    """
    if G.is_transitive and not is_transitive_on_group_domain(G, (x, y)):
        if not (G.contains(x) and G.contains(y)):
            raise MembershipError("is_generating_pair: element is not in the group")
        return False
    return subgroup_order(G, [x, y]) == G.order


class ConjugacyClass:
    """One conjugacy class with canonical label and power map."""

    def __init__(self, *, label: str, index: int, representative: Permutation, size: int,
                 element_order: int):
        self.label = label
        self.index = index
        self.representative = representative
        self.size = size
        self.element_order = element_order
        # class index of representative**i for every 0 <= i < element_order;
        # power_row[-1] is the index of the inverse class
        self.power_row: tuple[int, ...] = ()


class ClassMap:
    """The class data of a group: its classes and an element-to-class table.

    Walk k of conjugacy_classes enters the elements W it walked in the table
    under slot 2k, and no others: W u W^-1 is a class and its inverse, so
    the table holds one element of each pair {w, w^-1}, and _slots finds an
    element of W^-1 under the partner slot 2k + 1 through its inverse.
    _index maps a slot to its class index.  _members[i] lists the sides of
    class i, (W, 0) for W and (W, 1) for W^-1, sharing one list per walk;
    elements_of sorts and wraps one class on its first request.
    """

    def __init__(self, table: dict[bytes, int], degree: int):
        self._table = table
        self._identity = _PAD[: degree + 1]
        self.classes: list[ConjugacyClass] = []
        self._members: list[tuple[tuple[list[bytes], int], ...]] = []
        self._index: list[int] = []
        self._elements: dict[int, list[Permutation]] = {}
        self._triples: dict[tuple[int, int], array] = {}

    @cached_property
    def exponent(self) -> int:
        """The exponent of G: the lcm of the element orders."""
        return lcm(*(c.element_order for c in self.classes))

    @cached_property
    def power_masks(self) -> list[int]:
        """power_masks[i]: bit j set for each class j that the powers of class i meet."""
        return [sum(1 << j for j in set(c.power_row)) for c in self.classes]

    @cached_property
    def rational(self) -> list[int]:
        """rational[i]: the least index of a Galois conjugate C_i^k, k coprime to o_i."""
        return [min(c.power_row[k % c.element_order] for k in range(1, c.element_order + 1)
                    if gcd(k, c.element_order) == 1) for c in self.classes]

    def by_label(self, label: str) -> ConjugacyClass:
        for c in self.classes:
            if c.label == label:
                return c
        raise DomainError(f"unknown class label {label!r}")

    def _slots(self, elements: list[bytes]) -> list[int]:
        """The table slot of each element, in order: the one reader of the table.

        One C-level map looks every element up.  An element that misses is
        inverted and looked up once more, its inverse's slot s giving s ^ 1.
        -1 marks an element that misses twice: outside G, or not classed yet.
        """
        table, identity, n = self._table, self._identity, len(self._identity)
        slots = list(map(table.get, elements))
        if None in slots:
            for i, slot in enumerate(slots):
                if slot is None:
                    slots[i] = table.get(bytes.maketrans(elements[i], identity)[:n], -2) ^ 1
        return slots

    def class_of(self, g: Permutation) -> int:
        """Index of the class containing g."""
        slot = self._slots((g.images,))[0]
        if slot < 0:
            raise MembershipError("element is not in the group")
        return self._index[slot]

    def elements_of(self, index: int) -> list[Permutation]:
        """All elements of the class, in ascending image order."""
        elements = self._elements.get(index)
        if elements is None:
            images, identity = [], self._identity
            for walk, side in self._members[index]:  # the inverses as one C-level map
                images += map(itemgetter(slice(len(identity))),
                              map(bytes.maketrans, walk, repeat(identity))) if side else walk
            elements = self._elements[index] = [Permutation._raw(x) for x in sorted(images)]
        return elements

    def triple_counts(self, a: int, b: int) -> array:
        """Row over c of T(a, b, c) = #{(x, y, z) in C_a x C_b x C_c : xyz = 1}.

        T is invariant under every permutation of (a, b, c): xyz = 1 gives
        yzx = 1 (rotation) and y * x * (x^-1 z x) = 1 (swap, z conjugated
        inside C_c).  So one row per unordered pair, memoised, serves every
        ordering.  Rows are int64 arrays (T <= |G|^2), so the memo holds no
        int objects.

        T is also Galois-invariant.  For k coprime to the exponent e of G,
        sigma_k(i) = power_row_i[k mod o_i] permutes the classes, keeping
        their sizes (g -> g^k maps C_i onto C_sigma(i) bijectively).  By
        Frobenius, T(a, b, c) = |C_a||C_b||C_c| / |G| * sum over chi of
        chi(a) chi(b) chi(c) / chi(1); zeta_e -> zeta_e^k sends chi(g) to
        chi(g^k) and fixes the rational sum, so T(sigma a, sigma b, sigma c)
        = T(a, b, c).  So only the least sorted image pair of each Galois
        orbit of unordered pairs is scanned, and a pair {a, b} that sigma
        takes there reads row[c] = base[sigma c].  sigma_k moves {a, b}
        through k mod m, m = lcm(o_a, o_b), so the orbit is walked over the
        units mod m, and the k found is lifted to a unit k + tm mod e.
        """
        key = (a, b) if a <= b else (b, a)
        row = self._triples.get(key)
        if row is None:
            ra, rb = self.classes[a].power_row, self.classes[b].power_row
            m = lcm(len(ra), len(rb))
            rep, k = min((tuple(sorted((ra[j % len(ra)], rb[j % len(rb)]))), j)
                         for j in range(1, m + 1) if gcd(j, m) == 1)
            base = self._triples.get(rep)
            if base is None:
                base = self._triples[rep] = self._scan(*rep)
            if rep == key:
                row = base
            else:
                while gcd(k, self.exponent) > 1:
                    k += m
                row = array("q", [base[c.power_row[k % len(c.power_row)]] for c in self.classes])
            self._triples[key] = row
        return row

    def _scan(self, a: int, b: int) -> array:
        """The triple_counts row of {a, b}: the one class-product counting loop.

        It runs over the smaller class C_s with the representative r of the
        other class C_l: conjugating x to r gives T(l, s, c) =
        |C_l| * #{y in C_s : y*r ~ r*y lies in the class inverse to C_c}.
        On the unstored side W^-1 of C_s, y = w^-1 and y*r ~ r*y = (w*r^-1)^-1,
        so the partner of the slot of w*r^-1 classes y*r.
        """
        classes = self.classes
        s, l = (a, b) if classes[a].size <= classes[b].size else (b, a)
        r = classes[l].representative
        counts = [0] * len(classes)
        for walk, side in self._members[s]:
            right = _pad((r.inverse() if side else r).images)
            for slot, n in Counter(self._slots([w.translate(right) for w in walk])).items():
                counts[self._index[slot ^ side]] += n
        return array("q", [classes[l].size * counts[c.power_row[-1]] for c in classes])


def _conjugators(G: PermGroup) -> tuple[Permutation, ...]:
    """A generating set of G to conjugate by: a random generating pair if found.

    Pairs are drawn with a fixed seed and accepted only when the one
    generation test, is_generating_pair, proves they generate G; after a few
    misses (or with at most two generators already) G.generators is returned.
    """
    if len(G.generators) <= 2:
        return G.generators
    rng = random.Random(0)
    for _ in range(8):
        pair = (G.random_element(rng), G.random_element(rng))
        if is_generating_pair(G, *pair):
            return pair
    return G.generators


def _conjugation_orbit(conjugators, images: bytes, table: dict[bytes, int],
                       slot: int) -> tuple[list[bytes], bytes, bool]:
    """The walked half W of the class C of images: (W, least of W^-1, C is real).

    A conjugate w is walked and entered in table under slot when neither w
    nor w^-1 is there yet, so W holds one element of each pair {w, w^-1}.
    As (s^-1 v s)^-1 = s^-1 v^-1 s, W u W^-1 is closed under conjugators:
    it is C u C^-1.  C = C^-1 exactly when images is its own inverse or a
    conjugate is the inverse of a walked w (if C = C^-1, W is half of it,
    so not closed).  Otherwise W is closed, so it is C, and W^-1 is C^-1 at
    no cost in conjugations.  The inverse of each new w is computed anyway,
    so the least of them is kept on the way.
    """
    n = len(images)
    tail, identity = _PAD[n:], _PAD[:n]
    pairs = [(s.inverse().images.translate, _pad(s.images)) for s in conjugators]
    low = bytes.maketrans(images, identity)[:n]
    real = low == images
    table[images] = slot
    members = [images]
    append, maketrans = members.append, bytes.maketrans
    for v in members:  # breadth first: also visits the w appended meanwhile
        v += tail
        for s_inv_mul, s in pairs:
            w = s_inv_mul(v).translate(s)  # s^-1 * v * s
            if w in table:
                continue
            inverse = maketrans(w, identity)[:n]
            if inverse in table:
                real = True
            else:
                table[w] = slot
                append(w)
                if inverse < low:
                    low = inverse
    return members, low, real


def conjugates_by(x: Permutation):
    """A function from image bytes y to its <x>-conjugation orbit y, x^-1 y x, ..."""
    x_inv_mul, right, tail = x.inverse().images.translate, _pad(x.images), _PAD[len(x.images):]

    def orbit(y: bytes) -> list[bytes]:
        members = [y]
        e = x_inv_mul(y + tail).translate(right)
        while e != y:
            members.append(e)
            e = x_inv_mul(e + tail).translate(right)
        return members

    return orbit


def image_powers(images: bytes, count: int):
    """Image bytes of g^0, g^1, ..., g^(count - 1), for g given by its image bytes."""
    step, power = _pad(images), _PAD[: len(images)]
    for _ in range(count):
        yield power
        power = power.translate(step)  # g^k * g


def _chain_elements(G: PermGroup):
    """Image bytes of every element of G, each exactly once, from its chain.

    G's chain is complete, so each element is uniquely x * u1 * u0 with u0
    and u1 in the level-0 and level-1 transversals and x in the stabilizer
    of the first two base points.  Only that stabilizer's elements are built
    as a list, level by level from the deepest; the rest are yielded lazily,
    u0 fastest, then x, then u1 (one row of |O0| tables u1 * u0 at a time),
    so early draws cross the cosets of the first base point's stabilizer.
    """
    levels, identity = G._chain.levels, _PAD[: G.degree + 1]
    stabilizer = [identity]
    for lv in reversed(levels[2:]):
        pads = [_pad(lv.u(beta)) for beta in lv.orbit]
        stabilizer = [x.translate(t) for t in pads for x in stabilizer]
    tops = [[lv.u(beta) for beta in lv.orbit] for lv in levels[:2]] + [[identity]] * 2
    for u1 in tops[1]:
        row = [_pad(u1.translate(_pad(u0))) for u0 in tops[0]]
        for x in stabilizer:
            yield from map(x.translate, row)


def _assign_labels(orders: list[int]) -> list[str]:
    """Labels like 5a, 5b, ..., 5z, 5aa for classes in canonical order."""
    labels, counters = [], Counter()
    for order_ in orders:
        k, suffix = counters[order_], ""
        counters[order_] += 1
        while k >= 0:
            suffix = chr(ord("a") + k % 26) + suffix
            k = k // 26 - 1
        labels.append(f"{order_}{suffix}")
    return labels


def check_class_order(G: PermGroup) -> None:
    """CapacityError for a group whose classes conjugacy_classes refuses."""
    if G.order > CLASS_ORDER_BOUND:
        raise CapacityError(f"conjugacy classes need order <= {CLASS_ORDER_BOUND}, "
                            f"group has order {G.order}")


def conjugacy_classes(G: PermGroup) -> ClassMap:
    """Complete conjugacy-class list with canonical labels and power maps.

    Draws the elements of G (_chain_elements) and looks each up once with
    ClassMap._slots; a draw not yet classed seeds _conjugation_orbit, and
    walk k enters its half W of C u C^-1 in the table under slot 2k.  The
    classes are whole (the conjugators generate G) and disjoint (a seed is
    not yet classed), so the draws stop once the class sizes add up to |G|:
    on M12 at draw 169 of 95,040.
    The canonical sort fills the short slot-to-class list, not the table.
    """
    check_class_order(G)
    conjugators = _conjugators(G)
    table: dict[bytes, int] = {}
    cmap = ClassMap(table, G.degree)
    raw: list[tuple] = []  # (order, lex-least rep images, size, sides) per class
    slots: list[int] = []  # table slot -> index in raw
    total = 0
    for images in _chain_elements(G):
        if cmap._slots((images,))[0] >= 0:
            continue
        walk, low, real = _conjugation_orbit(conjugators, images, table, len(slots))
        rep = min(walk)
        if not real:  # C = W and C^-1 = W^-1
            found = [(rep, ((walk, 0),)), (low, ((walk, 1),))]
        else:  # C = W u W^-1, or W alone if its members are their own inverses (low = rep)
            found = [(min(rep, low), ((walk, 0),) if low == rep else ((walk, 0), (walk, 1)))]
        slots += (len(raw), len(raw) + len(found) - 1)
        for rep, sides in found:
            raw.append((Permutation._raw(rep).order(), rep, len(walk) * len(sides), sides))
            total += raw[-1][2]
        if total == G.order:
            break
    # explicit, not assert: python -O must not strip the exactness check;
    # the table holds every g with g^2 = 1 and one of each other pair {g, g^-1},
    # and |C| divides |G| / o(rep), as <rep> lies in the centralizer of rep
    stored = (total + sum(n for order_, _, n, _ in raw if order_ <= 2)) // 2
    not_dividing = sorted(n for order_, _, n, _ in raw if G.order % (order_ * n))
    if len(table) != stored or total != G.order or not_dividing:
        raise EnumerationError(f"class enumeration found {total} elements, {len(table)} stored "
                               f"of {stored}, class sizes {not_dividing} not dividing |G| / o, "
                               f"group has order {G.order}")

    # canonical order: element order (the identity is class 0), then size, then lex-least rep
    order = sorted(range(len(raw)), key=lambda i: (raw[i][0], raw[i][2], raw[i][1]))
    labels = _assign_labels([raw[o][0] for o in order])
    cmap.classes = [ConjugacyClass(label=labels[i], index=i, representative=Permutation._raw(rep),
                                   size=size, element_order=order_)
                    for i, (order_, rep, size, _) in enumerate(raw[o] for o in order)]
    cmap._members = [raw[o][3] for o in order]
    rank = sorted(range(len(order)), key=order.__getitem__)  # index in raw -> class index
    cmap._index = [rank[r] for r in slots]
    for c in cmap.classes:
        powers = cmap._slots(list(image_powers(c.representative.images, c.element_order)))
        c.power_row = tuple(cmap._index[slot] for slot in powers)
    return cmap
