"""Class pairs (C, D) where every single pair in C x D generates the group.

Fixing a representative c of C loses nothing (conjugate the pair), so one
scan of D per class decides the whole of C x D.  The scan is a sharp tool:
it certifies witnesses, finds counterexamples, and exposes where published
class choices go wrong.
"""

from collections import Counter

from bvl.beauville import all_pairs_generate, search_gen_classes
from bvl.catalog import build_group, load_group_file
from bvl.permgroup import subgroup_order

print("A5: exhaustive scan of all class pairs:")
print(f"  passing pairs: {search_gen_classes(build_group('A5'))}")

print()
A6 = build_group("A6")
cert = all_pairs_generate(A6, ("5a", "5b"), "4a")
print(f"A6, C = both 5-classes, D = 4a: all {cert.pairs_tested} pairs generate: "
      f"{cert.all_generate}")

for q in (11, 13):
    G = build_group(f"L2:{q}")
    cd = G.conjugacy_data()
    c_labels = [c.label for c in cd.classes if c.element_order == (q + 1) // 2]
    d_labels = [c.label for c in cd.classes if c.element_order == (q - 1) // 2]
    for c in c_labels:
        for d in d_labels:
            r = all_pairs_generate(G, c, d)
            print(f"L2:{q}, ({c}, {d}): all {r.pairs_tested} pairs generate: {r.all_generate}")

print()
print("M11 shows why the scan matters.  The classes (5a, 8a) look plausible,")
print("but the point stabilizer M10 (order 720, maximal) contains elements of")
print("order 5 and of order 8, so some pairs only generate M10:")
M11 = load_group_file("m11.json")
cd = M11.conjugacy_data()
c5 = cd.by_label("5a").representative
for x in ("8a", "8b"):
    counts = Counter(
        subgroup_order(M11, [c5, d]) for d in cd.elements_of(cd.by_label(x).index)
    )
    print(f"  orders of <rep(5a), d> over d in {x}: {dict(sorted(counts.items()))}")
print("The corrected witness pairs use the 11-classes, whose only maximal")
print("overgroup L2(11) has no elements of order 4 or 8:")
for pair in (("11a", "8a"), ("11a", "4a"), ("11b", "8b")):
    r = all_pairs_generate(M11, *pair)
    print(f"  M11 {pair}: all {r.pairs_tested} pairs generate: {r.all_generate}")
