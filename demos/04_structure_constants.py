"""Structure constants two ways: character formula vs. brute force.

n(C1,C2,C3) counts pairs (y, z) in C2 x C3 with x y z = 1 for a fixed
x in C1.  The character-formula route

    n = (|C2||C3| / |G|) sum_chi chi(C1) chi(C2) chi(C3) / chi(1)

is evaluated in exact cyclotomic arithmetic; the brute-force route scans C2
and looks up the class of (x y)^-1.  They must agree on every triple.
"""

from bvl.catalog import build_group
from bvl.chartab import character_table
from bvl.structconst import structure_constant_brute, structure_constant_formula

G = build_group("A5")
cd = G.conjugacy_data()
T = character_table(G)
labels = [c.label for c in cd.classes]

print("all 125 class triples of A5, formula vs brute:")
disagreements = 0
for c1 in labels:
    row = []
    for c2 in labels:
        for c3 in labels:
            nf = structure_constant_formula(T, c1, c2, c3)
            nb = structure_constant_brute(G, c1, c2, c3)
            if nf != nb:
                disagreements += 1
print(f"  disagreements: {disagreements}")

print()
print("selected values in A5:")
for triple in (("2a", "3a", "5a"), ("5a", "5a", "5a"), ("1a", "5a", "5a"), ("3a", "3a", "2a")):
    n = structure_constant_formula(T, *triple)
    print(f"  n{triple} = {n}")

print()
print("rotation invariance: n(C1,C2,C3)*|C1| counts solutions of xyz = 1,")
print("so it cannot change under cyclic rotation of the triple:")
for triple in (("2a", "3a", "5a"), ("3a", "5a", "2a"), ("5a", "2a", "3a")):
    n = structure_constant_formula(T, *triple)
    size = cd.by_label(triple[0]).size
    print(f"  n{triple} * |{triple[0]}| = {n * size}")
