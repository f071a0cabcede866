"""Character values on regular semisimple classes stay below the Weyl bound.

For the rank-1 family PSL2(q) the Weyl group has order 2, and values like
zeta + zeta^-1 on torus classes approach 2 without reaching it, so the bound
is tight.  PSL2(9) even attains |chi(s)| = 2 exactly, on its involution
class.  For PSL3(q) the bound is |W| = 6.
"""

from bvl.catalog import build_group
from bvl.chartab import character_table
from bvl.structconst import char_bound_check, gow_scan

for q in (5, 7, 8, 9, 11, 13):
    spec = f"L2:{q}"
    G = build_group(spec)
    report = char_bound_check(G, character_table(G))
    worst = max(report.per_class_max, key=report.per_class_max.get)
    print(f"{spec}: bound {report.bound}, max |chi| = "
          f"{report.per_class_max[worst]:.6f} on class {worst}, pass={report.passed}")

print()
for spec in ("L3:2", "L3:3"):
    G = build_group(spec)
    report = char_bound_check(G, character_table(G))
    print(f"{spec}: bound {report.bound}, per-class maxima "
          f"{ {k: round(v, 4) for k, v in sorted(report.per_class_max.items())} }")

print()
print("Nonvanishing scan: n(C1,C2,C3) > 0 whenever C1, C2 are regular semisimple")
print("and C3 is a nontrivial semisimple class:")
for spec in ("L2:7", "L2:11", "L3:2", "L3:3"):
    G = build_group(spec)
    report = gow_scan(G)
    print(f"  {spec}: {report.triples_checked} triples over RS classes "
          f"{report.regular_classes}, violations: {len(report.violations)}")
