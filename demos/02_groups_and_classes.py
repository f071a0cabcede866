"""Building catalog groups and reading off their conjugacy-class data.

Every group is a permutation group with a stabilizer chain: exact order,
fast membership, and deterministic construction.  Conjugacy classes carry
canonical labels (element order + letter) and power-map links; they
come from enumerating the whole group, so the class equation sums to |G|.
"""

from bvl.catalog import build_group, load_group_file

for spec in ("A5", "S6", "L2:7", "L3:3"):
    G = build_group(spec)
    print(f"{spec}: degree {G.degree}, order {G.order}, base {G.base}, "
          f"orbit sizes {G.basic_orbit_sizes}")

print()
G = build_group("L2:11")
cd = G.conjugacy_data()
print(f"conjugacy classes of {G.name} (order {G.order}):")
print(f"  {'label':>6} {'size':>6} {'order':>6} {'inverse':>8}  powers")
for c in cd.classes:
    powers = ", ".join(f"{k}->{v}" for k, v in sorted(c.power_classes.items()))
    print(f"  {c.label:>6} {c.size:>6} {c.element_order:>6} {c.inverse_class:>8}  {powers}")
print(f"class equation: {' + '.join(str(c.size) for c in cd.classes)}"
      f" = {sum(c.size for c in cd.classes)} = |G|")

print()
print("Groups can also be ingested from JSON files with 1-based image arrays:")
M11 = load_group_file("m11.json")
cdm = M11.conjugacy_data()
print(f"  {M11.name}: order {M11.order}, element orders "
      f"{sorted(c.element_order for c in cdm.classes)}")
M12 = load_group_file("m12.json")
print(f"  {M12.name}: order {M12.order}, {len(M12.conjugacy_data().classes)} classes")
