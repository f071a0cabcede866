"""Exact character tables via Dixon-Schneider eigenspace splitting.

Class-multiplication matrices are diagonalized over a prime field F_p with
p = 1 (mod exponent); eigenvalue data lifts to exact cyclotomic values, so
orthogonality can be checked exactly rather than numerically.
"""

from bvl.catalog import build_group, load_group_file
from bvl.chartab import character_table, verify_orthogonality

T = character_table(build_group("A5"))
print(f"character table of A5 (order {T.group_order}, conductor {T.conductor}, "
      f"Dixon prime {T.prime}):")
print("        " + "".join(f"{c.label:>14}" for c in T.cmap.classes))
print("  sizes " + "".join(f"{c.size:>14}" for c in T.cmap.classes))
for deg, row in zip(T.degrees, T.rows):
    print(f"  chi_{deg:<2} " + "".join(f"{repr(v):>14}" for v in row))
print("z30^j denotes exp(2*pi*i*j/30); the golden-ratio values sit on the 5-classes.")
print(f"sum of squared degrees: {sum(d*d for d in T.degrees)} = |G|")
print(f"orthogonality (rows and columns, exact): {verify_orthogonality(T)}")

print()
for spec in ("S4", "L2:8", "L3:2"):
    T = character_table(build_group(spec))
    print(f"{spec}: degrees {T.degrees}, exact orthogonality {verify_orthogonality(T)}")

print()
M11 = load_group_file("m11.json")
T = character_table(M11)
print(f"M11: degrees {T.degrees}")
print(f"     conductor {T.conductor}, prime {T.prime}, "
      f"orthogonality {verify_orthogonality(T)}")
