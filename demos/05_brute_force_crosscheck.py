"""Independent verification: coset-table backtracking vs everything else.

The oracle enumerates all transitive relator-respecting actions on n points
directly from the presentation - no divisor sums, no descriptors.  Every
count (per type, subgroups and classes) must then agree with the closed
forms and the catalog enumeration, and the subgroup sets themselves must
coincide table-by-table.
"""

from collections import Counter

from hwcover import catalog, oracle

ISO = ("g1", "g2", "g6")

print("== the backtrack search, classified by the translation-orbit test ==")
print("n   tables  by type            classes")
for n in range(1, 13):
    tables = oracle.low_index(n, search_limit=12)
    by_type = Counter(oracle.stabilizer_type(t) for t in tables)
    classes = len(oracle.classes_of(list(tables)))
    print(f"{n:<3d} {len(tables):6d}  {dict(by_type)!s:18s} {classes}")

print("\n== full three-way report at n = 8 ==")
rep = oracle.cross_check(8, oracle_limit=12)
print("  n,type,s_closed,s_catalog,s_oracle,c_closed,c_catalog,c_oracle,match")
for r in rep.rows:
    print(f"  {r.n},{r.iso},{r.s_closed},{r.s_catalog},{r.s_oracle},"
          f"{r.c_closed},{r.c_catalog},{r.c_oracle},{str(r.match).lower()}")
print("  catalog subgroup set == oracle subgroup set:", rep.tables_bijective)

print("\n== one subgroup seen from both sides ==")
d = catalog.enumerate_g2(6)[0]
table = oracle.descriptor_to_table(d)
form = oracle.canonical_table(table, 0)  # low_index's tables are their own base-0 forms
match = [t for t in oracle.low_index(6, search_limit=12) if t == form]
print(f"  descriptor {d}")
print(f"  coset action: x->{table.x} y->{table.y} z->{table.z}")
print(f"  appears in the brute-force list exactly {len(match)} time(s)")
