"""Counting the n-fold coverings of the Hantzsche-Wendt manifold.

s counts index-n subgroups of the fundamental group; c counts their
conjugacy classes, i.e. the nonequivalent n-fold coverings.  The covering
manifold is a torus (g1), the dicosm (g2), or Hantzsche-Wendt again (g6),
and which types occur is forced by n mod 4.
"""

from hwcover import catalog

ISO = ("g1", "g2", "g6")

print("n   | s_g1 s_g2  s_g6 | c_g1 c_g2 c_g6 | normal (z3,g2,g6)")
print("-" * 66)
for n in range(1, 25):
    s = [catalog.count_s(t, n) for t in ISO]
    c = [catalog.count_c(t, n) for t in ISO]
    nz = catalog.normal_counts(n)
    print(f"{n:<3d} | {s[0]:4d} {s[1]:4d} {s[2]:5d} |"
          f" {c[0]:4d} {c[1]:4d} {c[2]:4d} | {nz}")

print("""
Things to notice:
  * odd n: only g6-type (self-similar) coverings, and s = n * c;
  * n = 2 mod 4: only dicosm coverings;
  * n = 0 mod 4: torus and dicosm coverings, never g6;
  * normal dicosm subgroups come 3 at n = 2 mod 4 and 6 at n = 4 mod 8.
""")

print("== how class sizes split for the torus-type subgroups ==")
for n in (4, 8, 16, 32, 64):
    sizes = [len(cls) for cls in catalog.conjugacy_classes(catalog.enumerate_z3(n))]
    split = tuple(size * sizes.count(size) for size in (1, 2, 4))
    print(f"  n={n:<3d} subgroups in classes of size 1/2/4: {split}"
          f"  -> classes = {len(sizes)}")
