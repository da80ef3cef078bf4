"""Dirichlet generating functions for the counting sequences, audited.

Each counting sequence has a generating function sum f(n) n^-s expressible
through zeta factors and a polynomial in 2^-s.  hwcover evaluates those
product forms with exact integer coefficient arithmetic and audits them
against the closed-form counts; two rows of the shipped reference table
are faulty, and the audit pins down exactly how.
"""

from hwcover import arith, catalog

print("== Dirichlet convolution reproduces the divisor sums ==")
N = 12
zeta = arith.zeta_coeffs(0, N)
print("  zeta^2 coefficients: ", arith.convolve(zeta, zeta))
print("  sigma0(1..12):       ", [arith.sigma0(n) for n in range(1, N + 1)])
omega_series = arith.zeta_product((0, 1, 2), N)
print("  zeta(s)zeta(s-1)zeta(s-2):", omega_series)
print("  omega(1..12):             ", [arith.omega(n) for n in range(1, N + 1)])

print("\n== tabulated product forms vs the counting formulas ==")
report = catalog.series_report(512)
for row in report["rows"]:
    verdict = row["verdict"]
    extra = ""
    if row["first_divergent_n"]:
        extra = f" (first divergence at n={row['first_divergent_n']})"
    if row.get("note"):
        extra += f" [{row['note']}]"
    print(f"  ({row['type']}, {row['kind']}): {verdict}{extra}")

row3 = report["row3_label"]
print(f"\n  row-3 label audit: the shape {row3['row']} is tabulated as"
      f" '{row3['tabulated_label']}' but vs g1 s it is {row3['vs_g1_s']},"
      f" while vs g6 s it is a {row3['vs_g6_s']}.")

print("\n== the g6 rows are supported by a parity identity ==")
print("  d3(n) - 3 d3(n/2) + 3 d3(n/4) - d3(n/8) counts all-odd factorizations:")
for n in (9, 12, 15, 16):
    print(f"    n={n:<3d} alternating sum = {arith.d3_alternating(n)}"
          f"   d3(n) if odd else 0 = {arith.d3(n) if n % 2 else 0}")
