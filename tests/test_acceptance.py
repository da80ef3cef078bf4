"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the verdict lines.
All checks are exact integer comparisons; there are no tolerances anywhere.
"""

import random

from hwcover import catalog, oracle
from hwcover.group import E, LETTERS, RELATOR_WORDS, Element, eval_word
from witnesses import (
    filtered_normal_counts,
    flip_fixed_count_3d,
    g2_partial_split,
    g2_partial_split_closed_form,
    odd_factorization_identity_holds,
    z3_orbit_split,
    z3_orbit_split_closed_form,
)

ISO = ("g1", "g2", "g6")


def _verdict(number, ok, detail=""):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_three_way_agreement_up_to_32():
    bad = []
    for n in range(1, 33):
        rep = oracle.cross_check(n, oracle_limit=32)
        if not rep.all_match or rep.tables_bijective is not True:
            bad.append(n)
    _verdict(1, not bad,
             "oracle = closed forms = catalog (s and c, per type) for n <= 32"
             + (f"; failures at {bad}" if bad else ""))


def test_criterion_2_catalog_vs_closed_forms_up_to_200():
    bad = []
    for n in range(1, 201):
        for iso in ISO:
            if len(catalog.enumerate_iso(iso, n)) != catalog.count_s(iso, n):
                bad.append(("s", iso, n))
            if catalog.class_count(iso, n) != catalog.count_c(iso, n):
                bad.append(("c", iso, n))
    _verdict(2, not bad,
             "enumeration sizes and class counts match closed forms for n <= 200"
             + (f"; failures {bad[:4]}" if bad else ""))


def test_criterion_3_spot_values():
    # re-derive every frozen value from the ordered-factorization oracle ...
    def triples(n):
        return [(a, b, c) for a in range(1, n + 1) if n % a == 0
                for b in range(1, n + 1) if (n // a) % b == 0
                for c in [n // a // b]]

    d3_15 = len(triples(15))
    omega_1 = sum(a * a * b for a, b, c in triples(1))
    omega_2 = sum(a * a * b for a, b, c in triples(2))
    checks = {
        "s(2)": [catalog.count_s(t, 2) for t in ISO] == [0, 3, 0],
        "c(2)": [catalog.count_c(t, 2) for t in ISO] == [0, 3, 0],
        "s(4)": [catalog.count_s(t, 4) for t in ISO] == [0 + omega_1, 18, 0],
        "c(4)": [catalog.count_c(t, 4) for t in ISO] == [1, 12, 0],
        "s_g1(8)": catalog.count_s("g1", 8) == omega_2 == 7,
        "split(8)": z3_orbit_split(8) == z3_orbit_split_closed_form(8) == (7, 0, 0),
        "s(3)": [catalog.count_s(t, 3) for t in ISO] == [0, 0, 9],
        "c(3)": [catalog.count_c(t, 3) for t in ISO] == [0, 0, 3],
        "s(15)": [catalog.count_s(t, 15) for t in ISO] == [0, 0, 15 * d3_15],
        "c(15)": [catalog.count_c(t, 15) for t in ISO] == [0, 0, d3_15],
    }
    # ... and against the backtracking oracle where it reaches
    for n in (2, 3, 4, 8, 15):
        tables = oracle.low_index(n, search_limit=16)
        per_type = {iso: 0 for iso in ISO}
        for t in tables:
            per_type[oracle.stabilizer_type(t)] += 1
        checks[f"oracle({n})"] = all(
            per_type[iso] == catalog.count_s(iso, n) for iso in ISO
        )
    bad = [k for k, v in checks.items() if not v]
    _verdict(3, not bad, "frozen spot values re-derived by both oracles"
             + (f"; failures {bad}" if bad else ""))


def test_criterion_4_group_arithmetic_at_scale():
    rng = random.Random(123456)

    def rand():
        return Element(rng.choice(LETTERS), rng.randint(-10, 10),
                       rng.randint(-10, 10), rng.randint(-10, 10))

    ok = all(eval_word(w) == Element(E, 0, 0, 0) for w in RELATOR_WORDS)
    for _ in range(100_000):
        p, q = rand(), rand()
        if (p * q).to_affine() != p.to_affine().then(q.to_affine()):
            ok = False
            break
        if (p != q) and (p.to_affine() == q.to_affine()):
            ok = False
            break
    if ok:
        for _ in range(100_000):
            p, q, r = rand(), rand(), rand()
            if (p * q) * r != p * (q * r):
                ok = False
                break
            if (p * p.inverse()).letter != E or p * p.inverse() != Element(E, 0, 0, 0):
                ok = False
                break
    _verdict(4, ok, "10^5 random pairs/triples: affine homomorphism, injectivity, "
                    "associativity, inverses; all relators die")


def test_criterion_5_normal_subgroup_counts_up_to_64():
    bad = []
    for n in range(1, 65):
        _, g2n, g6n = closed = catalog.normal_counts(n)
        if filtered_normal_counts(n) != closed:
            bad.append((n, "is_normal filter"))
        piecewise = 3 if n % 4 == 2 else 6 if n % 8 == 4 else 0
        if g2n != piecewise or g6n != (1 if n == 1 else 0):
            bad.append((n, "piecewise"))
    _verdict(5, not bad,
             "normal counts: closed forms equal is_normal-filtered enumerations "
             "for n <= 64 (z3 closed form corrected; published extra "
             "2*d3(n/32) term fails the filter at n=32,64 - see ledger; the "
             "singleton classes of the coset tables are checked for n <= 32 in "
             "test_oracle)"
             + (f"; failures {bad[:3]}" if bad else ""))


def test_criterion_6_partition_identities_up_to_128():
    bad = []
    for n in range(1, 129):
        m1, m2, m4 = z3_orbit_split(n)
        fixed, swapped = g2_partial_split(n)
        if (m1, m2, m4) != z3_orbit_split_closed_form(n):
            bad.append((n, "orbit split"))
        if (fixed, swapped) != g2_partial_split_closed_form(n):
            bad.append((n, "partial split"))
        if m1 + m2 // 2 + m4 // 4 != catalog.count_c("g1", n):
            bad.append((n, "class-size identity"))
        if 3 * (fixed + swapped // 2) != catalog.count_c("g2", n):
            bad.append((n, "partial-class identity"))
        if n % 4 == 0 and 3 * m1 + m2 != 3 * flip_fixed_count_3d(n // 4):
            bad.append((n, "flip-fixed identity"))
        if catalog.count_s("g6", n) != n * catalog.count_c("g6", n):
            bad.append((n, "s = n*c"))
    _verdict(6, not bad, "orbit/partial-class partition identities hold for n <= 128"
             + (f"; failures {bad[:3]}" if bad else ""))


def test_criterion_7_series_audit():
    report = catalog.series_report(4096)
    verdicts = {(r["type"], r["kind"]): r for r in report["rows"]}
    ok = all(
        verdicts[key]["verdict"] == "match"
        for key in (("g1", "s"), ("g1", "c"), ("g2", "c"), ("g6", "s"), ("g6", "c"))
    )
    g2s = verdicts["g2", "s"]
    definitive_g2s = g2s["verdict"] == "mismatch" and g2s["first_divergent_n"] == 2 \
        and "times 3" in g2s.get("note", "")
    row3 = report["row3_label"]
    definitive_row3 = row3["vs_g6_s"] == "match" and row3["vs_g1_s"].startswith("mismatch")
    parity = all(odd_factorization_identity_holds(n) for n in range(1, 10_001))
    _verdict(7, ok and definitive_g2s and definitive_row3 and parity,
             "five series rows match for n <= 4096; (g2,s) recorded as mismatch@2 "
             "(x3), row-3 label recorded as the g6 subgroup series; "
             "odd-factorization identity holds for n <= 10^4")


def test_criterion_8_parity_structure_up_to_200():
    bad = []
    for n in range(1, 201):
        s = {iso: catalog.count_s(iso, n) for iso in ISO}
        if n % 2 == 1:
            good = s["g1"] == s["g2"] == 0 and s["g6"] > 0 \
                and catalog.enumerate_z3(n) == [] and catalog.enumerate_g2(n) == []
        elif n % 4 == 2:
            good = s["g1"] == s["g6"] == 0 and s["g2"] > 0 \
                and catalog.enumerate_z3(n) == [] and catalog.enumerate_g6(n) == []
        else:
            good = s["g6"] == 0 and catalog.enumerate_g6(n) == []
        if not good:
            bad.append(n)
    _verdict(8, not bad, "odd index: only g6; index 2 mod 4: only g2; "
                         "index 0 mod 4: no g6 (n <= 200)"
             + (f"; failures {bad[:5]}" if bad else ""))
