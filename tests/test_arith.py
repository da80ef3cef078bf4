"""Divisor sums and Dirichlet coefficient machinery vs brute enumeration."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from hwcover import catalog
from hwcover.arith import (
    D3,
    D3_ALTERNATING,
    DELTA,
    GF_TABLE,
    N_D3,
    OMEGA,
    ONE,
    SIGMA0,
    SIGMA2,
    convolve,
    d3,
    d3_alternating,
    divisors,
    form_value,
    form_values,
    gf_coeffs,
    omega,
    sigma0,
    sigma1,
    sigma2,
    zeta_coeffs,
    zeta_product,
)
from witnesses import NESTED_DIVISOR_SUMS, odd_factorization_identity_holds


# --- brute-force oracles: ordered factorizations, nothing clever -----------

def brute_pairs(n):
    return [(a, n // a) for a in range(1, n + 1) if n % a == 0]


def brute_triples(n):
    return [(a, b, c)
            for a, rest in brute_pairs(n)
            for b, c in brute_pairs(rest)]


def brute_sigma0(n):
    return len(brute_pairs(n))


def brute_sigma1(n):
    return sum(a for a, _ in brute_pairs(n))


def brute_sigma2(n):
    return sum(a for a, _, _ in brute_triples(n))


def brute_d3(n):
    return len(brute_triples(n))


def brute_omega(n):
    return sum(a * a * b for a, b, _ in brute_triples(n))


# --- divisor functions -------------------------------------------------------

def test_frozen_spot_values_rederived_by_the_oracle():
    assert sigma1(1) == d3(1) == omega(1) == 1
    assert sigma1(6) == 12 == brute_sigma1(6)
    assert omega(2) == 7 == brute_omega(2)
    assert d3(12) == 18 == brute_d3(12)
    assert sigma2(4) == 11 == brute_sigma2(4)
    assert omega(4) == 35 == brute_omega(4)
    assert d3(8) == 10 == brute_d3(8)


@pytest.mark.parametrize("fn,brute", [
    (sigma0, brute_sigma0), (sigma1, brute_sigma1), (sigma2, brute_sigma2),
    (d3, brute_d3), (omega, brute_omega),
])
def test_divisor_functions_match_brute_force(fn, brute):
    for n in range(1, 200):
        assert fn(n) == brute(n), n


def test_vanishing_convention():
    for fn in (sigma0, sigma1, sigma2, d3, omega):
        assert fn(Fraction(6, 4)) == 0
        assert fn(Fraction(3, 2)) == 0
        assert fn(0) == 0
        assert fn(-4) == 0
        assert fn(Fraction(8, 4)) == fn(2)


def test_multiplicativity_on_random_coprime_pairs():
    rng = random.Random(7)
    for fn in (sigma0, sigma1, sigma2, d3, omega):
        for _ in range(200):
            m, n = rng.randint(1, 400), rng.randint(1, 400)
            if math.gcd(m, n) != 1:
                continue
            assert fn(m * n) == fn(m) * fn(n), (fn.__name__, m, n)


def test_divisors_are_sorted_and_complete():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(49) == [1, 7, 49]


# --- alternating d3 identity -------------------------------------------------

def test_alternating_d3_examples():
    assert odd_factorization_identity_holds(1)
    assert odd_factorization_identity_holds(15)
    assert d3_alternating(15) == d3(15) == 9
    assert d3_alternating(8) == 0
    assert d3_alternating(2) == 0


def test_alternating_d3_counts_odd_factorizations():
    for n in range(1, 400):
        odd_count = sum(1 for a, b, c in brute_triples(n) if a % 2 and b % 2 and c % 2)
        assert d3_alternating(n) == odd_count, n


# --- series machinery ---------------------------------------------------------

def test_convolve_zeta_squared_is_sigma0():
    N = 200
    z = zeta_coeffs(0, N)
    assert convolve(z, z) == [sigma0(n) for n in range(1, N + 1)]


def test_convolution_identity_element():
    N = 64
    f = list(range(1, N + 1))
    delta = zeta_product((), N)
    assert delta == [1] + [0] * (N - 1)
    assert convolve(f, delta) == f
    assert convolve(delta, f) == f
    assert zeta_product((0, 1), 0) == [] == form_values({"f": ((1, 0, (0, 1)),)}, 0)["f"]


def test_convolve_rejects_mismatched_orders():
    with pytest.raises(ValueError):
        convolve(zeta_product((), 4), zeta_product((), 5))


def test_triple_shifted_zeta_at_4():
    # coefficients of zeta(s-1)^3 at n = 4: sum of abc over ordered triples
    series = zeta_product((1, 1, 1), 8)
    assert series[4 - 1] == sum(a * b * c for a, b, c in brute_triples(4)) == 24


def test_zeta_product_of_shifts_0_1_2_gives_omega():
    series = zeta_product((0, 1, 2), 64)
    assert series[4 - 1] == 35
    assert series == [brute_omega(n) for n in range(1, 65)]


def test_convolution_identities_to_ten_thousand():
    # sigma2 = sigma1 * 1, d3 = 1 * 1 * 1, omega = (n^2) * n * 1, with the
    # reference side built by direct divisor-list sieving (no convolution)
    N = 10_000
    sig0 = [0] * (N + 1)
    sig1 = [0] * (N + 1)
    for d in range(1, N + 1):
        for m in range(d, N + 1, d):
            sig0[m] += 1
            sig1[m] += d
    sig2 = [0] * (N + 1)
    dd3 = [0] * (N + 1)
    om = [0] * (N + 1)
    for d in range(1, N + 1):
        s1, s0 = sig1[d], sig0[d]
        for m in range(d, N + 1, d):
            sig2[m] += s1
            dd3[m] += s0
            om[m] += d * s1
    sigma1_series = zeta_product((0, 1), N)
    assert sigma1_series == sig1[1:]
    assert convolve(sigma1_series, zeta_coeffs(0, N)) == sig2[1:]
    assert zeta_product((0, 0, 0), N) == dd3[1:]
    assert zeta_product((2, 1, 0), N) == om[1:]


def convolution_chain(shifts, N):
    """The product of zeta(s - j) as delta convolved with each zeta_coeffs in turn."""
    out = [int(n == 1) for n in range(1, N + 1)]
    for j in shifts:
        out = convolve(out, zeta_coeffs(j, N))
    return out


TABLE_BASES = sorted({base for form in catalog.FORMS.values() for _, _, base in form}
                     | {base for form in GF_TABLE.values() for _, _, base in form})


@pytest.mark.parametrize("shifts", TABLE_BASES, ids=str)
def test_zeta_product_sieve_matches_convolution_on_table_bases(shifts):
    assert zeta_product(shifts, 4096) == convolution_chain(shifts, 4096)


def test_zeta_product_sieve_matches_convolution_on_random_shifts():
    rng = random.Random(10)
    for N in [0, 1, 2, 3] + [rng.randint(4, 300) for _ in range(40)]:
        for _ in range(5):
            shifts = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))
            assert zeta_product(shifts, N) == convolution_chain(shifts, N), (shifts, N)


@pytest.mark.parametrize("shifts", [(), (1, 1, 1)], ids=str)
def test_zeta_product_sieve_matches_convolution_around_prime_squares(shifts):
    # primes p with p^2 > N are read by their cofactors and raise no powers;
    # at N = p^2 - 1, p^2, p^2 + 1 the prime p sits on either side of sqrt(N)
    for p in (2, 3, 5, 7, 11, 13):
        for N in (p * p - 1, p * p, p * p + 1):
            assert zeta_product(shifts, N) == convolution_chain(shifts, N), (shifts, N)


def test_zeta_product_memory():
    # guards peak RSS of `series`: the convolution chain the sieve replaced peaked at 3.6 MB
    tracemalloc.start()
    try:
        zeta_product((0, 1, 2), 24576)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_form_values_identity_and_shift():
    N = 32
    f = zeta_product((1, 1, 1), N)
    vals = form_values({"f": ((1, 0, (1, 1, 1)),), "t f": ((1, 1, (1, 1, 1)),)}, N)
    assert vals["f"] == f
    assert vals["t f"][8 - 1] == f[4 - 1] == 24
    assert vals["t f"][3 - 1] == 0


def test_form_values_alternating_cube_kills_even_indices():
    N = 128
    dd3 = zeta_product((0, 0, 0), N)
    assert dd3 == [brute_d3(n) for n in range(1, N + 1)]
    alt = form_values({"alt": D3_ALTERNATING}, N)["alt"]
    for n in range(1, N + 1):
        assert alt[n - 1] == (d3(n) if n % 2 else 0), n


def test_form_values_evaluates_equal_forms_once_into_separate_lists():
    N = 200
    # the (g2, c) rows of FORMS and GF_TABLE are equal forms with the terms
    # 3 and Fraction(3, 1) in the same place
    forms = {"formula": catalog.FORMS["g2", "c"], "table": GF_TABLE["g2", "c"],
             "int": ((3, 1, SIGMA2), (-1, 2, OMEGA)),
             "fraction": ((Fraction(3, 1), 1, SIGMA2), (-1, 2, OMEGA)),
             "other": ((1, 0, OMEGA),)}
    assert forms["formula"] == forms["table"] and forms["int"] == forms["fraction"]
    vals = form_values(forms, N)
    for key, form in forms.items():
        assert vals[key] == form_values({key: form}, N)[key], key
    for a, b in [("formula", "table"), ("int", "fraction")]:
        assert vals[a] == vals[b] and vals[a] is not vals[b]
        vals[a][0] += 1
        assert vals[b][0] == vals[a][0] - 1
    formulas, tables = catalog.series_tables(64)
    assert sorted(formulas) == sorted(tables) == sorted(catalog._COUNT_KEYS)
    assert len(formulas) + len(tables) == 12


def test_series_tables_drop_each_base_after_its_last_form():
    # the 12 rows read 4 bases through 7 distinct forms; holding every base
    # series and a list per row until the end peaks at 7.1 MB, against 4.2 MB
    tracemalloc.start()
    try:
        catalog.series_tables(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20, peak


def test_form_values_rejects_fractional_rows():
    with pytest.raises(ArithmeticError, match="n=1"):
        form_values({"quarter": ((Fraction(1, 4), 0, ONE),)}, 4)
    assert form_values({"one": ((Fraction(2, 2), 0, ONE),)}, 4)["one"] == [1, 1, 1, 1]


def test_form_values_name_the_least_fractional_n_over_all_levels():
    # (ONE(n/2) + DELTA(n/2)) / 2 is 1 at n = 2, first 1/2 at n = 6 on the level
    # of the n = 2m, m odd, but already at n = 4 on the level of the n = 4m
    form = ((Fraction(1, 2), 1, ONE), (Fraction(1, 2), 1, DELTA))
    assert form_values({"half": form}, 3)["half"] == [0, 1, 0] == [form_value(form, n) for n in (1, 2, 3)]
    for N in (4, 5, 6, 64):
        with pytest.raises(ArithmeticError, match=r"closed form half is fractional at n=4$"):
            form_values({"half": form}, N)
    with pytest.raises(ArithmeticError, match="n=4"):
        form_value(form, 4)
    # a level is checked when any of its bases' weights is fractional, not only the first
    with pytest.raises(ArithmeticError, match="n=1$"):
        form_values({"mixed": ((1, 0, ONE), (Fraction(1, 2), 0, SIGMA0))}, 4)


# Forms for the paths of the odd-part sieve and the fold at 2: bases whose
# shifts differ by a constant share a sieve, unless the shift counts differ
# (n times delta is delta, not zeta(s - 1)); a term whose 2^k exceeds N.
FOLD_FORMS = {
    "n d3 with d3": ((1, 0, N_D3), (-2, 1, D3), (1, 3, N_D3), (3, 0, D3)),
    "(2, 3) with (0, 1)": ((1, 0, (2, 3)), (5, 2, (0, 1)), (-1, 1, (3, 2))),
    "(1,) with delta": ((1, 0, (1,)), (1, 1, DELTA), (2, 0, DELTA)),
    "k past log2 N": ((1, 0, SIGMA0), (7, 13, OMEGA), (1, 40, D3)),
    "delta": ((1, 0, DELTA), (-1, 2, DELTA)),
}
# Every N to 130, and the N at which a 2-adic level or the square of an odd
# prime (the sqrt(N) split of the sieve) comes in or goes out.
FOLD_SIZES = sorted({*range(131), *(2 ** k + d for k in range(13) for d in (-1, 0, 1)),
                     *(p * p + d for p in (3, 5, 7, 11, 13, 17, 19, 23) for d in (-1, 0, 1))})


def test_form_values_match_the_one_n_evaluator_at_every_fold_size():
    forms = {**catalog.FORMS, **{("table", *key): form for key, form in GF_TABLE.items()}, **FOLD_FORMS}
    top = max(FOLD_SIZES)
    reference = {key: [form_value(form, n) for n in range(1, top + 1)] for key, form in forms.items()}
    for N in FOLD_SIZES:
        vals = form_values(forms, N)
        for key in forms:
            assert vals[key] == reference[key][:N], (key, N)
    for key, form in FOLD_FORMS.items():
        assert form_values({key: form}, top)[key] == reference[key], key


def test_published_z3_normal_term_diverges_at_32_and_64(monkeypatch):
    # the erratum of normal_counts: the published form's extra 2 d3(n/32)
    published = catalog.FORMS["g1", "normal"] + ((2, 5, D3),)
    fixed = catalog.normal_arrays(64)["g1", "normal"]
    monkeypatch.setitem(catalog.FORMS, ("g1", "normal"), published)
    wrong = catalog.normal_arrays(64)["g1", "normal"]
    assert wrong == form_values({"published": published}, 64)["published"]
    assert wrong == [form_value(published, n) for n in range(1, 65)]
    diff = {n: (wrong[n - 1], fixed[n - 1]) for n in range(1, 65) if wrong[n - 1] != fixed[n - 1]}
    assert diff == {32: (39, 37), 64: (67, 61)}


# --- tabulated generating functions -------------------------------------------

@pytest.mark.parametrize("key", sorted(GF_TABLE))
def test_gf_rows_agree_with_the_divisor_sum_evaluator(key):
    # both evaluators are Euler products: the odd-part sieve folded at 2
    # (form_values) against the factorisation of each n (form_value); FORMS rows below
    N = 4096
    assert gf_coeffs(*key, N) == [form_value(GF_TABLE[key], n) for n in range(1, N + 1)]


def test_gf_coeffs_rejects_an_empty_truncation():
    with pytest.raises(ValueError, match="truncation order must be >= 1"):
        gf_coeffs("g1", "s", 0)


def test_gf_coeffs_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown series kind 'x'"):
        gf_coeffs("g1", "x", 4)


def test_audited_rows_equal_their_forms_rows_for_every_n():
    # equal terms give equal coefficients at every n, where series compares
    # the rows only up to its --max
    matches = [("g1", "s"), ("g6", "s"), ("g1", "c"), ("g2", "c"), ("g6", "c")]
    for key in matches:
        assert GF_TABLE[key] == catalog.FORMS[key], key
    assert tuple((3 * c, k, base) for c, k, base in GF_TABLE["g2", "s"]) == catalog.FORMS["g2", "s"]
    report = catalog.series_report(64)
    assert [(r["type"], r["kind"]) for r in report["rows"] if r["verdict"] == "match"] == matches
    g2_s, = (r for r in report["rows"] if (r["type"], r["kind"]) == ("g2", "s"))
    assert g2_s["note"] == "tabulated row times 3 matches the subgroup counts"
    assert report["row3_label"]["vs_g6_s"] == "match"


@pytest.mark.parametrize("key", sorted(catalog.FORMS, key=str), ids=str)
def test_forms_rows_agree_with_the_one_n_evaluator(key):
    N = 4096
    form = catalog.FORMS[key]
    assert form_values({key: form}, N)[key] == [form_value(form, n) for n in range(1, N + 1)]


def test_one_n_bases_match_nested_divisor_sums_at_large_n():
    rng = random.Random(8)
    for n in [rng.randint(1, 10 ** 8) for _ in range(50)] + [10 ** 6 * 2 ** 5, 3 ** 8 * 5 ** 4 * 7 ** 2]:
        for base, nested in NESTED_DIVISOR_SUMS.items():
            assert form_value(((1, 0, base),), n) == nested(n), (base, n)


def test_gf_g1_s_is_omega_shifted_twice_dyadically():
    series = gf_coeffs("g1", "s", 64)
    assert series[4 - 1] == 1  # omega(1)
    for n in range(1, 65):
        assert series[n - 1] == omega(Fraction(n, 4)), n


def test_gf_g6_c_vanishes_at_even_indices():
    series = gf_coeffs("g6", "c", 128)
    for n in range(2, 129, 2):
        assert series[n - 1] == 0


def test_gf_g1_c_spot_value():
    assert gf_coeffs("g1", "c", 16)[16 - 1] == 26
