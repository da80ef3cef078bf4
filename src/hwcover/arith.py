"""Euler products: exact Dirichlet-series coefficients, for all n <= N or one n.

A base, the product of zeta(s - j) over its shifts j, is multiplicative: at
p^e it is the local factor h_e(p^j, ...), the complete homogeneous symmetric
polynomial (Bell series; Apostol, *Introduction to Analytic Number Theory*, ch. 2).
:func:`zeta_product` sieves it for n <= N and :func:`form_value` reads it at
one factored n; the generic Dirichlet product :func:`convolve` is the tests'
witness.  A closed form is a tuple of terms (c, k, base), c * base(n / 2^k),
0 off the positive integers; :func:`form_values` evaluates FORMS and GF_TABLE.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence

Rational = int | Fraction

# Bases of the closed forms, by their zeta shifts.
DELTA, ONE, SIGMA0, D3, SIGMA2 = (), (0,), (0, 0), (0, 0, 0), (0, 0, 1)
OMEGA, N_D3 = (0, 1, 2), (1, 1, 1)
# d3(n) - 3 d3(n/2) + 3 d3(n/4) - d3(n/8), the Dirichlet series (1 - 2^-s)^3 zeta^3(s).
D3_ALTERNATING = ((1, 0, D3), (-3, 1, D3), (3, 2, D3), (-1, 3, D3))


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def local_factors(shifts: Sequence[int], p: int, E: int) -> list[int]:
    """h_0..h_E of the p^j, j in shifts: the base's coefficients at 1, p, ..., p^E."""
    h = [1] + [0] * E
    for j in shifts:  # times 1 / (1 - p^j x): a prefix sum weighted by p^j
        q = p ** j
        for e in range(1, E + 1):
            h[e] += q * h[e - 1]
    return h


def form_value(form: Sequence[tuple], n: Rational) -> int:
    """The closed form at n from its Euler products; a fractional total raises.

    n is factored once; each base's odd-prime factor serves all its terms, and
    each term (c, k, base) takes the 2-adic local factor at e2 - k.
    """
    if Fraction(n).denominator != 1 or n < 1:
        return 0
    m = int(n)
    e2 = (m & -m).bit_length() - 1
    m, odd, p = m >> e2, {}, 3
    while p * p <= m:
        while m % p == 0:
            odd[p], m = odd.get(p, 0) + 1, m // p
        p += 2
    if m > 1:
        odd[m] = 1
    two = {b: local_factors(b, 2, e2) for b in {base for _, _, base in form}}
    odd_part = {b: prod(local_factors(b, p, e)[e] for p, e in odd.items()) for b in two}
    val = Fraction(sum(c * odd_part[b] * two[b][e2 - k] for c, k, b in form if k <= e2))
    if val.denominator != 1:
        raise ArithmeticError(f"closed form is fractional at n={n}: {val}")
    return val.numerator


def sigma0(n: Rational) -> int:
    """Number of ordered factorizations n = a*b (the divisor count)."""
    return form_value(((1, 0, SIGMA0),), n)


def sigma1(n: Rational) -> int:
    """Sum of divisors of n."""
    return form_value(((1, 0, (0, 1)),), n)


def sigma2(n: Rational) -> int:
    """sum over a*b = n of sigma1(a), equivalently sum over a*b*c = n of a."""
    return form_value(((1, 0, SIGMA2),), n)


def d3(n: Rational) -> int:
    """Number of ordered factorizations n = a*b*c."""
    return form_value(((1, 0, D3),), n)


def omega(n: Rational) -> int:
    """sum over a*b*c = n of a^2 b, the 3-dimensional sublattice count."""
    return form_value(((1, 0, OMEGA),), n)


def d3_alternating(n: Rational) -> int:
    """Ordered factorizations n = a*b*c into odd factors: d3(n) for odd n, else 0."""
    return form_value(D3_ALTERNATING, n)


def zeta_coeffs(shift: int, N: int) -> list[int]:
    """Coefficients n^shift, i.e. zeta(s - shift)."""
    return [n ** shift for n in range(1, N + 1)]


def convolve(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Dirichlet convolution (f*g)(n) = sum over d | n of f(d) g(n/d)."""
    if len(f) != len(g):
        raise ValueError(f"truncation orders differ: {len(f)} != {len(g)}")
    out = [0] * (len(f) + 1)
    for a, fa in enumerate(f, 1):
        if fa:
            out[a::a] = [v + fa * gv for v, gv in zip(out[a::a], g)]
    return out[1:]


def zeta_product(shifts: Sequence[int], N: int) -> list[int]:
    """Coefficients 1..N of the product of zeta(s - j), j in shifts; () is delta.

    A prime-power sieve: each p^e <= N multiplies by h_e the n it divides exactly.
    A prime p with p^2 > N divides each of its multiples once, so they take h_1,
    the sum of the p^j, and need no marking: every composite <= N has a prime
    factor <= sqrt(N).
    """
    out, composite = [1] * (N + 1), bytearray(N + 1)
    for p in range(2, N + 1):
        if composite[p]:
            continue
        if p * p > N:
            h1 = sum(p ** j for j in shifts)
            out[p::p] = [v * h1 for v in out[p::p]]
            continue
        composite[p * p::p] = b"\1" * len(range(p * p, N + 1, p))
        E = 1
        while p ** (E + 1) <= N:
            E += 1
        h, pe = local_factors(shifts, p, E), p
        for e in range(1, E):  # the n = p^e (r + p t) for r = 1 .. p - 1
            for r in range(pe, pe * p, pe):
                out[r::pe * p] = [v * h[e] for v in out[r::pe * p]]
            pe *= p
        out[pe::pe] = [v * h[E] for v in out[pe::pe]]  # no multiple of p^(E+1) is <= N
    return out[1:]


def form_values(forms: dict, N: int) -> dict[object, list[int]]:
    """Each closed form at n = 1..N, keyed as in ``forms``; equal forms share one evaluation.

    One zeta_product series per base serves every form, and is dropped once
    the last distinct form that reads it is summed; each distinct form is
    summed once, in integers over its common denominator, which must divide
    every total.  Every key gets its own list.
    """
    first_key = {}
    for key, form in forms.items():
        first_key.setdefault(form, key)
    last_key = {base: key for form, key in first_key.items() for _, _, base in form}
    series, values, out = {}, {}, {}
    for key, form in forms.items():
        if form in values:
            out[key] = values[form][:]
            continue
        den = lcm(*(Fraction(c).denominator for c, _, _ in form))
        acc = [0] * (N + 1)
        for c, k, base in form:
            if base not in series:
                series[base] = zeta_product(base, N)
            step, weight = 1 << k, int(c * den)
            acc[step::step] = [a + weight * f for a, f in zip(acc[step::step], series[base])]
        if den != 1:
            bad = next((n for n in range(1, N + 1) if acc[n] % den), None)
            if bad is not None:
                raise ArithmeticError(f"closed form {key} is fractional at n={bad}")
            acc = [v // den for v in acc]
        out[key] = values[form] = acc[1:]
        for _, _, base in form:
            if last_key[base] == key:
                series.pop(base, None)
    return out


# ---------------------------------------------------------------------------
# Reference generating functions of the six counting sequences in product
# form: each row is a sum of terms (polynomial in t = 2^-s, zeta shifts),
# which table_form reads as closed-form terms.  Two rows are kept exactly as
# the source tabulates them, so that series_report audits, not repairs, them:
#   * ("g2", "s") lacks a factor 3 (first divergence at n = 2);
#   * ("g6", "s") is tabulated under a "g1" label but is the g6 subgroup sequence.
# ---------------------------------------------------------------------------

F = Fraction

GF_TABLE: dict[tuple[str, str], list[tuple[list, tuple[int, ...]]]] = {
    # 4^-s zeta(s) zeta(s-1) zeta(s-2)
    ("g1", "s"): [([0, 0, 1], (0, 1, 2))],
    # 2^-s (1 - 2^-s) zeta(s) zeta(s-1) zeta(s-2)   [as tabulated; audit flags x3]
    ("g2", "s"): [([0, 1, -1], (0, 1, 2))],
    # (1 - 2^(-s+1))^3 zeta^3(s-1)                  [tabulated under the wrong label]
    ("g6", "s"): [([1, -6, 12, -8], (1, 1, 1))],
    # 4^(-s-1) ( zeta(s) zeta(s-1) zeta(s-2) + (3 + 9 . 2^-s) zeta^2(s) zeta(s-1) )
    ("g1", "c"): [
        ([0, 0, F(1, 4)], (0, 1, 2)),
        ([0, 0, F(3, 4), F(9, 4)], (0, 0, 1)),
    ],
    # 3/2 ( (2^-s + 2 . 4^-s - 3 . 8^-s) zeta^2(s) zeta(s-1)
    #       + (2^-s - 4^-s - 3 . 8^-s + 5 . 16^-s - 2 . 32^-s) zeta^3(s) )
    ("g2", "c"): [
        ([0, F(3, 2), 3, F(-9, 2)], (0, 0, 1)),
        ([0, F(3, 2), F(-3, 2), F(-9, 2), F(15, 2), -3], (0, 0, 0)),
    ],
    # (1 - 2^-s)^3 zeta^3(s)
    ("g6", "c"): [([1, -3, 3, -1], (0, 0, 0))],
}


def table_form(iso: str, kind: str) -> tuple:
    """The GF_TABLE row as closed-form terms: poly[k] 2^-ks zeta-product is (poly[k], k, shifts)."""
    if (iso, kind) not in GF_TABLE:
        raise ValueError(f"unknown series kind {kind!r}" if kind not in ("s", "c")
                         else f"unknown isomorphism type {iso!r}")
    return tuple((c, k, shifts) for poly, shifts in GF_TABLE[iso, kind]
                 for k, c in enumerate(poly) if c)


def gf_coeffs(iso: str, kind: str, N: int) -> list[int]:
    """First N coefficients of the tabulated generating function row."""
    if N < 1:
        raise ValueError("truncation order must be >= 1")
    return form_values({"row": table_form(iso, kind)}, N)["row"]
