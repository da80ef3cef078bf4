"""Divisor-sum arithmetic and exact Dirichlet-series coefficients.

All five counting functions follow the vanishing convention: the value is 0
whenever the argument is not a positive integer, so expressions like
``omega(Fraction(n, 4))`` can be written without case splits.

A Dirichlet series sum f(n) n^-s is represented by its first N coefficients,
a plain list indexed n - 1; multiplying series corresponds to Dirichlet
convolution of the coefficient lists, and a power 2^-ks shifts coefficient n
to 2^k n.

A closed form is a tuple of terms (coefficient, k, base), meaning
coefficient * base(n / 2^k); a base is a product of zeta(s - j) named by its
shifts j.  :func:`form_value` evaluates one n, :func:`form_values` all n <= N;
the latter is the one series evaluator, for the closed forms and for the
product forms of :data:`GF_TABLE` alike (:func:`table_form`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Rational = int | Fraction


def _as_positive_int(n: Rational) -> int | None:
    """n as a positive int, or None under the vanishing convention."""
    if isinstance(n, Fraction):
        if n.denominator != 1:
            return None
        n = n.numerator
    if n < 1:
        return None
    return int(n)


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


def sigma0(n: Rational) -> int:
    """Number of ordered factorizations n = a*b (the divisor count)."""
    m = _as_positive_int(n)
    if m is None:
        return 0
    return len(divisors(m))


def sigma1(n: Rational) -> int:
    """Sum of divisors of n."""
    m = _as_positive_int(n)
    if m is None:
        return 0
    return sum(divisors(m))


def sigma2(n: Rational) -> int:
    """sum over a*b = n of sigma1(a), equivalently sum over a*b*c = n of a."""
    m = _as_positive_int(n)
    if m is None:
        return 0
    return sum(sigma1(d) for d in divisors(m))


def d3(n: Rational) -> int:
    """Number of ordered factorizations n = a*b*c."""
    m = _as_positive_int(n)
    if m is None:
        return 0
    return sum(sigma0(d) for d in divisors(m))


def omega(n: Rational) -> int:
    """sum over a*b*c = n of a^2 b, the 3-dimensional sublattice count."""
    m = _as_positive_int(n)
    if m is None:
        return 0
    return sum(d * sigma1(d) for d in divisors(m))


# Bases of the closed forms, by their zeta shifts, and their values at one n.
DELTA, ONE, SIGMA0, D3, SIGMA2 = (), (0,), (0, 0), (0, 0, 0), (0, 0, 1)
OMEGA, N_D3 = (0, 1, 2), (1, 1, 1)
BASES = {DELTA: lambda n: int(n == 1), ONE: lambda n: int(_as_positive_int(n) is not None),
         SIGMA0: sigma0, D3: d3, SIGMA2: sigma2, OMEGA: omega, N_D3: lambda n: n * d3(n)}

# d3(n) - 3 d3(n/2) + 3 d3(n/4) - d3(n/8), the Dirichlet series (1 - 2^-s)^3 zeta^3(s).
D3_ALTERNATING = ((1, 0, D3), (-3, 1, D3), (3, 2, D3), (-1, 3, D3))


def form_value(form: Sequence[tuple], n: Rational) -> int:
    """The closed form at n through the divisor sums; a fractional total raises."""
    val = Fraction(sum(c * BASES[base](Fraction(n, 1 << k)) for c, k, base in form))
    if val.denominator != 1:
        raise ArithmeticError(f"closed form is fractional at n={n}: {val}")
    return val.numerator


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
    """Convolution of zeta(s - shift) factors; empty product is delta."""
    out = [int(n == 1) for n in range(1, N + 1)]
    for sh in shifts:
        out = convolve(out, zeta_coeffs(sh, N))
    return out


def form_values(forms: dict, N: int) -> dict[object, list[int]]:
    """Each closed form at n = 1..N, keyed as in ``forms``.

    One zeta_product series per base serves every form; each form is summed
    in integers over its common denominator, which must divide every total.
    """
    series: dict[tuple, list[int]] = {}
    out = {}
    for key, form in forms.items():
        den = lcm(*(Fraction(c).denominator for c, _, _ in form))
        acc = [0] * (N + 1)
        for c, k, base in form:
            if base not in series:
                series[base] = zeta_product(base, N)
            step, weight = 1 << k, int(c * den)
            acc[step::step] = [a + weight * f for a, f in zip(acc[step::step], series[base])]
        bad = next((n for n in range(1, N + 1) if acc[n] % den), None)
        if bad is not None:
            raise ArithmeticError(f"closed form {key} is fractional at n={bad}")
        out[key] = [v // den for v in acc[1:]]
    return out


# ---------------------------------------------------------------------------
# Reference table of Dirichlet generating functions for the six counting
# sequences, in product form: each row is a sum of terms
# (polynomial in t = 2^-s, zeta shifts).  table_form turns a row into
# closed-form terms, so form_values evaluates it like any row of FORMS.
#
# Two rows are deliberately kept exactly as tabulated in the source so that
# series_report can audit them instead of silently repairing them:
#   * ("g2", "s") lacks an overall factor 3 relative to the closed-form
#     subgroup counts (first divergence at n = 2);
#   * ("g6", "s") is the shape that the source tabulates under a "g1" row
#     label; the audit confirms it matches the g6 subgroup sequence.
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
