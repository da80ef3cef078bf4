"""Divisor-sum arithmetic and exact Dirichlet-series coefficients.

All five counting functions follow the vanishing convention: the value is 0
whenever the argument is not a positive integer, so expressions like
``omega(Fraction(n, 4))`` can be written without case splits.

A Dirichlet series sum f(n) n^-s is represented by its first N coefficients
(:class:`CoeffSeries`); multiplying series corresponds to Dirichlet
convolution of the coefficient vectors.  Powers of 2^-s act by the dyadic
coefficient shift n -> n/2 (:func:`apply_poly`), which is how the product
forms in :data:`GF_TABLE` are evaluated.

A closed form is a tuple of terms (coefficient, k, base), meaning
coefficient * base(n / 2^k); a base is a product of zeta(s - j) named by its
shifts j.  :func:`form_value` evaluates one n, :func:`form_values` all n <= N.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

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


def odd_factorization_identity_holds(n: int) -> bool:
    """Check d3_alternating(n) == (d3(n) if n odd else 0)."""
    expected = d3(n) if n % 2 else 0
    return d3_alternating(n) == expected


class CoeffSeries(NamedTuple):
    """Coefficients a_1..a_N of a Dirichlet series, exact and 1-indexed."""

    coeffs: tuple

    @property
    def n_max(self) -> int:
        return len(self.coeffs)

    def at(self, n: int):
        if not 1 <= n <= self.n_max:
            raise IndexError(f"coefficient index {n} outside 1..{self.n_max}")
        return self.coeffs[n - 1]

    def to_csv_rows(self) -> list[tuple[int, int]]:
        return [(n, self.coeffs[n - 1]) for n in range(1, self.n_max + 1)]

    def to_json(self) -> list:
        return list(self.coeffs)


def delta_series(N: int) -> CoeffSeries:
    """Convolution identity (1, 0, 0, ...)."""
    return CoeffSeries((1,) + (0,) * (N - 1))


def zeta_coeffs(shift: int, N: int) -> CoeffSeries:
    """Coefficients n^shift, i.e. zeta(s - shift)."""
    return CoeffSeries(tuple(n ** shift for n in range(1, N + 1)))


def convolve(f: CoeffSeries, g: CoeffSeries) -> CoeffSeries:
    """Dirichlet convolution (f*g)(n) = sum over d | n of f(d) g(n/d)."""
    if f.n_max != g.n_max:
        raise ValueError(f"truncation orders differ: {f.n_max} != {g.n_max}")
    N = f.n_max
    fa, ga = f.coeffs, g.coeffs
    out = [0] * (N + 1)
    for a in range(1, N + 1):
        va = fa[a - 1]
        if va == 0:
            continue
        for m in range(a, N + 1, a):
            out[m] += va * ga[m // a - 1]
    return CoeffSeries(tuple(out[1:]))


def zeta_product(shifts: Sequence[int], N: int) -> CoeffSeries:
    """Convolution of zeta(s - shift) factors; empty product is delta."""
    out = delta_series(N)
    for sh in shifts:
        out = convolve(out, zeta_coeffs(sh, N))
    return out


def form_values(forms: dict, N: int) -> dict[object, list[int]]:
    """Each closed form at n = 1..N, keyed as in ``forms``.

    One zeta_product series per base serves every form; each form is summed
    in integers over its common denominator, which must divide every total.
    """
    series: dict[tuple, tuple] = {}
    out = {}
    for key, form in forms.items():
        den = lcm(*(Fraction(c).denominator for c, _, _ in form))
        acc = [0] * (N + 1)
        for c, k, base in form:
            if base not in series:
                series[base] = zeta_product(base, N).coeffs
            step, weight = 1 << k, int(c * den)
            acc[step::step] = [a + weight * f for a, f in zip(acc[step::step], series[base])]
        bad = next((n for n in range(1, N + 1) if acc[n] % den), None)
        if bad is not None:
            raise ArithmeticError(f"closed form {key} is fractional at n={bad}")
        out[key] = [v // den for v in acc[1:]]
    return out


def apply_poly(poly: Sequence[Rational], f: CoeffSeries) -> CoeffSeries:
    """Apply a polynomial in t = 2^-s:  result(n) = sum_k p_k f(n / 2^k).

    Terms with 2^k not dividing n vanish.  Coefficients may be exact
    Fractions; use :func:`integerized` once a full row is assembled.
    """
    N = f.n_max
    out = [0] * N
    for k, p in enumerate(poly):
        if p == 0:
            continue
        step = 1 << k
        for m in range(step, N + 1, step):
            out[m - 1] += p * f.at(m // step)
    return CoeffSeries(tuple(out))


def add_series(f: CoeffSeries, g: CoeffSeries) -> CoeffSeries:
    if f.n_max != g.n_max:
        raise ValueError(f"truncation orders differ: {f.n_max} != {g.n_max}")
    return CoeffSeries(tuple(a + b for a, b in zip(f.coeffs, g.coeffs)))


def integerized(f: CoeffSeries) -> CoeffSeries:
    """Cast exact rational coefficients to int, failing loudly otherwise.

    A fractional coefficient in an assembled row signals a misread
    generating function, never a rounding issue.
    """
    out = []
    for i, v in enumerate(f.coeffs):
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise ValueError(f"non-integer coefficient {v} at n={i + 1}")
            v = v.numerator
        out.append(int(v))
    return CoeffSeries(tuple(out))


# ---------------------------------------------------------------------------
# Reference table of Dirichlet generating functions for the six counting
# sequences, in product form: each row is a sum of terms
# (polynomial in t = 2^-s, zeta shifts), evaluated by gf_coeffs.
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


def gf_coeffs(iso: str, kind: str, N: int) -> CoeffSeries:
    """First N coefficients of the tabulated generating function row."""
    if N < 1:
        raise ValueError("truncation order must be >= 1")
    terms = GF_TABLE[iso, kind]
    out = CoeffSeries((0,) * N)
    for poly, shifts in terms:
        out = add_series(out, apply_poly(poly, zeta_product(shifts, N)))
    return integerized(out)
