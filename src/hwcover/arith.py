"""Divisor-sum arithmetic and exact Dirichlet-series coefficients.

All five counting functions follow the vanishing convention: the value is 0
whenever the argument is not a positive integer, so expressions like
``omega(Fraction(n, 4))`` can be written without case splits.

A Dirichlet series sum f(n) n^-s is represented by its first N coefficients
(:class:`CoeffSeries`); multiplying series corresponds to Dirichlet
convolution of the coefficient vectors.  Powers of 2^-s act by the dyadic
coefficient shift n -> n/2 (:func:`apply_poly`), which is how the product
forms in :data:`GF_TABLE` are evaluated.
"""

from __future__ import annotations

from fractions import Fraction
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


def d3_alternating(n: Rational) -> int:
    """d3(n) - 3 d3(n/2) + 3 d3(n/4) - d3(n/8).

    Counts the ordered factorizations n = a*b*c with all three factors odd,
    so it equals d3(n) for odd n and 0 for even n.
    """
    m = _as_positive_int(n)
    if m is None:
        return 0
    return (
        d3(m) - 3 * d3(Fraction(m, 2)) + 3 * d3(Fraction(m, 4)) - d3(Fraction(m, 8))
    )


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
