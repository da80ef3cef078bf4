"""Euler products: exact Dirichlet-series coefficients, for all n <= N or one n.

A base, the product of zeta(s - j) over its shifts j, is multiplicative: at
p^e it is the local factor h_e(p^j, ...), the complete homogeneous symmetric
polynomial (Bell series; Apostol, *Introduction to Analytic Number Theory*, ch. 2).
A closed form is a tuple of terms (c, k, base), c * base(n / 2^k), 0 off the
positive integers: its polynomial in 2^-s acts at the prime 2 alone.
:func:`form_value` reads a form at one factored n, the odd part once and the
local factor at 2 per term.  :func:`form_values` is its array form for all
n <= N, which reads FORMS and GF_TABLE alike: each base is sieved at the odd
m <= N only, and each form folds into one weight per base on each 2-adic
level n = 2^e m (Crandall and Pomerance, *Prime Numbers*, 3.2).
:func:`zeta_product` is one base read through it; the generic Dirichlet
product :func:`convolve` is the tests' witness.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from math import isqrt, lcm, prod
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
    """Coefficients 1..N of the product of zeta(s - j), j in shifts; () is delta."""
    return form_values({"base": ((1, 0, tuple(shifts)),)}, N)["base"]


def _odd_primes(N: int) -> list[int]:
    """The odd primes <= N, from a sieve over the odd numbers only."""
    odd = bytearray([1]) * ((N + 1) // 2)  # index i stands for 2i + 1
    for i in range(1, (isqrt(N) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = bytes(len(range(p * p // 2, len(odd), p)))
    return list(compress(range(3, N + 1, 2), odd[1:]))


def _odd_sieve(shifts: tuple, N: int, primes: list[int]) -> list[int]:
    """The base at the odd m <= N, indexed (m - 1) / 2: a prime-power sieve without p = 2.

    A prime p <= sqrt(N) multiplies its odd multiples m = p (2s + 1), at index
    p // 2 + p s, by h_1, then those of each p^e by h_e / h_(e-1), exactly
    over the h_(e-1) already there (h is 0 past h_0 only for delta, whose
    multiples of p are already 0).  A larger prime p divides each of its odd
    multiples p r once, with r < p, so it is read by its cofactor r: each odd
    r writes h_1 at the p r <= N.
    """
    out = [1] * ((N + 1) // 2)
    small = bisect_right(primes, isqrt(N))
    for p in primes[:small]:
        E = 1
        while p ** (E + 1) <= N:
            E += 1
        h, pe = local_factors(shifts, p, E), p
        out[p // 2::p] = [v * h[1] for v in out[p // 2::p]]
        for e in range(2, E + 1):
            pe *= p
            if h[e - 1]:
                out[pe // 2::pe] = [v // h[e - 1] * h[e] for v in out[pe // 2::pe]]
    large, top = primes[small:], max(shifts, default=0)
    h1 = [shifts.count(top)] * len(large)  # the sum of the p^j, by Horner's rule
    for j in range(top - 1, -1, -1):
        c = shifts.count(j)
        h1 = [x * p + c for x, p in zip(h1, large)]
    for r in range(1, N // (isqrt(N) + 1) + 1, 2):
        for p, h in zip(large[:bisect_right(large, N // r)], h1):
            out[p * r // 2] *= h
    return out


def form_values(forms: dict, N: int) -> dict[object, list[int]]:
    """Each closed form at n = 1..N, keyed as in ``forms``; equal forms share one evaluation.

    The array form of :func:`form_value`.  Each base is sieved at the odd m
    only; a base whose shifts are all t more than another's is m^t times it,
    so one sieve serves both.  At n = 2^e m, m odd, a term (c, k, base) is
    c h(2)[e - k] base(m), so a form is sum over its bases of A[e] base(m):
    level e, the n = 2^e m, is written in one pass per base.  The A[e] are
    integers over the form's common denominator, which must divide every
    total; it is checked per n only at the levels where it does not divide
    every A[e].  Each odd array is dropped once the last distinct form that
    reads it is summed, and every key gets its own list.
    """
    N = max(N, 0)
    first_key = {}
    for key, form in forms.items():
        first_key.setdefault(form, key)
    last_key = {}
    for form, key in first_key.items():
        for _, _, base in form:
            last_key[base] = last_key[_unshifted(base)] = key
    primes = _odd_primes(N)
    odd, values, out = {}, {}, {}
    for key, form in forms.items():
        if form in values:
            out[key] = values[form][:]
            continue
        for _, _, base in form:
            if base not in odd:
                root, t = _unshifted(base), min(base, default=0)
                if root not in odd:
                    odd[root] = _odd_sieve(root, N, primes)
                odd[base] = odd[root] if t == 0 else [
                    v * m ** t for v, m in zip(odd[root], range(1, N + 1, 2))]
        out[key] = values[form] = _fold(key, form, odd, N)
        for _, _, base in form:
            for read in (base, _unshifted(base)):
                if last_key[read] == key:
                    odd.pop(read, None)
    return out


def _unshifted(base: tuple) -> tuple:
    """The base's shifts less their least one, sorted: the sieve it is a power of m times."""
    t = min(base, default=0)
    return tuple(sorted(j - t for j in base))


def _fold(key: object, form: tuple, odd: dict, N: int) -> list[int]:
    """The form at n = 1..N from its bases' odd arrays, one 2-adic level at a time."""
    den = lcm(*(Fraction(c).denominator for c, _, _ in form))
    bases = list(dict.fromkeys(base for _, _, base in form))
    two = {b: local_factors(b, 2, N.bit_length() - 1) for b in bases}
    acc, bad = [0] * N, []
    for e in range(N.bit_length()):
        weights = [(b, sum(int(c * den) * two[b][e - k] for c, k, base in form if base == b and k <= e))
                   for b in bases]
        weights = [(b, a) for b, a in weights if a]
        if not weights:
            continue
        exact = all(a % den == 0 for _, a in weights)
        if exact:
            weights = [(b, a // den) for b, a in weights]
        size = ((N >> e) + 1) // 2
        (b, a), *rest = weights
        level = odd[b][:size] if a == 1 else [a * v for v in odd[b][:size]]
        for b, a in rest:
            level = [u + a * v for u, v in zip(level, odd[b])]
        if not exact:
            i = next((i for i, v in enumerate(level) if v % den), None)
            if i is not None:
                bad.append((2 * i + 1) << e)
            level = [v // den for v in level]
        acc[(1 << e) - 1::2 << e] = level
    if bad:
        raise ArithmeticError(f"closed form {key} is fractional at n={min(bad)}")
    return acc


# ---------------------------------------------------------------------------
# Reference generating functions of the six counting sequences in FORMS'
# terms (c, k, base).  Each row is written out term by term from the
# tabulated formula in its comment, apart from FORMS, so that series_report
# compares two transcriptions; two rows are kept exactly as the source
# tabulates them, so that the audit flags, not repairs, them:
#   * ("g2", "s") lacks a factor 3 (first divergence at n = 2);
#   * ("g6", "s") is tabulated under a "g1" label but is the g6 subgroup sequence.
# ---------------------------------------------------------------------------

F = Fraction

GF_TABLE: dict[tuple[str, str], tuple] = {
    # 4^-s zeta(s) zeta(s-1) zeta(s-2)
    ("g1", "s"): ((1, 2, OMEGA),),
    # 2^-s (1 - 2^-s) zeta(s) zeta(s-1) zeta(s-2)   [as tabulated; audit flags x3]
    ("g2", "s"): ((1, 1, OMEGA), (-1, 2, OMEGA)),
    # (1 - 2^(-s+1))^3 zeta^3(s-1)                  [tabulated under the wrong label]
    ("g6", "s"): ((1, 0, N_D3), (-6, 1, N_D3), (12, 2, N_D3), (-8, 3, N_D3)),
    # 4^(-s-1) ( zeta(s) zeta(s-1) zeta(s-2) + (3 + 9 . 2^-s) zeta^2(s) zeta(s-1) )
    ("g1", "c"): ((F(1, 4), 2, OMEGA), (F(3, 4), 2, SIGMA2), (F(9, 4), 3, SIGMA2)),
    # 3/2 ( (2^-s + 2 . 4^-s - 3 . 8^-s) zeta^2(s) zeta(s-1)
    #       + (2^-s - 4^-s - 3 . 8^-s + 5 . 16^-s - 2 . 32^-s) zeta^3(s) )
    ("g2", "c"): ((F(3, 2), 1, SIGMA2), (3, 2, SIGMA2), (F(-9, 2), 3, SIGMA2),
                  (F(3, 2), 1, D3), (F(-3, 2), 2, D3), (F(-9, 2), 3, D3), (F(15, 2), 4, D3),
                  (-3, 5, D3)),
    # (1 - 2^-s)^3 zeta^3(s)
    ("g6", "c"): ((1, 0, D3), (-3, 1, D3), (3, 2, D3), (-1, 3, D3)),
}


def gf_coeffs(iso: str, kind: str, N: int) -> list[int]:
    """First N coefficients of the tabulated generating function row."""
    if N < 1:
        raise ValueError("truncation order must be >= 1")
    if (iso, kind) not in GF_TABLE:
        raise ValueError(f"unknown series kind {kind!r}" if kind not in ("s", "c")
                         else f"unknown isomorphism type {iso!r}")
    return form_values({"row": GF_TABLE[iso, kind]}, N)["row"]
