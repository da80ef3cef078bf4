"""Finite-index sublattices of Z^2 and Z^3 in Hermite normal form.

Sublattices are encoded by upper-triangular integer matrices whose *columns*
are the basis vectors:

    2d:  columns (b, 0), (c, a)            with a, b > 0, 0 <= c < b
    3d:  columns (c, 0, 0), (e, b, 0),     with a, b, c > 0,
                 (f, d, a)                      0 <= e, f < c, 0 <= d < b

Each sublattice has exactly one such basis, and the index equals the product
of the diagonal entries.  hnf2_all lists the sigma1(n) index-n sublattices
in 2d; the omega(n) in 3d are hnf2_all(n / c) as the lower block (b, d, a)
under each (c, e, f), which catalog walks as the Z^3-type subgroups.  Tests
pin both counts against brute-force enumeration.  hnf2_of and hnf3_of bring
any spanning set to its form: the G2 class walk reads K = <H, (2,0), (0,2)>
from hnf2_of, and the subgroup keys, of the oracle's tables and of G2
descriptors over (a, b, c), are read from hnf3_of.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .arith import divisors


class Hnf2(NamedTuple):
    """Index-(a*b) sublattice of Z^2 with column basis (b, 0), (c, a)."""

    b: int
    c: int
    a: int

    @property
    def index(self) -> int:
        return self.a * self.b

    def columns(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.b, 0), (self.c, self.a)

    def reduce_coset(self, s: int, t: int) -> tuple[int, int]:
        """Canonical coset representative in [0, b) x [0, a)."""
        j, t2 = divmod(t, self.a)
        return (s - j * self.c) % self.b, t2


class Hnf3(NamedTuple):
    """Index-(a*b*c) sublattice of Z^3, columns (c,0,0), (e,b,0), (f,d,a)."""

    c: int
    e: int
    f: int
    b: int
    d: int
    a: int

    @property
    def index(self) -> int:
        return self.a * self.b * self.c

    def columns(self) -> tuple[tuple[int, int, int], ...]:
        return (self.c, 0, 0), (self.e, self.b, 0), (self.f, self.d, self.a)

    def reduce_coset(self, v: tuple[int, int, int]) -> tuple[int, int, int]:
        """Canonical coset representative in [0, c) x [0, b) x [0, a)."""
        k, r2 = divmod(v[2], self.a)
        j, r1 = divmod(v[1] - k * self.d, self.b)
        return (v[0] - j * self.e - k * self.f) % self.c, r1, r2


def hnf2_all(n: int) -> list[Hnf2]:
    """All index-n sublattices of Z^2, in increasing order; sigma1(n) of them."""
    return [Hnf2(b, c, n // b) for b in divisors(n) for c in range(b)]


def _hnf_columns(cols: Sequence[Sequence[int]], dim: int) -> list[list[int]]:
    """Column-operation Hermite form of a full-rank generating set.

    Accepts any number >= dim of integer column vectors spanning a
    finite-index sublattice; returns dim columns, upper triangular with
    positive diagonal and row-reduced off-diagonal entries.
    """
    work = [list(c) for c in cols]
    # Triangularize from the bottom row up, keeping the pivot in the
    # rightmost surviving column for that row.
    basis: list[list[int]] = []
    for row in range(dim - 1, -1, -1):
        while True:
            nz = [j for j, col in enumerate(work) if col[row] != 0]
            if not nz:
                raise ValueError("generators do not span a finite-index sublattice")
            if len(nz) == 1:
                piv = work.pop(nz[0])
                break
            # Reduce all row entries by the one of smallest magnitude.
            p = min(nz, key=lambda j: abs(work[j][row]))
            for j in nz:
                if j == p:
                    continue
                q = work[j][row] // work[p][row]
                if q:
                    work[j] = [u - q * v for u, v in zip(work[j], work[p])]
        if piv[row] < 0:
            piv = [-u for u in piv]
        basis.append(piv)
    basis.reverse()  # basis[i] has its lowest nonzero entry in row i
    # Reduce entries to the right of each diagonal into [0, diag).
    for i in range(dim - 2, -1, -1):
        for j in range(i + 1, dim):
            q = basis[j][i] // basis[i][i]
            if q:
                basis[j] = [u - q * v for u, v in zip(basis[j], basis[i])]
    return basis


def hnf2_of(generators: Iterable[Sequence[int]]) -> Hnf2:
    """Canonical form of the sublattice of Z^2 spanned by the generators."""
    g1, g2 = _hnf_columns(list(generators), 2)
    return Hnf2(b=g1[0], c=g2[0], a=g2[1])


def hnf3_of(generators: Iterable[Sequence[int]]) -> Hnf3:
    """Canonical form of the sublattice of Z^3 spanned by the generators."""
    g1, g2, g3 = _hnf_columns(list(generators), 3)
    return Hnf3(c=g1[0], e=g2[0], f=g3[0], b=g2[1], d=g3[1], a=g3[2])


def transform2(h: Hnf2, signs: tuple[int, int]) -> Hnf2:
    """Image of the lattice under (u, v) -> (s0*u, s1*v).

    Negating each flipped column back to a positive diagonal leaves only
    c -> s0*s1*c to reduce; transform3 does the same with d, e, f.
    """
    return Hnf2(h.b, signs[0] * signs[1] * h.c % h.b, h.a)


def transform3(h: Hnf3, signs: tuple[int, int, int]) -> Hnf3:
    """Image of the lattice under componentwise sign flips."""
    s0, s1, s2 = signs
    q, d = divmod(s1 * s2 * h.d, h.b)  # third column minus q times the second
    e, f = s0 * s1 * h.e % h.c, s0 * (s2 * h.f - q * s1 * h.e) % h.c
    return Hnf3(h.c, e, f, h.b, d, h.a)
