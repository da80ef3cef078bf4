"""Constructive enumeration of the finite-index subgroups of the HW group.

Every finite-index subgroup is isomorphic to exactly one of Z^3, the dicosm
group G2, or the Hantzsche-Wendt group itself, according to the size of its
image in the Klein four-group quotient.  Each type has an exact parameter
description, realized here by three descriptor records:

* :class:`Z3Descriptor` -- a sublattice of the translation subgroup
  Lambda = <x^2, y^2, z^2>, stored as an Hnf3 in half-exponent coordinates.
* :class:`G2Descriptor` -- a subgroup of one of the three index-2 subgroups
  Gamma_x = <x, y^2, z^2>, Gamma_y, Gamma_z.  Stored as (axis, k, H, (s, t)):
  k is the odd exponent of the distinguished generator axis^k * h, H is the
  plane sublattice (intersection with the two complementary squared
  generators), and (s, t) is the coset representative of h, reduced to the
  canonical transversal [0, H.b) x [0, H.a).
* :class:`G6Descriptor` -- a subgroup isomorphic to the whole group, given
  by six parameters (k, l, m, u, v, w) with k, l, m odd, 0 <= u < l,
  0 <= v < m, 0 <= w < k.

Lambda is normal of index 4, so every one of these subgroups H is R T, with
T = H meet Lambda and R one element of H per letter of H.  ``cosets`` reads
(T, R) off a descriptor, and it is the only description of H per type.  Its
readers have no branch per type: ``generators`` (the columns of T past the
squares of R, then R), ``abc_cosets`` (T over the half-exponents (a, b, c) in
Hermite normal form, and R: the oracle's subgroup key), ``coset_labels`` (the
O(1) label of a coset gH, which the oracle's bridge uses, and the index 4
[Lambda : T] / |R|), ``contains`` (g has the label of H) and ``index_of``.

Each type's parametrisation is one block walk, ``iter_blocks``: in
canonical order, the parameters fixed within a block and the cells that
vary in it.  A Z^3 block (c, e, f) has the cells (b, d, a), the 2-D Hermite
forms of index n/4c that complete it to the lattice (c, e, f, b, d, a); a G2
plane (axis, k, H) has the cells (s, t), a G6 box (k, l, m) the cells
(u, v, w).  ``iter_iso`` reads the descriptors of one type off the blocks and
holds one at a time; the ``enumerate`` command formats its CSV lines from the
blocks and builds no descriptor.  ``enumerate_z3``, ``enumerate_g2``,
``enumerate_g6``, ``enumerate_iso`` and ``enumerate_index`` are the same
descriptors as lists, for callers that index, sample or take the length of
them.

Conjugation of descriptors is computed exactly by closed-form affine maps on
the parameters; these formulas are the implementation.  The group arithmetic
is their independent witness in the test suite, which conjugates generators
and checks that they land in the computed image of the same index.

Conjugacy classes have one enumerator, ``iter_classes``: it yields
(representative, size) per class, type by type, in the order of the least
members, which are the representatives.  It finds each class from its
representative and keeps nothing between classes, so it never lists the
subgroups.  The ``classes`` command and ``class_count`` read it.
``conjugacy_classes`` is the generic orbit closure over a set of
descriptors; the test suite compares the two, and ``classes`` reads the
members of a class from the closure of its representative.  Every class walk
takes one step, ``_images``: a descriptor and its conjugates by x, y and z.
The Z^3 walk reads a class as one such step, the G2 walk labels its classes
by cosets of K = <H, (2,0), (0,2)>, which ``lattice.hnf2_of`` computes once
for each parity of H's entries, and the closure repeats the step until the orbit stops growing.

Every closed form is one row of :data:`FORMS`, and every count is read from
its row alone.  ``count_s`` (subgroups), ``count_c`` (conjugacy classes =
equivalence classes of coverings) and ``normal_counts`` (normal subgroups)
read one n; ``count_arrays`` and ``normal_arrays`` every n <= N.  The
enumeration and classing machinery reproduces the subgroup and class counts
constructively; ``verify`` compares them with the closed forms and with a
brute-force coset-table search.  No other production path computes a count
twice: the enumeration filters that recount the normal subgroups and the
class-size splits are witnesses in the test suite.
"""

from __future__ import annotations

import reprlib
import sys
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, product, starmap
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import arith
from .arith import (D3, D3_ALTERNATING, DELTA, OMEGA, ONE, SIGMA0, SIGMA2, divisors,
                    form_value)
from .group import E, GEN_X, GEN_Y, GEN_Z, IDENTITY, LETTER_TIMES, LETTERS, SIGNS, Element
from .lattice import Hnf2, Hnf3, hnf2_all, hnf2_of, hnf3_of, transform2, transform3

ISO_TYPES = ("g1", "g2", "g6")
AXES = ("x", "y", "z")

# Half-exponent coordinate of each axis, and the cyclically-complementary
# plane coordinates: axis x pairs with (y, z), axis y with (z, x), axis z
# with (x, y).  The cyclic choice transports the x-axis conventions to the
# other two axes along the outer automorphism permuting the generators.
_AXIS_POS = {"x": 0, "y": 1, "z": 2}
_PLANE_POS = {"x": (1, 2), "y": (2, 0), "z": (0, 1)}


class Z3Descriptor(NamedTuple):
    lattice: Hnf3


class G2Descriptor(NamedTuple):
    axis: str
    k: int
    lattice: Hnf2
    s: int
    t: int


class G6Descriptor(NamedTuple):
    k: int
    l: int
    m: int
    u: int
    v: int
    w: int


Descriptor = Z3Descriptor | G2Descriptor | G6Descriptor


_ISO_OF = {Z3Descriptor: "g1", G2Descriptor: "g2", G6Descriptor: "g6"}


def iso_of(d: Descriptor) -> str:
    """Isomorphism type of the subgroup (g1 = Z^3 covering a torus)."""
    return _ISO_OF[type(d)]


def sort_key(d: Descriptor) -> tuple:
    """Canonical total order: z3 block, then g2, then g6, lexicographic inside."""
    return (ISO_TYPES.index(iso_of(d)), d)


# ---------------------------------------------------------------------------
# Closed-form counts
# ---------------------------------------------------------------------------

def _scaled(c: Fraction, form: tuple, k: int = 0) -> tuple:
    """c times the form evaluated at n / 2^k."""
    return tuple((c * a, j + k, base) for a, j, base in form)


def _times_n(form: tuple) -> tuple:
    """n times the form: n f(n/2^k) = 2^k (m f(m)) at m = n/2^k, shifting each zeta by 1."""
    return tuple((a * 2 ** k, k, tuple(j + 1 for j in base)) for a, k, base in form)


# The closed forms, as terms (coefficient, k, base) of arith.form_value.  The
# (type, kind) rows are the counts: kind "s" subgroups, "c" classes, "normal" normal subgroups.
FORMS: dict[object, tuple] = {
    ("g1", "s"): ((1, 2, OMEGA),),
    ("g2", "s"): ((3, 1, OMEGA), (-3, 2, OMEGA)),
    ("g6", "s"): _times_n(D3_ALTERNATING),
    ("g6", "c"): D3_ALTERNATING,
    # Index-n sublattices of Z^2 / Z^3 fixed by one coordinate sign flip.
    "flip_fixed_2d": ((1, 0, SIGMA0), (1, 1, SIGMA0)),
    "flip_fixed_3d": ((1, 0, SIGMA2), (3, 1, SIGMA2)),
    # Normal subgroups (see normal_counts for the erratum of the g1 row): g2
    # has 3 at n = 2 mod 4 and 6 at n = 4 mod 8, g6 only the whole group.
    ("g1", "normal"): ((1, 2, D3), (4, 3, D3), (1, 4, D3)),
    ("g2", "normal"): ((3, 1, ONE), (3, 2, ONE), (-6, 3, ONE)),
    ("g6", "normal"): ((1, 0, DELTA),),
    # Axis-x partial classes of G2-type subgroups: fixed by conjugation by y, and all.
    "g2_partial_fixed": ((1, 1, D3), (-1, 2, D3), (-3, 3, D3), (5, 4, D3), (-2, 5, D3)),
    "g2_partial_total": ((1, 1, SIGMA2), (2, 2, SIGMA2), (-3, 3, SIGMA2)),
}
# Z^3-type subgroups fixed by one generator: index-n/4 lattices fixed by a sign flip.
FORMS["z3_axis_fixed"] = _scaled(1, FORMS["flip_fixed_3d"], 2)
# Burnside over the Klein four-group {1, x, y, z}: (all + 3 * fixed by one) / 4.
FORMS["g1", "c"] = (_scaled(Fraction(1, 4), FORMS["g1", "s"])
                    + _scaled(Fraction(3, 4), FORMS["z3_axis_fixed"]))
# Three axes, each with fixed + swapped / 2 = (total + fixed) / 2 classes.
FORMS["g2", "c"] = _scaled(Fraction(3, 2), FORMS["g2_partial_total"] + FORMS["g2_partial_fixed"])

_COUNT_KEYS = tuple((iso, kind) for kind in ("s", "c") for iso in ISO_TYPES)


def _known_iso(iso: str) -> str:
    if iso not in ISO_TYPES:
        raise ValueError(f"unknown isomorphism type {iso!r}")
    return iso


def count_s(iso: str, n: int) -> int:
    """Number of index-n subgroups of the given isomorphism type."""
    return form_value(FORMS[_known_iso(iso), "s"], n)


def count_c(iso: str, n: int) -> int:
    """Number of conjugacy classes of index-n subgroups (= coverings)."""
    return form_value(FORMS[_known_iso(iso), "c"], n)


def normal_counts(n: int) -> tuple[int, int, int]:
    """Normal index-n subgroups per type (g1, g2, g6): the (type, "normal") rows of FORMS.

    Erratum note: the published closed form for the g1 (Z^3) type carries an
    extra 2 d3(n/32) term coming from two matrix families that are not in
    fact normal (their basis vector x^(2f) y^2 z^2 conjugates to
    x^(2f) y^-2 z^-2, which the lattice misses whenever the half-shift
    structure forces 4 | exponent gaps).  The (g1, normal) row matches the
    subgroups fixed by conjugation with each generator, and the singleton
    classes of the oracle's coset tables (from the presentation alone); the
    first divergence of the published form is n = 32 (39 vs the actual 37),
    and at n = 64 it gives 67 against the actual 61.  Both witnesses live in
    the test suite for n <= 32; a CI step counts the 61 singleton g1 classes
    of the oracle's search at n = 64.
    """
    return tuple(form_value(FORMS[iso, "normal"], n) for iso in ISO_TYPES)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _odd_divisors(n: int) -> list[int]:
    return [d for d in divisors(n) if d % 2]


Block = tuple[tuple, Iterable[tuple]]  # (params, cells), shared cells included: see iter_blocks


def _z3_blocks(n: int) -> Iterator[Block]:
    """Per (c, e, f), in increasing order, the Hnf2 (b, d, a) of index n/4c (none unless 4 | n).

    params + cell are the Hnf3 fields (c, e, f, b, d, a); the c^2 blocks of one c share one list.
    """
    if n < 1 or n % 4:
        return
    q = n // 4
    for c in divisors(q):
        lower = hnf2_all(q // c)
        for e, f in product(range(c), repeat=2):
            yield (c, e, f), lower


def _g2_blocks(n: int) -> Iterator[Block]:
    """Per plane (axis, k, H), in increasing order, the transversal (s, t) of H (n even only)."""
    if n < 1 or n % 2:
        return
    q = n // 2
    for axis in AXES:
        for k in _odd_divisors(q):
            for lat in hnf2_all(q // k):
                yield (axis, k, lat), product(range(lat.b), range(lat.a))


def _g6_blocks(n: int) -> Iterator[Block]:
    """Per odd box (k, l, m) with k * l * m = n, in increasing order, its (u, v, w) (n odd only)."""
    if n < 1 or n % 2 == 0:
        return
    for k in _odd_divisors(n):
        for l in _odd_divisors(n // k):
            m = n // (k * l)
            yield (k, l, m), product(range(l), range(m), range(k))


_BLOCKS = {"g1": _z3_blocks, "g2": _g2_blocks, "g6": _g6_blocks}


def iter_blocks(iso: str, n: int) -> Iterator[Block]:
    """The index-n subgroups of one type as blocks (params, cells), in canonical order.

    The descriptors of a block are params + cell for each of its cells, in
    order: only the cells vary within a block.  The cells are an iterable;
    several blocks may share one list of them (Z^3: the c^2 blocks of one
    c), so no reader may mutate it.
    """
    return _BLOCKS[_known_iso(iso)](n)


_DESCRIPTORS = {"g1": Hnf3, "g2": G2Descriptor, "g6": G6Descriptor}


def iter_iso(iso: str, n: int) -> Iterator[Descriptor]:
    """Every index-n subgroup of one type, one at a time, read off iter_blocks."""
    make = _DESCRIPTORS[_known_iso(iso)]
    ds = chain.from_iterable(starmap(partial(make, *params), cells)
                             for params, cells in iter_blocks(iso, n))
    return map(Z3Descriptor, ds) if iso == "g1" else ds  # a Z3 block's params + cell are an Hnf3


def enumerate_z3(n: int) -> list[Z3Descriptor]:
    """Every index-n subgroup isomorphic to Z^3 (none unless 4 | n)."""
    return list(iter_iso("g1", n))


def enumerate_g2(n: int) -> list[G2Descriptor]:
    """Every index-n subgroup isomorphic to the dicosm group (n even only)."""
    return list(iter_iso("g2", n))


def enumerate_g6(n: int) -> list[G6Descriptor]:
    """Every index-n subgroup isomorphic to the whole group (n odd only)."""
    return list(iter_iso("g6", n))


_ENUMERATORS = {"g1": enumerate_z3, "g2": enumerate_g2, "g6": enumerate_g6}


def enumerate_iso(iso: str, n: int) -> list[Descriptor]:
    return _ENUMERATORS[_known_iso(iso)](n)


def enumerate_index(n: int) -> list[Descriptor]:
    """Every index-n subgroup in sort_key order: z3 block first, then g2, then g6.

    Every block walk yields its parameters in increasing order, so no sort is needed.
    """
    return [*enumerate_z3(n), *enumerate_g2(n), *enumerate_g6(n)]


# ---------------------------------------------------------------------------
# The coset structure H = R T: generators, coset labels, membership, index
# ---------------------------------------------------------------------------

def _from_pos(pos: tuple[int, int, int], v: tuple[int, int, int]) -> tuple[int, int, int]:
    """The half-exponents (a, b, c) whose coordinates read in the order pos are v."""
    return v[pos.index(0)], v[pos.index(1)], v[pos.index(2)]


def cosets(d: Descriptor) -> tuple[Hnf3, tuple[int, int, int], tuple[Element, ...]]:
    """The subgroup H as R T: T = H meet Lambda, and one element of H per letter of H.

    T is an Hnf3 over the half-exponents (a, b, c) read in the order pos (G2:
    the axis, then its plane pair).  R starts with the identity, and the
    squares of its other elements are the leading columns of T, in order.  H
    is the union of the translation cosets r T over r in R.
    """
    if isinstance(d, Z3Descriptor):
        return d.lattice, (0, 1, 2), (IDENTITY,)
    if isinstance(d, G2Descriptor):
        h, pos = d.lattice, (_AXIS_POS[d.axis], *_PLANE_POS[d.axis])
        return (Hnf3(d.k, 0, 0, h.b, h.c, h.a), pos,
                (IDENTITY, Element(d.axis, *_from_pos(pos, ((d.k - 1) // 2, d.s, d.t)))))
    k, l, m, u, v, w = d
    hk, hl, hm = (k - 1) // 2, (l - 1) // 2, (m - 1) // 2
    return (Hnf3(m, 0, 0, k, 0, l), (0, 1, 2),
            (IDENTITY, Element("x", hm, (w - hk) % k, (hl + u) % l),
             Element("y", (hm + v) % m, hk, u), Element("z", v, w, hl)))


def generators(d: Descriptor) -> tuple[Element, Element, Element]:
    """Three elements generating R T: the columns of T after the squares of R[1:], then R[1:]."""
    lattice, pos, reps = cosets(d)
    return (*(Element(E, *_from_pos(pos, col)) for col in lattice.columns()[len(reps) - 1:]),
            *reps[1:])


@lru_cache(maxsize=128)
def _abc_lattice(lattice: Hnf3, pos: tuple[int, int, int]) -> Hnf3:
    """The lattice with coordinates in the order pos, over (a, b, c) in Hermite normal form."""
    return hnf3_of(_from_pos(pos, col) for col in lattice.columns())


def abc_cosets(d: Descriptor) -> tuple[Hnf3, tuple[Element, ...]]:
    """T over the half-exponents (a, b, c) in Hermite normal form, and R, from cosets(d).

    A G2 T is reordered once per plane, as the descriptors of one plane come in a row.
    """
    lattice, pos, reps = cosets(d)
    return (lattice if pos == (0, 1, 2) else _abc_lattice(lattice, pos)), reps


# The letters of R, in R's order, are a subgroup of the Klein group: {e}, {e, axis}
# or all four.  For each, and each letter of g: the position in R of the r that
# gives g r the least letter.  The letters of g r over r in R are distinct, so
# that r names the coset gH.
_LEAST_REP = {letters: {lt: min(range(len(letters)), key=lambda i: LETTER_TIMES[lt, letters[i]])
                        for lt in LETTERS}
              for letters in ((E,), *((E, axis) for axis in AXES), (E, *AXES))}
_LETTER = attrgetter("letter")


def coset_labels(d: Descriptor) -> tuple[Callable[[Element], tuple], int]:
    """The O(1) label of the left coset gH of the descriptor's subgroup H = R T, and [HW : H].

    gH is the union of the translation cosets (g r) T over r in R; the one
    with the least letter, its translation reduced mod T, names gH.
    """
    lattice, pos, reps = cosets(d)
    least = _LEAST_REP[tuple(map(_LETTER, reps))]
    i0, i1, i2 = pos[0] + 1, pos[1] + 1, pos[2] + 1  # the Element fields are (letter, a, b, c)

    def key(g: Element) -> tuple:
        r = reps[least[g.letter]]
        if r is not IDENTITY:
            g = g * r
        return (g.letter, *lattice.reduce_coset((g[i0], g[i1], g[i2])))
    # [HW : H] = [HW : Lambda] [Lambda : T] / [H : T] = 4 [Lambda : T] / |R|
    return key, 4 * lattice.index // len(reps)


def contains(d: Descriptor, g: Element) -> bool:
    """Exact membership: g is in H exactly when gH = H, whose label is (E, 0, 0, 0)."""
    return coset_labels(d)[0](g) == (E, 0, 0, 0)


def index_of(d: Descriptor) -> int:
    """[HW : H], the number of cosets that coset_labels labels."""
    return coset_labels(d)[1]


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------

# Shifts added by conjugation by a letter: to the G2 coset representative
# (s, t), indexed by the letter's cyclic offset (letter - axis) mod 3 from the
# axis, and to the G6 parameters (u, v, w), indexed by the letter.
_G2_LETTER_SHIFT = ((0, 0), (-1, -1), (1, -1))
_G6_LETTER_SHIFT = {E: (0, 0, 0), "x": (1, -1, -1), "y": (0, 1, -1), "z": (-1, 0, 0)}


def conjugate_descriptor(d: Descriptor, v: Element) -> Descriptor:
    """Descriptor of v * Delta * v**-1, renormalized to canonical parameters.

    With v = letter . x^(2a) y^(2b) z^(2c), conjugation by the translation
    acts first: it shifts the parameters by -2 (a, b, c) read in their own
    coordinates ((s, t) on the axis plane, (u, v, w) on z, x, y).  The letter
    then multiplies them by its sign pattern SIGNS[letter] and adds its shift.
    """
    signs = SIGNS[v.letter]
    if isinstance(d, Z3Descriptor):
        return Z3Descriptor(transform3(d.lattice, signs))
    if isinstance(d, G2Descriptor):
        p1, p2 = _PLANE_POS[d.axis]
        s, t = d.s - 2 * v[p1 + 1], d.t - 2 * v[p2 + 1]  # v is (letter, a, b, c)
        lat = d.lattice
        if v.letter != E:
            ds, dt = _G2_LETTER_SHIFT[(_AXIS_POS[v.letter] - _AXIS_POS[d.axis]) % 3]
            lat = transform2(lat, (signs[p1], signs[p2]))
            s, t = signs[p1] * s + ds, signs[p2] * t + dt
        return G2Descriptor(d.axis, d.k, lat, *lat.reduce_coset(s, t))
    du, dv, dw = _G6_LETTER_SHIFT[v.letter]
    k, l, m = d.k, d.l, d.m
    return G6Descriptor(k, l, m, (signs[2] * (d.u - 2 * v.c) + du) % l,
                        (signs[0] * (d.v - 2 * v.a) + dv) % m,
                        (signs[1] * (d.w - 2 * v.b) + dw) % k)


_CONJUGATORS = (GEN_X, GEN_Y, GEN_Z)


def _images(d: Descriptor) -> set[Descriptor]:
    """d and its conjugates by the three generators: the one step of every class walk."""
    return {d, *(conjugate_descriptor(d, g) for g in _CONJUGATORS)}


def conjugacy_classes(ds: Iterable[Descriptor]) -> list[list[Descriptor]]:
    """Partition descriptors of one index into conjugation orbits.

    Orbit closure under conjugation by the three generators; this equals
    closure under the whole group because each generator acts with finite
    order on the (finitely many) parameters.  iter_classes walks the classes
    without it; this generic closure is its witness in the test suite, and
    gives the members of one class from its representative.
    """
    ds = sorted(set(ds), key=sort_key)
    if not ds:
        return []
    indices = {index_of(d) for d in ds}
    if len(indices) != 1:
        raise ValueError(f"descriptors of mixed index: {sorted(indices)}")
    seen: set[Descriptor] = set()
    classes = []
    for d in ds:
        if d in seen:
            continue
        orbit = {d}
        frontier = [d]
        while frontier:
            new = _images(frontier.pop()) - orbit
            orbit |= new
            frontier += new
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


# ---------------------------------------------------------------------------
# Conjugacy classes from their canonical representatives
# ---------------------------------------------------------------------------

Class = tuple[Descriptor, int]  # (least member, number of members)


def _z3_classes(n: int) -> Iterator[Class]:
    """Translations act trivially on a lattice, the letters by their sign flips.

    So a class is the at most 4 sign-flip images of a lattice, and it is
    yielded at its least member.
    """
    for d in iter_iso("g1", n):
        images = _images(d)
        if min(images) == d:
            yield d, len(images)


def _g2_classes(n: int) -> Iterator[Class]:
    """A class lies on one (axis, k) and on the plane lattices H and its flip H'.

    It is the union of the (lattice, K-coset) pairs that the images of any
    member cover, with K = <H, (2,0), (0,2)>: conjugation by a translation
    moves (s, t) by a vector of 2Z^2, inside one K-coset, so the group acts on
    the pairs through its quotient by the translations, {1, x, y, z}; and H'
    has the same K, as K contains 2Z^2 and a sign flip fixes Z^2 / 2Z^2.  The
    class is yielded with the lesser of H and H', from its least coset
    representative there.  Every K-coset holds [K : H] cosets of H, and its
    least member has s, t < 2, since K contains 2Z^2.  K depends on H only
    through its entries mod 2, so it is computed once per parity.
    """
    keys: dict[tuple[int, int, int], Hnf2] = {}
    for (axis, k, lat), _ in _g2_blocks(n):
        if transform2(lat, (1, -1)) < lat:
            continue
        parity = (lat.b % 2, lat.c % 2, lat.a % 2)
        if parity not in keys:
            keys[parity] = hnf2_of(lat.columns() + ((2, 0), (0, 2)))
        key = keys[parity]
        done: set[tuple[int, int]] = set()
        for s, t in product(range(min(lat.b, 2)), range(min(lat.a, 2))):
            if key.reduce_coset(s, t) in done:
                continue
            rep = G2Descriptor(axis, k, lat, s, t)
            pairs = {(c.lattice, key.reduce_coset(c.s, c.t)) for c in _images(rep)}
            done.update(c for h, c in pairs if h == lat)
            yield rep, len(pairs) * (lat.index // key.index)


def _g6_classes(n: int) -> Iterator[Class]:
    """One class per (k, l, m): conjugation reaches every (u, v, w)."""
    for (k, l, m), _ in _g6_blocks(n):
        yield G6Descriptor(k, l, m, 0, 0, 0), n


_CLASS_ITERATORS = {"g1": _z3_classes, "g2": _g2_classes, "g6": _g6_classes}


def iter_classes(n: int, iso: str | None = None) -> Iterator[Class]:
    """(representative, size) of every class of index-n subgroups, one at a time.

    Type by type (or of one type), classes in the order of their least
    members, each represented by that least member.  Between two classes
    nothing is kept, so memory does not grow with the number of subgroups.
    """
    isos = ISO_TYPES if iso is None else (_known_iso(iso),)
    return chain.from_iterable(_CLASS_ITERATORS[t](n) for t in isos)


def class_count(iso: str, n: int) -> int:
    """Conjugacy classes of index-n subgroups: the classes iter_classes yields."""
    return sum(1 for _ in iter_classes(n, iso))


# ---------------------------------------------------------------------------
# Series audit
# ---------------------------------------------------------------------------

def count_arrays(N: int) -> dict[tuple[str, str], list[int]]:
    """Closed-form counts for all n <= N: the six (type, kind) rows of FORMS.

    arith.form_values reads them from one odd-part sieve per base, folded at
    2; the test suite checks it against the one-n values of count_s / count_c.
    """
    return arith.form_values({key: FORMS[key] for key in _COUNT_KEYS}, N)


def normal_arrays(N: int) -> dict[tuple[str, str], list[int]]:
    """count_arrays plus the normal counts for all n <= N: the (type, "normal") rows of FORMS.

    One form_values call, so the count and normal rows share their bases.
    """
    keys = (*_COUNT_KEYS, *((iso, "normal") for iso in ISO_TYPES))
    return arith.form_values({key: FORMS[key] for key in keys}, N)


def _first_divergence(a: list[int], b: list[int]) -> int | None:
    if a == b:
        return None
    for i, (u, v) in enumerate(zip(a, b)):
        if u != v:
            return i + 1
    return None


def series_tables(N: int) -> tuple[dict, dict]:
    """Closed-form counts and tabulated coefficients for n <= N, by (type, kind).

    One form_values call over both sets of rows, so each base is sieved once.
    """
    vals = arith.form_values({**{("formula", key): FORMS[key] for key in _COUNT_KEYS},
                              **{("table", key): arith.GF_TABLE[key] for key in _COUNT_KEYS}}, N)
    return ({key: vals["formula", key] for key in _COUNT_KEYS},
            {key: vals["table", key] for key in _COUNT_KEYS})


def series_report(N: int, tables: tuple[dict, dict] | None = None) -> dict:
    """Audit the tabulated generating functions against the count formulas.

    For each of the six (type, kind) rows: the tabulated coefficients, the
    closed-form count values, and a verdict (match, or the first divergent
    n).  The report also settles the two known anomalies: the (g2, s) row
    scaled by 3, and the row tabulated under a g1 label whose shape
    (1 - 2^(1-s))^3 zeta^3(s-1) actually generates the g6 subgroup counts.
    ``tables`` is series_tables(N), computed here when not given.
    """
    formulas, gf = tables or series_tables(N)
    rows = []
    for key in _COUNT_KEYS:
        div = _first_divergence(gf[key], formulas[key])
        row = {
            "type": key[0],
            "kind": key[1],
            "verdict": "match" if div is None else "mismatch",
            "first_divergent_n": div,
        }
        if key == ("g2", "s") and div is not None:
            rescaled = [3 * v for v in gf[key]]
            if _first_divergence(rescaled, formulas[key]) is None:
                row["note"] = "tabulated row times 3 matches the subgroup counts"
        rows.append(row)
    row3_vs_g1 = _first_divergence(gf["g6", "s"], formulas["g1", "s"])
    row3 = {
        "row": "(1 - 2^(1-s))^3 zeta(s-1)^3",
        "tabulated_label": "g1 s",
        "vs_g1_s": "match" if row3_vs_g1 is None else f"mismatch at n={row3_vs_g1}",
        "vs_g6_s": "match"
        if _first_divergence(gf["g6", "s"], formulas["g6", "s"]) is None
        else "mismatch",
    }
    return {"n_max": N, "rows": rows, "row3_label": row3}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# Each descriptor type by tag: record class, lattice class, and (field, rule) pairs in
# key order, the lattice's fields in its place.  A rule is "pos" (>= 1),
# "odd" (odd and >= 1), "axis" (x, y or z) or an earlier field f (0 <= value < f).
FIELDS = {
    "z3": (Z3Descriptor, Hnf3,
           (("c", "pos"), ("e", "c"), ("f", "c"), ("b", "pos"), ("d", "b"), ("a", "pos"))),
    "g2": (G2Descriptor, Hnf2, (("axis", "axis"), ("k", "odd"), ("b", "pos"), ("c", "b"),
                                ("a", "pos"), ("s", "b"), ("t", "a"))),
    "g6": (G6Descriptor, None,
           (("k", "odd"), ("l", "odd"), ("m", "odd"), ("u", "l"), ("v", "m"), ("w", "k"))),
}
TAG_OF = {record: tag for tag, (record, _, _) in FIELDS.items()}


def to_json_dict(d: Descriptor) -> dict:
    """The fields of d by name after its type tag, in FIELDS' key order."""
    tag = TAG_OF[type(d)]
    _, lattice, fields = FIELDS[tag]
    values = d._asdict() | (d.lattice._asdict() if lattice else {})
    return {"type": tag, **{field: values[field] for field, _ in fields}}


def is_int_text(text: str) -> bool:
    """Whether outside text spells an integer: ASCII digits after an optional leading '-'.

    There are also no more digits than int() converts: sys.get_int_max_str_digits(),
    where the interpreter has it, and 0 means no limit.
    """
    digits = text.removeprefix("-")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return text.isascii() and digits.isdecimal() and not 0 < limit < len(digits)


# Characters of an outside value that an error message shows.
_SHOWN = 60


class _Shown(reprlib.Repr):
    """The repr of an outside value for an error message, in at most _SHOWN characters.

    A value whose repr fits is shown as repr shows it.  An int of more digits
    is never converted to text (a conversion that takes time quadratic in its
    length, or raises past sys.get_int_max_str_digits()): its bit length is shown.
    """

    def __init__(self) -> None:
        super().__init__()
        # a container or nesting depth past _SHOWN cannot fit in _SHOWN characters
        for limit in ("maxlevel", "maxtuple", "maxlist", "maxarray", "maxdict", "maxset",
                      "maxfrozenset", "maxdeque", "maxstring", "maxlong", "maxother"):
            setattr(self, limit, _SHOWN)

    def repr(self, x) -> str:
        text = super().repr(x)
        return text if len(text) <= _SHOWN else text[:_SHOWN - 3] + "..."

    def repr1(self, x, level: int) -> str:
        if isinstance(x, int) and not -10 ** (_SHOWN - 1) < x < 10 ** _SHOWN:
            return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"
        return super().repr1(x, level)


shown = _Shown().repr  # also the cli's, for the name of a CSV column


def _int_field(val, tag: str, field: str) -> int:
    """An integer field: a JSON int (not a bool) or is_int_text text, as in a CSV cell."""
    if type(val) is int or (isinstance(val, str) and is_int_text(val)):
        return int(val)
    raise ValueError(f"{tag} descriptor field {field!r} = {shown(val)} must be an integer")


def from_json_dict(obj: dict) -> Descriptor:
    """Parse a descriptor; a ValueError names a missing, non-integer, bad or unknown field.

    The message shows the value at fault in at most _SHOWN characters.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a descriptor must be an object of fields, not {type(obj).__name__}")
    tag = obj.get("type")
    if not isinstance(tag, str) or tag not in FIELDS:
        raise ValueError(f"descriptor field 'type' = {shown(tag)} must be z3, g2 or g6"
                         if "type" in obj else "descriptor field 'type' is missing")
    record, lattice, fields = FIELDS[tag]
    known = {"type", *(field for field, _ in fields)}
    for field in obj:
        if field not in known:
            raise ValueError(f"{tag} descriptor has no field {shown(field)}")
    p = {}
    for field, rule in fields:
        if field not in obj:
            raise ValueError(f"{tag} descriptor field {field!r} is missing")
        val = p[field] = obj[field] if rule == "axis" else _int_field(obj[field], tag, field)
        if rule == "axis":
            ok, need = val in AXES, "x, y or z"
        elif rule in p:
            ok, need = 0 <= val < p[rule], f"in [0, {rule}) = [0, {shown(p[rule])})"
        else:
            ok = val >= 1 and (rule == "pos" or val % 2 == 1)
            need = ">= 1" if rule == "pos" else "odd and >= 1"
        if not ok:
            raise ValueError(f"{tag} descriptor field {field!r} = {shown(val)} must be {need}")
    if lattice is not None:
        p["lattice"] = lattice(**{field: p.pop(field) for field in lattice._fields})
    return record(**p)
