"""Second routes to counts that the library reads from its closed forms.

The library reads every count from one row of ``catalog.FORMS``.  The
functions here recount some of them another way, by enumerating descriptors
and sublattices and conjugating them, so that the tests can compare the two
routes.  Each returns what it counted and checks nothing itself; the
``*_closed_form`` functions give the value the rows predict.
``NESTED_DIVISOR_SUMS`` evaluates the named bases of the rows by plain nested
divisor sums, not by their Euler products.  ``congruence_contains`` tests
membership by congruences on the exponents, derived per type by hand, where
the library reads one coset structure from ``catalog.cosets``.
``unpruned_search`` is the low-index backtrack without the class pruning of
``oracle._search``: it yields every subgroup, not one table per conjugacy
class.  ``csv_text`` writes rows through ``csv.writer``, where the CLI
formats each line from one template per header and quotes the one cell that
needs it itself; ``descriptor_csv`` writes the ``enumerate`` CSV by it over the cells
of each descriptor, where the command formats its lines from the catalog's
parameter blocks.
"""

import csv
import io
from typing import Iterable, NamedTuple, Sequence

from hwcover import arith, catalog, cli
from hwcover.arith import d3, d3_alternating, divisors, form_value
from hwcover.group import E, GEN_X, GEN_Y, GEN_Z, Element
from hwcover.lattice import hnf2_all, hnf2_of, transform2, transform3
from hwcover.oracle import _COLS, _ROT, CosetTable


def congruence_contains(d: catalog.Descriptor, g: Element) -> bool:
    """Membership of g in the subgroup of d, by congruences on its exponents."""
    vec = (g.a, g.b, g.c)
    if isinstance(d, catalog.Z3Descriptor):
        return g.letter == E and d.lattice.reduce_coset(vec) == (0, 0, 0)
    if isinstance(d, catalog.G2Descriptor):
        axis, k, lat = d.axis, d.k, d.lattice
        p1, p2 = catalog._PLANE_POS[axis]
        pv = (vec[p1], vec[p2])
        if g.letter == E:
            return vec[catalog._AXIS_POS[axis]] % k == 0 and lat.reduce_coset(*pv) == (0, 0)
        if g.letter == axis:
            if (2 * vec[catalog._AXIS_POS[axis]] + 1 - k) % (2 * k):
                return False
            return lat.reduce_coset(pv[0] - d.s, pv[1] - d.t) == (0, 0)
        return False
    k, l, m = d.k, d.l, d.m
    # reduced translation exponents of the three generators
    A = (m - 1 + 2 * d.v) % (2 * m)
    B = (1 - k + 2 * d.w) % (2 * k)
    C = (l - 1 + 2 * d.u) % (2 * l)
    ex, ey, ez = g.exponents()
    if g.letter == E:
        return ex % (2 * m) == 0 and ey % (2 * k) == 0 and ez % (2 * l) == 0
    if g.letter == "x":
        return (ex - m) % (2 * m) == 0 and (ey - B) % (2 * k) == 0 and (ez - C) % (2 * l) == 0
    if g.letter == "y":
        return (ey - k) % (2 * k) == 0 and (ex - A) % (2 * m) == 0 and (ez - 2 * d.u) % (2 * l) == 0
    return (ez - l) % (2 * l) == 0 and (ex - 2 * d.v) % (2 * m) == 0 and (ey - 2 * d.w) % (2 * k) == 0


def _csv_cells(d: catalog.Descriptor) -> tuple:
    """The cells of d under cli._CSV_FIELDS; a field the type does not have is empty."""
    if isinstance(d, catalog.Z3Descriptor):
        lat = d.lattice
        return ("z3", "", "", "", "", "", "", "", lat.b, lat.c, lat.a, lat.e, lat.f, lat.d, "", "")
    if isinstance(d, catalog.G2Descriptor):
        lat = d.lattice
        return ("g2", d.axis, d.k, "", "", "", "", "", lat.b, lat.c, lat.a, "", "", "", d.s, d.t)
    return ("g6", "", d.k, d.l, d.m, d.u, d.v, d.w, "", "", "", "", "", "", "", "")


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The header, then the rows, through csv.writer with minimal quoting and newline line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def descriptor_csv(ds: Iterable[catalog.Descriptor]) -> str:
    """The enumerate CSV of the descriptors: csv_text over each one's cells."""
    return csv_text(cli._CSV_FIELDS, map(_csv_cells, ds))


def is_normal(d: catalog.Descriptor) -> bool:
    """Conjugation by each generator fixes the subgroup."""
    return all(catalog.conjugate_descriptor(d, g) == d for g in (GEN_X, GEN_Y, GEN_Z))


def filtered_normal_counts(n: int) -> tuple[int, int, int]:
    """Normal index-n subgroups per type (g1, g2, g6), by filtering the enumerations."""
    return tuple(sum(1 for d in catalog.enumerate_iso(iso, n) if is_normal(d))
                 for iso in catalog.ISO_TYPES)


class Z3OrbitSplit(NamedTuple):
    """Numbers of Z^3-type subgroups lying in classes of size 1, 2, 4."""

    size1: int
    size2: int
    size4: int


def z3_orbit_split(n: int) -> Z3OrbitSplit:
    """Class-size partition of the Z^3-type subgroups, by orbit closure."""
    sizes = {1: 0, 2: 0, 4: 0}
    for cls in catalog.conjugacy_classes(catalog.enumerate_z3(n)):
        sizes[len(cls)] += len(cls)  # a KeyError flags an impossible class size
    return Z3OrbitSplit(sizes[1], sizes[2], sizes[4])


def z3_orbit_split_closed_form(n: int) -> Z3OrbitSplit:
    """The same partition from the z3_normal and z3_axis_fixed rows.

    A member of a class of size 2 is fixed by exactly one generator, a normal
    subgroup by all three, so summed over the three generators the fixed
    subgroups number 3 m1 + m2.
    """
    m1 = form_value(catalog.FORMS["z3_normal"], n)
    m2 = 3 * form_value(catalog.FORMS["z3_axis_fixed"], n) - 3 * m1
    return Z3OrbitSplit(m1, m2, catalog.count_s("g1", n) - m1 - m2)


class PartialClassSplit(NamedTuple):
    """Axis-x partial classes fixed / swapped by the outer conjugation."""

    fixed: int
    swapped: int


def g2_partial_split(n: int) -> PartialClassSplit:
    """Partial conjugacy classes of axis-x subgroups at index n, fixed and swapped.

    A partial class is an orbit under conjugation by Gamma_x only; it is
    labeled by (k, H, h mod K) with K = <H, (2,0), (0,2)>.  It is fixed when
    conjugation by y lands in the same label.  Whole-group classes then
    number fixed + swapped/2 per axis.
    """
    if n < 1 or n % 2:
        return PartialClassSplit(0, 0)
    q = n // 2
    fixed = swapped = 0
    for k in (d for d in divisors(q) if d % 2):
        for lat in hnf2_all(q // k):
            key = hnf2_of(lat.columns() + ((2, 0), (0, 2)))
            for s in range(key.b):
                for t in range(key.a):
                    d = catalog.G2Descriptor("x", k, lat, *lat.reduce_coset(s, t))
                    d2 = catalog.conjugate_descriptor(d, GEN_Y)
                    if (d2.lattice, key.reduce_coset(d2.s, d2.t)) == (lat, (s, t)):
                        fixed += 1
                    else:
                        swapped += 1
    return PartialClassSplit(fixed, swapped)


def g2_partial_split_closed_form(n: int) -> PartialClassSplit:
    """The same split from the g2_partial_fixed and g2_partial_total rows."""
    fixed = form_value(catalog.FORMS["g2_partial_fixed"], n)
    return PartialClassSplit(fixed, form_value(catalog.FORMS["g2_partial_total"], n) - fixed)


def flip_fixed_count_2d(n: int) -> int:
    """Index-n sublattices of Z^2 fixed by (u, v) -> (u, -v)."""
    return sum(1 for h in hnf2_all(n) if transform2(h, (1, -1)) == h)


def flip_fixed_count_3d(n: int) -> int:
    """Index-n sublattices of Z^3 fixed by (u, v, w) -> (u, v, -w)."""
    lats = (d.lattice for d in catalog.iter_iso("g1", 4 * n))
    return sum(1 for h in lats if transform3(h, (1, 1, -1)) == h)


def odd_factorization_identity_holds(n: int) -> bool:
    """d3_alternating(n) == (d3(n) if n odd else 0)."""
    return d3_alternating(n) == (d3(n) if n % 2 else 0)


def _sigma0(n: int) -> int:
    return len(divisors(n))


def _sigma1(n: int) -> int:
    return sum(divisors(n))


def _d3(n: int) -> int:
    return sum(_sigma0(d) for d in divisors(n))


# Each named base of arith at a positive integer n, by trial-division divisor sums.
NESTED_DIVISOR_SUMS = {
    arith.DELTA: lambda n: int(n == 1),
    arith.ONE: lambda n: 1,
    arith.SIGMA0: _sigma0,
    arith.D3: _d3,
    arith.SIGMA2: lambda n: sum(_sigma1(d) for d in divisors(n)),
    arith.OMEGA: lambda n: sum(d * _sigma1(d) for d in divisors(n)),
    arith.N_D3: lambda n: n * _d3(n),
}


def unpruned_search(max_index: int) -> list[CosetTable]:
    """All complete tables on at most max_index cosets, each subgroup once, in search order."""
    table: list[list[int | None]] = [[None] * _COLS]
    results: list[CosetTable] = []

    def set_entry(c: int, g: int, d: int, trail: list[tuple[int, int]]) -> None:
        table[c][g] = d
        table[d][g ^ 1] = c
        trail.append((c, g))
        trail.append((d, g ^ 1))

    def scan(start: int, word: tuple[int, ...],
             queue: list[tuple[int, int]], trail: list[tuple[int, int]]) -> bool:
        """Trace one relator cycle; fill a single gap or report a clash."""
        f, i = start, 0
        L = len(word)
        while i < L:
            nxt = table[f][word[i]]
            if nxt is None:
                break
            f = nxt
            i += 1
        if i == L:
            return f == start
        b, j = start, L
        while j > i + 1:
            nxt = table[b][word[j - 1] ^ 1]
            if nxt is None:
                break
            b = nxt
            j -= 1
        if j == i + 1:
            if table[b][word[i] ^ 1] is not None:
                return False  # the edge into b is already taken
            set_entry(f, word[i], b, trail)
            queue.append((f, word[i]))
        return True

    def propagate(queue: list[tuple[int, int]], trail: list[tuple[int, int]]) -> bool:
        while queue:
            c, g = queue.pop()
            d = table[c][g]
            for word in _ROT[g]:
                if not scan(c, word, queue, trail):
                    return False
            for word in _ROT[g ^ 1]:
                if not scan(d, word, queue, trail):
                    return False
        return True

    def undo(trail: list[tuple[int, int]]) -> None:
        for c, g in trail:
            table[c][g] = None

    def first_gap(c0: int, g0: int) -> tuple[int, int] | None:
        """The first empty entry at or after (c0, g0) in row-major order."""
        for c in range(c0, len(table)):
            row = table[c]
            for g in range(g0 if c == c0 else 0, _COLS):
                if row[g] is None:
                    return c, g
        return None

    def extend(c: int, g: int) -> None:
        gap = first_gap(c, g)
        if gap is None:
            results.append(CosetTable(
                x=tuple(row[0] for row in table),
                y=tuple(row[2] for row in table),
                z=tuple(row[4] for row in table),
            ))
            return
        c, g = gap
        n = len(table)
        for d in range(n + (n < max_index)):
            if d == n:  # a new coset, defined by this entry
                table.append([None] * _COLS)
            elif table[d][g ^ 1] is not None:
                continue
            trail: list[tuple[int, int]] = []
            set_entry(c, g, d, trail)
            if propagate([(c, g)], trail):
                extend(c, g)
            undo(trail)
        del table[n:]

    extend(0, 0)
    return results
