"""Second routes to counts that the library reads from its closed forms.

The library reads every count from one row of ``catalog.FORMS``.  The
functions here recount some of them another way, by enumerating descriptors
and sublattices and conjugating them, so that the tests can compare the two
routes.  Each returns what it counted and checks nothing itself; the
``*_closed_form`` functions give the value the rows predict.
``NESTED_DIVISOR_SUMS`` evaluates the named bases of the rows by plain nested
divisor sums, not by their Euler products.  ``congruence_contains`` tests
membership by congruences on the exponents that ``total_exponents`` computes,
derived per type by hand, where the library reads one coset structure from
``catalog.cosets`` and stores only half-exponents.
``unpruned_search`` runs the walk ``oracle._backtrack`` with a step that
keeps every child, where ``oracle._search`` passes a step that prunes: it
returns every subgroup, not one table per conjugacy class.
``walk_table_key`` reads a subgroup key by walking the square orbit from the
one basepoint it keys, where ``oracle`` walks each orbit once for all the
basepoints in it.
``json_descriptor_text`` writes a descriptor by ``json.dumps`` at each nesting
the CLI prints: the ``classes`` CSV representative, quoted, and the items of
the ``enumerate`` and ``classes`` JSON, where the commands fill one template
per record class and indent, built from ``catalog.FIELDS``.  ``json_enumerate``
and ``json_classes`` write those whole JSON documents by one ``json.dumps``;
``json_count``, ``json_normal`` and ``json_verify`` write the row documents of
``count``, ``normal`` and ``verify`` by one ``json.dumps`` of dicts built key by
key, where the commands fill one template per header with the text of each cell.
``csv_text`` writes rows through ``csv.writer``, where the CLI formats each
line from one template per header and quotes the one cell that needs it
itself; ``descriptor_csv`` writes the ``enumerate`` CSV by it over the
cells of each descriptor, where the command formats its lines from the
catalog's parameter blocks.
"""

import csv
import io
import json
from typing import Iterable, Iterator, NamedTuple, Sequence

from hwcover import arith, catalog, cli, oracle
from hwcover.arith import d3, d3_alternating, divisors, form_value
from hwcover.group import E, GEN_X, GEN_Y, GEN_Z, LETTER_PRODUCT, Element
from hwcover.lattice import hnf2_all, hnf2_of, hnf3_of, transform2, transform3
from hwcover.oracle import CosetTable


def total_exponents(g: Element) -> tuple[int, int, int]:
    """Exponents of g at x, y, z: 2 (a, b, c) plus the half-exponents of its letter's square."""
    _, qa, qb, qc = LETTER_PRODUCT[g.letter, g.letter]
    return 2 * g.a + qa, 2 * g.b + qb, 2 * g.c + qc


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
    ex, ey, ez = total_exponents(g)
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
    """The same partition from the (g1, normal) and z3_axis_fixed rows.

    A member of a class of size 2 is fixed by exactly one generator, a normal
    subgroup by all three, so summed over the three generators the fixed
    subgroups number 3 m1 + m2.
    """
    m1 = form_value(catalog.FORMS["g1", "normal"], n)
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


def _keep(table: list, d: int, n: int, state: None) -> Iterator[None]:
    """The backtrack step that prunes nothing."""
    yield state


def unpruned_search(max_index: int) -> list[CosetTable]:
    """All complete tables on at most max_index cosets, each subgroup once, in search order."""
    return [CosetTable(*images) for images, _ in oracle._backtrack(max_index, _keep)]


def walk_table_key(t: CosetTable, base: int) -> tuple:
    """Subgroup key of the stabilizer of base, by a walk of its square orbit from base.

    Each point p of the orbit gets v(p) with base lambda_v(p) = p, each edge
    outside the walk's tree a Schreier generator of T, and a letter l with
    base l = q in the orbit the translation -v(q).
    """
    x, y, z = t.x, t.y, t.z
    vec = {base: (0, 0, 0)}
    order = [base]
    schreier = set()
    for p in order:  # order grows while it is scanned
        a, b, c = vec[p]
        for q, w in ((x[x[p]], (a + 1, b, c)), (y[y[p]], (a, b + 1, c)), (z[z[p]], (a, b, c + 1))):
            u = vec.get(q)
            if u is None:
                vec[q] = w
                order.append(q)
            elif u != w:
                schreier.add((w[0] - u[0], w[1] - u[1], w[2] - u[2]))
    lattice = hnf3_of(schreier)
    return lattice, tuple(sorted(
        (letter, lattice.reduce_coset((-v[0], -v[1], -v[2])))
        for letter, perm in zip("xyz", (x, y, z)) if (v := vec.get(perm[base])) is not None))


def json_descriptor_text(d: catalog.Descriptor, indent: int | None = None) -> str:
    """d's sorted JSON nested indent spaces deep, or for None on one line as a quoted CSV cell."""
    obj = catalog.to_json_dict(d)
    if indent is None:
        return '"%s"' % json.dumps(obj, sort_keys=True).replace('"', '""')
    # json.dumps escapes every newline inside a string, so nesting indents each raw one
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + " " * indent)


def json_enumerate(n: int, iso: str | None = None) -> str:
    """The output of enumerate --format json: the list of descriptors, by one json.dumps."""
    isos = catalog.ISO_TYPES if iso is None else (iso,)
    ds = [d for t in isos for d in catalog.enumerate_iso(t, n)]
    return json.dumps([catalog.to_json_dict(d) for d in ds], indent=2, sort_keys=True) + "\n"


def json_classes(n: int, iso: str | None = None) -> str:
    """The output of classes --format json, by one json.dumps, the classes from the orbit closure.

    The classes are ordered as the command walks them: type by type, and by
    least member, which represents its class.
    """
    isos = catalog.ISO_TYPES if iso is None else (iso,)
    classes = [c for t in isos for c in catalog.conjugacy_classes(catalog.enumerate_iso(t, n))]
    items = [{"type": catalog.iso_of(c[0]), "size": len(c),
              "representative": catalog.to_json_dict(c[0]),
              "members": [catalog.to_json_dict(d) for d in c]} for c in classes]
    return json.dumps({"class_count": len(classes), "index": n, "classes": items},
                      indent=2, sort_keys=True) + "\n"


def json_count(max_n: int) -> str:
    """The output of count --format json, by one json.dumps, each n from the one-n closed forms."""
    objs = []
    for n in range(1, max_n + 1):
        obj = {"n": n}
        for kind, count in (("s", catalog.count_s), ("c", catalog.count_c)):
            cells = {f"{kind}_{iso}": count(iso, n) for iso in catalog.ISO_TYPES}
            obj |= cells | {f"{kind}_total": sum(cells.values())}
        objs.append(obj)
    return json.dumps(objs, indent=2, sort_keys=True) + "\n"


def json_normal(max_n: int) -> str:
    """The output of normal --format json, by one json.dumps, each n from the one-n closed forms."""
    objs = []
    for n in range(1, max_n + 1):
        for iso, normal in zip(catalog.ISO_TYPES, catalog.normal_counts(n)):
            objs.append({"n": n, "type": iso, "s": catalog.count_s(iso, n),
                         "c": catalog.count_c(iso, n), "normal": normal})
    return json.dumps(objs, indent=2, sort_keys=True) + "\n"


def json_verify(max_n: int, oracle_limit: int) -> str:
    """The output of verify --format json, by one json.dumps of each report's fields by name."""
    objs = []
    for n in range(1, max_n + 1):
        report = oracle.cross_check(n, oracle_limit=oracle_limit)
        rows = [{"n": r.n, "type": r.iso, "s_closed": r.s_closed, "s_catalog": r.s_catalog,
                 "s_oracle": r.s_oracle, "c_closed": r.c_closed, "c_catalog": r.c_catalog,
                 "c_oracle": r.c_oracle, "match": r.match} for r in report.rows]
        objs.append({"n": n, "rows": rows, "tables_bijective": report.tables_bijective})
    return json.dumps(objs, indent=2, sort_keys=True) + "\n"
