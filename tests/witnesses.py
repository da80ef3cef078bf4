"""Second routes to counts that the library reads from its closed forms.

The library reads every count from one row of ``catalog.FORMS``.  The
functions here recount some of them another way, by enumerating descriptors
and sublattices and conjugating them, so that the tests can compare the two
routes.  Each returns what it counted and checks nothing itself; the
``*_closed_form`` functions give the value the rows predict.
"""

from typing import NamedTuple

from hwcover import catalog
from hwcover.arith import d3, d3_alternating, form_value
from hwcover.group import GEN_X, GEN_Y, GEN_Z
from hwcover.lattice import hnf2_all, hnf3_all, transform2, transform3


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
    """The axis-x partial-class split that class_count counts constructively."""
    return PartialClassSplit(*catalog._g2_axis_partial_split(n))


def g2_partial_split_closed_form(n: int) -> PartialClassSplit:
    """The same split from the g2_partial_fixed and g2_partial_total rows."""
    fixed = form_value(catalog.FORMS["g2_partial_fixed"], n)
    return PartialClassSplit(fixed, form_value(catalog.FORMS["g2_partial_total"], n) - fixed)


def flip_fixed_count_2d(n: int) -> int:
    """Index-n sublattices of Z^2 fixed by (u, v) -> (u, -v)."""
    return sum(1 for h in hnf2_all(n) if transform2(h, (1, -1)) == h)


def flip_fixed_count_3d(n: int) -> int:
    """Index-n sublattices of Z^3 fixed by (u, v, w) -> (u, v, -w)."""
    return sum(1 for h in hnf3_all(n) if transform3(h, (1, 1, -1)) == h)


def odd_factorization_identity_holds(n: int) -> bool:
    """d3_alternating(n) == (d3(n) if n odd else 0)."""
    return d3_alternating(n) == (d3(n) if n % 2 else 0)
