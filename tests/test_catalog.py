"""Descriptor enumeration, membership, conjugation, and counting."""

import random
from fractions import Fraction

import pytest

from hwcover import arith, catalog, cli
from hwcover.arith import d3, omega, sigma0
from hwcover.catalog import (
    G2Descriptor,
    G6Descriptor,
    Z3Descriptor,
    class_count,
    conjugacy_classes,
    conjugate_descriptor,
    contains,
    count_c,
    count_s,
    enumerate_g2,
    enumerate_g6,
    enumerate_index,
    enumerate_iso,
    enumerate_z3,
    from_json_dict,
    generators,
    index_of,
    iter_classes,
    normal_counts,
    sort_key,
    to_json_dict,
)
from hwcover.cli import descriptor_from_csv_row
from hwcover.group import E, GEN_X, GEN_Y, GEN_Z, IDENTITY, LETTERS, Element, translation
from hwcover.lattice import Hnf2, Hnf3
from witnesses import (
    NESTED_DIVISOR_SUMS,
    congruence_contains,
    filtered_normal_counts,
    flip_fixed_count_2d,
    flip_fixed_count_3d,
    g2_partial_split,
    g2_partial_split_closed_form,
    is_normal,
    total_exponents,
    z3_orbit_split,
    z3_orbit_split_closed_form,
)

ISO = ("g1", "g2", "g6")


def random_element(rng, bound=8):
    return Element(rng.choice(LETTERS), rng.randint(-bound, bound),
                   rng.randint(-bound, bound), rng.randint(-bound, bound))


# --- counting formulas: frozen spot values, oracle-derived -------------------

def test_count_spot_values():
    assert count_s("g6", 9) == 9 * d3(9) == 54
    assert count_c("g6", 9) == d3(9) == 6
    assert count_s("g1", 4) == count_c("g1", 4) == 1
    assert count_c("g2", 4) == 12
    assert count_s("g2", 4) == 18
    assert [count_s(t, 2) for t in ISO] == [0, 3, 0]
    assert [count_c(t, 2) for t in ISO] == [0, 3, 0]
    assert [count_s(t, 15) for t in ISO] == [0, 0, 135]
    assert [count_c(t, 15) for t in ISO] == [0, 0, 9]
    for n in (1, 3, 5, 7, 9, 99):
        assert count_s("g2", n) == 0


def test_enumeration_counts_match_closed_forms():
    for n in range(1, 61):
        assert len(enumerate_z3(n)) == count_s("g1", n), n
        assert len(enumerate_g2(n)) == count_s("g2", n), n
        assert len(enumerate_g6(n)) == count_s("g6", n), n


def test_enumeration_examples():
    assert enumerate_z3(4) == [Z3Descriptor(Hnf3(1, 0, 0, 1, 0, 1))]
    assert len(enumerate_z3(8)) == 7 == omega(2)
    assert enumerate_z3(6) == []
    assert enumerate_g2(3) == []
    assert enumerate_g6(2) == []
    assert enumerate_g6(1) == [G6Descriptor(1, 1, 1, 0, 0, 0)]
    assert len(enumerate_g6(3)) == 9
    full = Hnf2(b=1, c=0, a=1)
    assert enumerate_g2(2) == [
        G2Descriptor("x", 1, full, 0, 0),
        G2Descriptor("y", 1, full, 0, 0),
        G2Descriptor("z", 1, full, 0, 0),
    ]


def test_enumerations_contain_no_duplicates():
    for n in (12, 16, 24, 27):
        ds = enumerate_index(n)
        assert len(set(ds)) == len(ds)


def test_enumerations_are_generated_in_canonical_order():
    # enumerate_index does not sort; its enumerators must generate in sort_key order
    for n in range(1, 129):
        ds = enumerate_index(n)
        assert ds == sorted(ds, key=sort_key), n


def test_degenerate_indices_give_empty_lists_never_errors():
    for fn in (enumerate_z3, enumerate_g2, enumerate_g6, lambda n: list(iter_classes(n))):
        assert fn(0) == []
        assert fn(-4) == []


def test_unknown_iso_tag_rejected():
    with pytest.raises(ValueError):
        count_s("g3", 4)
    with pytest.raises(ValueError):
        count_c("torus", 4)
    with pytest.raises(ValueError):
        class_count("g5", 4)


@pytest.mark.parametrize("call", [
    lambda: count_s("g7", 4),
    lambda: class_count("g7", 4),
    lambda: enumerate_iso("g7", 4),
    lambda: iter_classes(4, "g7"),
    lambda: arith.gf_coeffs("g7", "s", 4),
], ids=["count_s", "class_count", "enumerate_iso", "iter_classes", "gf_coeffs"])
def test_unknown_type_raises_value_error_naming_it(call):
    with pytest.raises(ValueError, match="unknown isomorphism type 'g7'"):
        call()


# --- generators and membership ------------------------------------------------

def test_generator_examples():
    gx, gy, gz = generators(G6Descriptor(1, 1, 1, 0, 0, 0))
    assert (gx, gy, gz) == (GEN_X, GEN_Y, GEN_Z)
    # the translations x^2, y^2, z^2 generate the index-4 lattice subgroup
    g1, g2, g3 = generators(enumerate_z3(4)[0])
    assert {g1, g2, g3} == {translation(1, 0, 0), translation(0, 1, 0), translation(0, 0, 1)}
    # spot 6-parameter case: X = x, Y = y^3, Z = z y^2
    gx, gy, gz = generators(G6Descriptor(3, 1, 1, 0, 0, 1))
    assert gx == GEN_X
    assert gy == Element("y", 0, 1, 0)
    assert gz == Element("z", 0, 1, 0)
    assert gx * gy * gz == IDENTITY
    # G2 on axis y: the plane (z, x) holds H with columns (2, 0), (1, 1), and y^3 z^2 its letter
    assert generators(G2Descriptor("y", 3, Hnf2(2, 1, 1), 1, 0)) == (
        translation(0, 0, 2), translation(1, 0, 1), Element("y", 0, 1, 1))


def test_letter_representatives_square_to_the_leading_columns():
    # generators reads T's columns past the first |R| - 1 as translations, relying on this
    for n in range(1, 33):
        for d in enumerate_index(n):
            lattice, pos, reps = catalog.cosets(d)
            assert len(reps) in (1, 2, 4), d
            for r, col in zip(reps[1:], lattice.columns()):
                vec = [0, 0, 0]
                for p, x in zip(pos, col):
                    vec[p] = x
                assert r * r == translation(*vec), d


def test_generators_lie_in_their_subgroup():
    rng = random.Random(5)
    pool = [d for n in (4, 6, 8, 9, 12, 15, 16) for d in enumerate_index(n)]
    for d in rng.sample(pool, 120):
        for g in generators(d):
            assert contains(d, g), d


def test_contains_agrees_with_the_congruence_witness():
    # generators, their pairwise products and 20 seeded random elements, n <= 16
    rng = random.Random(13)
    for n in range(1, 17):
        for d in enumerate_index(n):
            gens = generators(d)
            elements = [*gens, *(g * h for g in gens for h in gens),
                        *(random_element(rng) for _ in range(20))]
            for g in elements:
                assert contains(d, g) == congruence_contains(d, g), (d, g)


def test_generator_triple_product_lands_in_the_translation_core():
    # the product of the three generators is a translation inside the subgroup
    for n in (1, 3, 5, 9, 15, 21, 27):
        for d in enumerate_g6(n):
            gx, gy, gz = generators(d)
            prod = gx * gy * gz
            assert prod.letter == E
            assert contains(d, prod), d
            # each exponent is 0 or one full period of the core lattice
            ex, ey, ez = total_exponents(prod)
            assert ex in (0, 2 * d.m) and ey in (0, -2 * d.k, 2 * d.k) and ez in (0, 2 * d.l), d


def test_membership_examples():
    gamma_x = G2Descriptor("x", 1, Hnf2(1, 0, 1), 0, 0)
    assert contains(gamma_x, GEN_X)
    assert not contains(gamma_x, GEN_Y)
    whole = G6Descriptor(1, 1, 1, 0, 0, 0)
    rng = random.Random(6)
    for _ in range(50):
        assert contains(whole, random_element(rng))
    # index-8 sublattice spanned by x^4, y^2, z^2
    d = Z3Descriptor(Hnf3(c=2, e=0, f=0, b=1, d=0, a=1))
    assert index_of(d) == 8
    assert not contains(d, translation(1, 0, 0))  # x^2
    assert contains(d, translation(2, 0, 0))      # x^4


def test_index_examples():
    assert index_of(enumerate_z3(4)[0]) == 4
    assert index_of(G2Descriptor("x", 3, Hnf2(1, 0, 1), 0, 0)) == 6
    assert index_of(G6Descriptor(3, 5, 1, 0, 0, 0)) == 15


def test_membership_respects_index_parity_structure():
    rng = random.Random(9)
    for d in rng.sample(enumerate_index(12), 30):
        for _ in range(30):
            g = random_element(rng)
            if contains(d, g):
                # a member's image under phi must be allowed by the type
                if isinstance(d, Z3Descriptor):
                    assert g.letter == E
                elif isinstance(d, G2Descriptor):
                    assert g.letter in (E, d.axis)


# --- conjugation -----------------------------------------------------------------

def test_conjugating_by_identity_fixes_everything():
    for n in (4, 6, 9):
        for d in enumerate_index(n)[:40]:
            assert conjugate_descriptor(d, IDENTITY) == d


def test_conjugation_action_property():
    rng = random.Random(13)
    pool = [d for n in (4, 6, 8, 9, 12) for d in enumerate_index(n)]
    for _ in range(150):
        d = rng.choice(pool)
        v, u = random_element(rng, 3), random_element(rng, 3)
        assert conjugate_descriptor(conjugate_descriptor(d, v), u) == \
            conjugate_descriptor(d, u * v)


def test_six_parameter_conjugation_formulas():
    # conjugation by the squared generators shifts one parameter by -2
    d = G6Descriptor(k=3, l=5, m=7, u=2, v=3, w=1)
    assert conjugate_descriptor(d, translation(1, 0, 0)) == d._replace(v=(d.v - 2) % d.m)
    assert conjugate_descriptor(d, translation(0, 1, 0)) == d._replace(w=(d.w - 2) % d.k)
    assert conjugate_descriptor(d, translation(0, 0, 1)) == d._replace(u=(d.u - 2) % d.l)


def test_g2_conjugation_by_y_formula():
    # axis-x data (k, H, (s,t)) goes to (k, H flipped, reduce(s-1, -t-1))
    from hwcover.lattice import hnf2_of, transform2
    rng = random.Random(17)
    for d in rng.sample(enumerate_g2(24), 40):
        if d.axis != "x":
            continue
        image = conjugate_descriptor(d, GEN_Y)
        flipped = transform2(d.lattice, (1, -1))
        assert image.axis == "x" and image.k == d.k
        assert image.lattice == flipped
        assert (image.s, image.t) == flipped.reduce_coset(d.s - 1, -d.t - 1)


def test_conjugation_witnessed_by_group_arithmetic():
    # the image has index n and contains the conjugated generators, so it is
    # the conjugate subgroup; the parameter maps never see Element arithmetic
    squares = (translation(1, 0, 0), translation(0, 1, 0), translation(0, 0, 1))
    for n in range(1, 33):
        for d in enumerate_index(n):
            for v in (GEN_X, GEN_Y, GEN_Z, *squares):
                img = conjugate_descriptor(d, v)
                assert index_of(img) == n, (d, v, img)
                for h in generators(d):
                    assert contains(img, h.conjugated_by(v)), (d, v, img, h)


def test_conjugation_preserves_membership():
    rng = random.Random(19)
    pool = [d for n in (6, 8, 9) for d in enumerate_index(n)]
    for _ in range(80):
        d = rng.choice(pool)
        v = random_element(rng, 2)
        image = conjugate_descriptor(d, v)
        g = random_element(rng, 4)
        assert contains(d, g) == contains(image, g.conjugated_by(v))


# --- conjugacy classes ---------------------------------------------------------

def test_class_examples():
    classes = conjugacy_classes(enumerate_g6(3))
    assert sorted(len(c) for c in classes) == [3, 3, 3]
    assert [len(c) for c in conjugacy_classes(enumerate_z3(4))] == [1]
    assert [len(c) for c in conjugacy_classes(enumerate_g2(2))] == [1, 1, 1]


def test_same_triple_means_conjugate():
    for cls in conjugacy_classes(enumerate_g6(9)):
        triples = {(d.k, d.l, d.m) for d in cls}
        assert len(triples) == 1
        assert len(cls) == 9  # all parameter choices of one triple


def test_class_count_agrees_with_closure_and_closed_form():
    for n in range(1, 65):
        for iso in ISO:
            closure = conjugacy_classes(catalog.enumerate_iso(iso, n))
            assert list(iter_classes(n, iso)) == [(cls[0], len(cls)) for cls in closure], (n, iso)
            assert class_count(iso, n) == len(closure) == count_c(iso, n), (n, iso)
        assert list(iter_classes(n)) == [c for iso in ISO for c in iter_classes(n, iso)], n


def test_partial_class_keys_match_true_orbit_closure():
    # a partial class is an orbit under conjugation by Gamma_axis = <axis, the squares
    # of the other two generators> alone; the class walk labels it by
    # (k, H, h mod K) with K = <H, (2,0), (0,2)>, on every axis.
    from collections import defaultdict

    from hwcover.group import GENERATORS
    from hwcover.lattice import hnf2_of

    squares = {"x": translation(1, 0, 0), "y": translation(0, 1, 0), "z": translation(0, 0, 1)}
    for axis in catalog.AXES:
        gamma_gens = (GENERATORS[axis], *(squares[a] for a in catalog.AXES if a != axis))
        for n in (2, 4, 6, 8, 12, 16, 20, 24):
            ds = [d for d in enumerate_g2(n) if d.axis == axis]
            seen, orbits = set(), []
            for d in ds:
                if d in seen:
                    continue
                orbit, frontier = {d}, [d]
                while frontier:
                    cur = frontier.pop()
                    for g in gamma_gens:
                        nxt = conjugate_descriptor(cur, g)
                        if nxt not in orbit:
                            orbit.add(nxt)
                            frontier.append(nxt)
                seen |= orbit
                orbits.append(orbit)
            buckets = defaultdict(set)
            for d in ds:
                key = hnf2_of(d.lattice.columns() + ((2, 0), (0, 2)))
                buckets[d.k, d.lattice, key.reduce_coset(d.s, d.t)].add(d)
            assert sorted(map(sorted, orbits)) == sorted(map(sorted, buckets.values())), (axis, n)


def test_mixed_index_rejected():
    with pytest.raises(ValueError):
        conjugacy_classes(enumerate_g6(3) + enumerate_g6(9))


# --- orbit splits and partition identities ----------------------------------------

def test_z3_orbit_split_examples():
    for n, split in ((8, (7, 0, 0)), (4, (1, 0, 0)), (2, (0, 0, 0))):
        assert z3_orbit_split(n) == z3_orbit_split_closed_form(n) == split, n


def test_g2_partial_split_examples():
    assert g2_partial_split(2) == g2_partial_split_closed_form(2) == (1, 0)
    # at n=4 the six axis partial classes split 2 fixed + 4 swapped
    # (forced by the class identity 3*(fixed + swapped/2) = 12)
    assert g2_partial_split(4) == g2_partial_split_closed_form(4) == (2, 4)
    sigma2 = NESTED_DIVISOR_SUMS[arith.SIGMA2]
    assert g2_partial_split(16) == g2_partial_split_closed_form(16) \
        == (0, sigma2(8) + 2 * sigma2(4) - 3 * sigma2(2))


def test_partition_identities():
    for n in range(1, 65):
        m1, m2, m4 = z3_orbit_split(n)
        assert (m1, m2, m4) == z3_orbit_split_closed_form(n), n
        assert m1 + m2 // 2 + m4 // 4 == count_c("g1", n), n
        fixed, swapped = g2_partial_split(n)
        assert (fixed, swapped) == g2_partial_split_closed_form(n), n
        assert 3 * (fixed + swapped // 2) == count_c("g2", n), n
        if n % 4 == 0:
            assert 3 * m1 + m2 == 3 * flip_fixed_count_3d(n // 4), n
        assert count_s("g6", n) == n * count_c("g6", n), n


def test_flip_fixed_counts():
    assert flip_fixed_count_2d(1) == 1
    assert flip_fixed_count_2d(2) == sigma0(2) + sigma0(1) == 3
    sigma2 = NESTED_DIVISOR_SUMS[arith.SIGMA2]
    assert flip_fixed_count_3d(2) == sigma2(2) + 3 * sigma2(1) == 7
    for n in range(1, 33):
        assert flip_fixed_count_2d(n) == arith.form_value(catalog.FORMS["flip_fixed_2d"], n), n
        assert flip_fixed_count_3d(n) == arith.form_value(catalog.FORMS["flip_fixed_3d"], n), n


# --- normality ----------------------------------------------------------------------

def test_normality_examples():
    gamma_x = G2Descriptor("x", 1, Hnf2(1, 0, 1), 0, 0)
    assert is_normal(gamma_x)
    assert is_normal(G6Descriptor(1, 1, 1, 0, 0, 0))
    for n in (3, 9, 15):
        assert not any(is_normal(d) for d in enumerate_g6(n)), n


def test_normal_count_examples():
    for n, counts in ((6, (0, 3, 0)), (12, (3, 6, 0)), (8, (7, 0, 0)), (1, (0, 0, 1))):
        assert normal_counts(n) == filtered_normal_counts(n) == counts, n


def test_normal_g2_piecewise_rule():
    for n in range(1, 49):
        expected = 3 if n % 4 == 2 else 6 if n % 8 == 4 else 0
        assert normal_counts(n)[1] == filtered_normal_counts(n)[1] == expected, n


def test_published_z3_normal_form_diverges_at_32():
    # the published closed form has an extra 2*d3(n/32) term; the filtered
    # count (ground truth, also confirmed by the singleton classes of the
    # coset tables in test_oracle.py) does not
    for n in range(1, 65):
        corrected = normal_counts(n)[0]
        published = corrected + 2 * d3(Fraction(n, 32))
        actual = sum(1 for d in enumerate_z3(n) if is_normal(d))
        assert actual == corrected, n
        if n in (32, 64):
            assert published == actual + 2 * d3(Fraction(n, 32)) > actual, n
        else:
            assert published == actual, n


# --- parity structure -----------------------------------------------------------------

def test_parity_structure():
    for n in range(1, 101):
        if n % 2 == 1:
            assert enumerate_z3(n) == [] and enumerate_g2(n) == []
            assert count_s("g6", n) > 0
        elif n % 4 == 2:
            assert enumerate_z3(n) == [] and enumerate_g6(n) == []
            assert count_s("g2", n) > 0
        else:
            assert enumerate_g6(n) == []
            assert count_s("g1", n) > 0 and count_s("g2", n) > 0


# --- serialization ----------------------------------------------------------------------

def test_descriptor_json_round_trip():
    for n in range(1, 49):
        for d in enumerate_index(n):
            assert from_json_dict(to_json_dict(d)) == d


def test_to_json_dict_keys_follow_the_field_table():
    # to_json_dict, from_json_dict and the CLI's descriptor templates all read
    # catalog.FIELDS: the keys follow it, and it names every field of the records
    for n in range(1, 49):
        for d in enumerate_index(n):
            obj = to_json_dict(d)
            record, _, fields = catalog.FIELDS[obj["type"]]
            assert list(obj) == ["type", *(field for field, _ in fields)], d
            assert type(d) is record, d
    for record, lattice, fields in catalog.FIELDS.values():
        names = [field for field, _ in fields]
        for i, (field, rule) in enumerate(fields):
            assert rule in ("pos", "odd", "axis") or rule in names[:i], (field, rule)
        assert set(names) == {*(lattice._fields if lattice else ()),
                              *(f for f in record._fields if f != "lattice")}
    assert set(cli._CSV_FIELDS) == {"type", *(field for _, _, fields in catalog.FIELDS.values()
                                              for field, _ in fields)}


@pytest.mark.parametrize("obj, field", [
    ({"type": "g6", "k": 2, "l": 1, "m": 1, "u": 0, "v": 0, "w": 9}, "'k'"),
    ({"type": "z3", "c": 2, "e": 7, "f": 0, "b": 1, "d": 0, "a": 1}, "'e'"),
    ({"type": "g2", "axis": "q", "k": 1, "b": 1, "c": 0, "a": 1, "s": 0, "t": 0}, "'axis'"),
    ({"type": "g6", "k": 3, "l": 1, "m": 1, "u": 0, "v": 0, "w": 2.9}, "'w'"),
    ({"type": "g6", "k": 3.7, "l": 1, "m": 1, "u": 0, "v": 0, "w": 0}, "'k'"),
    ({"type": "g6", "k": 1, "l": True, "m": 1, "u": 0, "v": 0, "w": 0}, "'l'"),
    ({"type": "g6", "k": 1, "l": 1, "m": 1, "u": 0, "v": 0}, "'w'"),
    ({"k": 1, "l": 1, "m": 1, "u": 0, "v": 0, "w": 0}, "'type'"),
    ({"type": "g2", "k": 1, "b": 1, "c": 0, "a": 1, "s": 0, "t": 0}, "'axis'"),
    # an Arabic-Indic digit 3, which str.isdecimal accepts
    ({"type": "g6", "k": "\u0663", "l": 1, "m": 1, "u": 0, "v": 0, "w": 0}, "'k'"),
    ({"type": "g6", "k": 3, "l": 1, "m": 1, "u": 0, "v": 0, "w": 0, "q": 5}, "no field 'q'"),
    ({"type": "g2", "axis": "x", "k": 1, "b": 1, "c": 0, "a": 1, "s": 0, "t": 0, "u": 0},
     "no field 'u'"),  # a filled cell of another type's column
    # a type that is not hashable
    ({"type": []}, "'type'"),
    ({"type": {}}, "'type'"),
    # more digits than int() converts from text by default on Python 3.11, and out
    # of range where there is no such limit
    ({"type": "g6", "k": 1, "l": 1, "m": 1, "u": 0, "v": 0, "w": "9" * 5000}, "'w'"),
    ({"type": "z3", "c": 1, "e": "-" + "9" * 5000, "f": 0, "b": 1, "d": 0, "a": 1}, "'e'"),
    # over-long text, shown cut short
    ({"type": "x" * 5000}, "'type'"),
    ({"type": "g2", "axis": "q" * 5000, "k": 1, "b": 1, "c": 0, "a": 1, "s": 0, "t": 0}, "'axis'"),
    ({"type": "g6", "k": 3, "l": 1, "m": 1, "u": 0, "v": 0, "w": 0, "q" * 5000: 5}, "no field 'qqq"),
    ({"type": "g6", "k": 3, "l": 1, "m": 1, "u": 0, "v": 0, "w": "x" * 5000}, "'w'"),
])
def test_descriptor_outside_canonical_ranges_rejected(obj, field):
    with pytest.raises(ValueError, match=field) as exc:
        from_json_dict(obj)
    assert len(str(exc.value)) < 200, str(exc.value)
    with pytest.raises(ValueError, match=field) as exc:
        descriptor_from_csv_row({key: str(val) for key, val in obj.items()})
    assert len(str(exc.value)) < 200, str(exc.value)


@pytest.mark.parametrize("obj, field, message, null_message", [
    ({"k": 1, "l": 1, "m": 1, "u": 0, "v": 0, "w": 0}, "type",
     "descriptor field 'type' is missing", "descriptor field 'type' = None must be z3, g2 or g6"),
    ({"type": "g2", "k": 1, "b": 1, "c": 0, "a": 1, "s": 0, "t": 0}, "axis",
     "g2 descriptor field 'axis' is missing", "g2 descriptor field 'axis' = None must be x, y or z"),
    ({"type": "z3", "c": 1, "e": 0, "f": 0, "d": 0, "a": 1}, "b",
     "z3 descriptor field 'b' is missing", "z3 descriptor field 'b' = None must be an integer"),
], ids=["type", "axis", "b"])
def test_a_missing_field_is_reported_missing(obj, field, message, null_message):
    # a field left out of the JSON or given an empty CSV cell is missing; a JSON
    # null is a value, checked against the field's rule
    with pytest.raises(ValueError) as exc:
        from_json_dict(obj)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        descriptor_from_csv_row({key: str(obj.get(key, "")) for key in cli._CSV_FIELDS})
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        from_json_dict({**obj, field: None})
    assert str(exc.value) == null_message


@pytest.mark.parametrize("obj, message", [
    # ints of more digits than int() converts to text by default on Python 3.11:
    # a value out of range, and a valid bound in the message of another field
    ({"type": "z3", "c": 1, "e": 10**5000, "f": 0, "b": 1, "d": 0, "a": 1},
     "field 'e' = <int of 16610 bits> must be in [0, c) = [0, 1)"),
    ({"type": "z3", "c": 10**5000, "e": -1, "f": 0, "b": 1, "d": 0, "a": 1},
     "field 'e' = -1 must be in [0, c) = [0, <int of 16610 bits>)"),
    ({"type": "g6", "k": 1, "l": 1, "m": 1, "u": 0, "v": 0, "w": [-10**5000]},
     "field 'w' = [<negative int of 16610 bits>] must be an integer"),
    # values whose repr fits in 60 characters are shown whole
    ({"type": "z3", "c": 1, "e": 10**59, "f": 0, "b": 1, "d": 0, "a": 1},
     f"field 'e' = {10**59} must be in [0, c) = [0, 1)"),
    ({"type": "g6", "k": 1, "l": 1, "m": 1, "u": 0, "v": 0, "w": [0] * 7},
     "field 'w' = [0, 0, 0, 0, 0, 0, 0] must be an integer"),
])
def test_descriptor_error_shows_a_long_int_by_its_bit_length(obj, message):
    with pytest.raises(ValueError) as exc:
        from_json_dict(obj)
    assert str(exc.value).endswith(message) and len(str(exc.value)) < 200, str(exc.value)


@pytest.mark.parametrize("obj, name", [([], "list"), ("z3", "str"), (None, "NoneType")])
def test_descriptor_that_is_not_an_object_rejected(obj, name):
    with pytest.raises(ValueError, match=f"not {name}$"):
        from_json_dict(obj)


def test_sieved_count_arrays_match_the_per_n_formulas():
    # the range evaluator (prime-power sieve) against the one-n evaluator (factorisation)
    arrays = catalog.count_arrays(1024)
    for n in range(1, 1025):
        for iso in ISO:
            assert arrays[iso, "s"][n - 1] == count_s(iso, n), (iso, n)
            assert arrays[iso, "c"][n - 1] == count_c(iso, n), (iso, n)


def test_fractional_form_value_raises_on_both_evaluators(monkeypatch):
    monkeypatch.setitem(catalog.FORMS, ("g6", "c"), ((Fraction(1, 2), 0, arith.D3),))
    with pytest.raises(ArithmeticError, match="n=1"):
        count_c("g6", 1)
    with pytest.raises(ArithmeticError, match="n=1"):
        catalog.count_arrays(8)


def test_series_report_verdicts():
    report = catalog.series_report(256)
    verdicts = {(r["type"], r["kind"]): r for r in report["rows"]}
    for key in (("g1", "s"), ("g6", "s"), ("g1", "c"), ("g2", "c"), ("g6", "c")):
        assert verdicts[key]["verdict"] == "match", key
    g2s = verdicts["g2", "s"]
    assert g2s["verdict"] == "mismatch"
    assert g2s["first_divergent_n"] == 2
    assert "times 3" in g2s["note"]
    assert report["row3_label"]["vs_g6_s"] == "match"
    assert report["row3_label"]["vs_g1_s"] == "mismatch at n=1"
