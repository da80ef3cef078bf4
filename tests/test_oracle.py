"""Low-index search, canonical labeling, and the catalog bridge."""

import random
from collections import Counter

import pytest

from hwcover import arith, catalog, oracle
from hwcover.group import GEN_X, GEN_Y, GEN_Z, IDENTITY, LETTERS, TOKEN_ELEMENT, Element
from hwcover.lattice import Hnf2, Hnf3
from hwcover.oracle import (
    HARD_CAP,
    CosetTable,
    EnumerationError,
    canonical_table,
    classes_of,
    cross_check,
    csv_rows,
    descriptor_key,
    descriptor_to_table,
    low_index,
    stabilizer_type,
    table_key,
)
from witnesses import unpruned_search

ISO = ("g1", "g2", "g6")


# --- reference implementations (test witnesses) -----------------------------

def scan_descriptor_to_table(d):
    """Coset enumeration that finds each coset by a linear scan over the
    earlier ones, through the descriptor's membership test."""
    reps, inverses = [IDENTITY], [IDENTITY]
    images = {"x": [], "y": [], "z": []}
    for rep in reps:  # reps grows while it is scanned
        for gen in images:
            moved = rep * TOKEN_ELEMENT[gen]
            target = next((j for j, inv in enumerate(inverses)
                           if catalog.contains(d, moved * inv)), None)
            if target is None:
                target = len(reps)
                reps.append(moved)
                inverses.append(moved.inverse())
            images[gen].append(target)
    return CosetTable(tuple(images["x"]), tuple(images["y"]), tuple(images["z"]))


def class_key(t):
    """Minimum canonical form over all basepoints, one validated table each."""
    forms = (canonical_table(t, base) for base in range(t.degree))
    return min((f.x + f.y + f.z) for f in forms)


def element_word(g):
    """A defining word for g in the generator tokens."""
    word = []
    if g.letter != "e":
        word.append(g.letter)
    for tok, count in (("x", g.a), ("y", g.b), ("z", g.c)):
        word.extend([tok if count > 0 else tok.upper()] * (2 * abs(count)))
    return word


def table_membership(t, g):
    """Whether g stabilizes the basepoint of the table."""
    perms = t.perms()
    cols = {"x": 0, "X": 1, "y": 2, "Y": 3, "z": 4, "Z": 5}
    p = 0
    for tok in element_word(g):
        p = perms[cols[tok]][p]
    return p == 0


# --- the presentation up to index 32 ----------------------------------------
# The backtrack to 32 is cached and shared with acceptance criteria 1 and 5
# (criterion 1 runs the full three-way check for every n <= 32).  This test
# comes first in the module so that the search cache, which holds a few
# limits only, still has it.

def test_normal_subgroups_are_the_singleton_classes_of_the_presentation():
    # A subgroup is normal exactly when its class has one member, so the
    # coset tables alone count the normal subgroups of each type.
    rows = {"g1": "z3_normal", "g2": "g2_normal", "g6": "g6_normal"}
    for n in range(1, 33):
        by_type = {iso: [] for iso in ISO}
        for t in low_index(n, search_limit=32):
            by_type[stabilizer_type(t)].append(t)
        for iso, tables in by_type.items():
            normal = sum(1 for cls in classes_of(tables) if len(cls) == 1)
            assert normal == arith.form_value(catalog.FORMS[rows[iso]], n), (n, iso)
            if (n, iso) == (32, "g1"):
                assert normal == 37  # the published closed form says 39


def test_pruned_search_keeps_one_table_per_class_of_the_unpruned_search():
    # The unpruned backtrack finds every subgroup.  Grouped by the least
    # row-major relabeling of its table, it gives each class's representative,
    # size and member keys, which the pruned search must read off its one
    # table per class and that table's Fix set.
    row_major = oracle._row_major
    found = {}
    for t in unpruned_search(32):
        found.setdefault(t.degree, []).append(t)
    searched = oracle._tables_up_to(32)
    for n in range(1, 33):
        assert low_index(n, search_limit=32) == tuple(found[n]), n  # the same tables, in search order
        least = {}
        sizes, keys = Counter(), Counter()
        for t in found[n]:
            if row_major(t) not in least:
                forms = {row_major(canonical_table(t, b)) for b in range(n)}
                least.update(dict.fromkeys(forms, min(forms)))
            sizes[least[row_major(t)]] += 1
            keys[table_key(t)] += 1
        pruned_sizes, pruned_keys = Counter(), Counter()
        for t, fix in searched[n]:
            members = oracle._blocks(t, fix)
            assert len(members) == n // len(fix) and n % len(fix) == 0, (t, fix)
            pruned_sizes[row_major(t)] += len(members)
            pruned_keys.update(table_key(t, b) for b in members)
        assert pruned_sizes == sizes, n
        assert pruned_keys == keys, n


def test_table_validation_rejects_garbage():
    with pytest.raises(ValueError):
        CosetTable((1, 0), (0, 1), (0, 0))  # z not a permutation... actually (0,0)
    with pytest.raises(ValueError):
        # permutations fine but the x y z = 1 relator fails
        CosetTable((1, 0), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        # intransitive: everything trivial on 2 points
        CosetTable((0, 1), (0, 1), (0, 1))
    # _replace builds through _make, so it validates too
    t = low_index(2)[0]
    assert t._replace(x=t.x) == t
    with pytest.raises(ValueError, match="not permutations"):
        t._replace(x=(0, 0))


def test_low_index_small_counts():
    assert low_index(0) == ()
    assert oracle._tables_up_to(0) == {}  # without a search, which would find the whole group
    assert len(low_index(1)) == 1
    assert len(low_index(2)) == 3
    assert len(low_index(4, search_limit=8)) == 19
    for n in range(1, 11):
        expect = sum(catalog.count_s(iso, n) for iso in ISO)
        assert len(low_index(n, search_limit=10)) == expect, n


def test_index_two_tables_are_the_three_axis_kernels():
    swap, ident = (1, 0), (0, 1)
    assert set(low_index(2)) == {
        CosetTable(ident, swap, swap),
        CosetTable(swap, ident, swap),
        CosetTable(swap, swap, ident),
    }


def test_no_duplicate_subgroups_in_search_output():
    for n in range(1, 13):
        tables = low_index(n, search_limit=12)
        keys = {canonical_table(t, 0) for t in tables}
        assert len(keys) == len(tables), n


def test_stabilizer_type_examples():
    assert stabilizer_type(low_index(1)[0]) == "g6"
    assert all(stabilizer_type(t) == "g2" for t in low_index(2))
    lam = descriptor_to_table(catalog.enumerate_z3(4)[0])
    assert stabilizer_type(lam) == "g1"


def test_stabilizer_type_constant_on_classes():
    for n in (4, 6, 8, 9, 12):
        for cls in classes_of(low_index(n, search_limit=12)):
            assert len({stabilizer_type(t) for t in cls}) == 1


def test_canonical_table_is_relabeling_invariant():
    rng = random.Random(31)
    for t in low_index(6, search_limit=8)[:12]:
        n = t.degree
        perm = list(range(n))
        rng.shuffle(perm)
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        def relab(xs):
            out = [0] * n
            for old, img in enumerate(xs):
                out[perm[old]] = perm[img]
            return tuple(out)
        shuffled = CosetTable(relab(t.x), relab(t.y), relab(t.z))
        assert canonical_table(shuffled, perm[0]) == canonical_table(t, 0)


@pytest.mark.parametrize("base", [-1, 4, 7])
def test_canonical_table_rejects_a_base_outside_the_cosets(base):
    t = low_index(4, search_limit=4)[0]
    with pytest.raises(ValueError, match=f"base {base} .* degree 4"):
        canonical_table(t, base)


def test_searched_tables_are_standardized():
    # cross_check takes a searched table's base-0 form to be x + y + z as it stands
    for n in range(1, 25):
        for t in low_index(n, search_limit=24):
            assert canonical_table(t, 0) == t, t


def test_relators_are_the_first_three_relator_words():
    assert oracle._RELATORS == ((0, 2, 2, 1, 2, 2), (2, 0, 0, 3, 0, 0), (0, 2, 4))


def test_classes_at_three():
    tables = low_index(3)
    assert len(tables) == 9
    classes = classes_of(tables)
    assert len(classes) == 3 == catalog.count_c("g6", 3)
    assert sorted(len(c) for c in classes) == [3, 3, 3]


def test_classes_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        classes_of([low_index(1)[0], low_index(2)[0]])


# --- descriptor-to-table bridge ---------------------------------------------

def test_whole_group_gives_one_point_table():
    t = descriptor_to_table(catalog.G6Descriptor(1, 1, 1, 0, 0, 0))
    assert t.degree == 1


def test_gamma_x_table():
    gamma_x = catalog.G2Descriptor("x", 1, Hnf2(1, 0, 1), 0, 0)
    t = descriptor_to_table(gamma_x)
    assert t == CosetTable((0, 1), (1, 0), (1, 0))


def test_translation_core_table_is_the_regular_klein_action():
    t = descriptor_to_table(catalog.enumerate_z3(4)[0])
    assert t.degree == 4
    perms = (t.x, t.y, t.z)
    for p in perms:
        assert all(p[p[i]] == i for i in range(4))      # involution
        assert all(p[i] != i for i in range(4))          # fixed-point-free
    assert len(set(perms)) == 3
    assert all(t.z[t.y[t.x[i]]] == i for i in range(4))  # x then y then z = 1


def test_coset_count_equals_declared_index():
    for n in range(1, 13):
        for d in catalog.enumerate_index(n):
            assert descriptor_to_table(d).degree == catalog.index_of(d), d


def test_transversal_labels_match_the_linear_scan():
    for n in range(1, 17):
        for d in catalog.enumerate_index(n):
            assert descriptor_to_table(d) == scan_descriptor_to_table(d), d
    rng = random.Random(43)
    for n in range(17, 25):
        for d in rng.sample(catalog.enumerate_index(n), 40):
            assert descriptor_to_table(d) == scan_descriptor_to_table(d), d


def test_class_keys_match_the_minimum_over_all_basepoints():
    for n in range(1, 17):
        tables = low_index(n, search_limit=16)
        forms = [canonical_table(t, 0) for t in tables]
        keys = oracle._class_keys(tables, [f.x + f.y + f.z for f in forms])
        assert keys == [class_key(t) for t in tables], n


def test_table_membership_agrees_with_contains():
    rng = random.Random(37)
    pool = [d for n in (4, 6, 8, 9, 12) for d in catalog.enumerate_index(n)]
    for d in rng.sample(pool, 60):
        t = descriptor_to_table(d)
        for _ in range(25):
            g = Element(rng.choice(LETTERS), rng.randint(-6, 6),
                        rng.randint(-6, 6), rng.randint(-6, 6))
            assert table_membership(t, g) == catalog.contains(d, g), (d, g)


def test_element_word_reconstructs_the_element():
    from hwcover.group import eval_word
    rng = random.Random(41)
    for _ in range(100):
        g = Element(rng.choice(LETTERS), rng.randint(-5, 5),
                    rng.randint(-5, 5), rng.randint(-5, 5))
        assert eval_word(element_word(g)) == g


def test_catalog_and_oracle_list_the_same_subgroups():
    for n in range(1, 13):
        oracle_keys = Counter(canonical_table(t, 0) for t in low_index(n, search_limit=12))
        catalog_keys = Counter(
            canonical_table(descriptor_to_table(d), 0) for d in catalog.enumerate_index(n)
        )
        assert oracle_keys == catalog_keys, n
        assert all(v == 1 for v in oracle_keys.values()), n


def test_enumeration_error_on_inconsistent_descriptor():
    # an invalid parameter combination (even k) breaks the coset closure
    bogus = catalog.G2Descriptor("x", 2, Hnf2(1, 0, 1), 0, 0)
    with pytest.raises(EnumerationError):
        descriptor_to_table(bogus)


@pytest.mark.parametrize("shift, message", [(1, "enumeration closed at 4 cosets, descriptor says 5"),
                                            (-1, "more than 3 cosets found")])
def test_enumeration_error_when_the_stated_index_is_wrong(monkeypatch, shift, message):
    d = catalog.enumerate_g2(4)[0]
    real = catalog._coset_labels

    def misstated(d):
        key, index = real(d)
        return key, index + shift
    monkeypatch.setattr(catalog, "_coset_labels", misstated)
    with pytest.raises(EnumerationError, match=message):
        descriptor_to_table(d)


# --- cross-check reports -------------------------------------------------------

def test_cross_check_small():
    rep = cross_check(2, oracle_limit=8)
    assert rep.all_match
    cells = {(r.iso): r for r in rep.rows}
    assert cells["g2"].s_oracle == cells["g2"].s_catalog == cells["g2"].s_closed == 3
    assert cells["g2"].c_oracle == 3
    assert rep.tables_bijective is True


def test_cross_check_beyond_oracle_limit():
    rep = cross_check(15, oracle_limit=0)
    assert rep.tables_bijective is None
    g6 = next(r for r in rep.rows if r.iso == "g6")
    assert g6.s_oracle is None and g6.s_closed == 135 and g6.c_closed == 9
    assert rep.all_match


def test_cross_check_trivial_index():
    rep = cross_check(1, oracle_limit=4)
    assert rep.all_match
    g6 = next(r for r in rep.rows if r.iso == "g6")
    assert g6.s_oracle == g6.c_oracle == 1


def test_csv_rows_shape():
    rep = cross_check(2, oracle_limit=4)
    rows = csv_rows(rep)
    assert len(rows) == 3
    assert rows[0][0] == 2 and rows[0][1] == "g1"
    assert all(len(row) == 9 for row in rows)


def test_hard_cap_guard():
    assert HARD_CAP == 96
    with pytest.raises(ValueError):
        low_index(97, search_limit=97)


def _swap_one_key(monkeypatch, victim, replacement):
    real = oracle.descriptor_key

    def patched(d):
        return replacement(d) if d == victim else real(d)
    monkeypatch.setattr(oracle, "descriptor_key", patched)


def test_cross_check_names_the_first_differing_table(monkeypatch):
    victim, other = catalog.enumerate_g2(6)[:2]
    missing, doubled = (oracle.descriptor_key(d) for d in (victim, other))
    _swap_one_key(monkeypatch, victim, lambda d: doubled)
    rep = cross_check(6, oracle_limit=6)
    assert rep.tables_bijective is False and not rep.all_match
    # the victim's subgroup is missing from the catalog side and the other's is
    # doubled; the oracle holds both, and the report names the table of the one
    # whose key comes first
    k = min(missing, doubled)
    t = canonical_table(descriptor_to_table(victim if k == missing else other), 0)
    counts = "oracle 1, catalog 0" if k == missing else "oracle 1, catalog 2"
    assert rep.failure == f"table x={t.x} y={t.y} z={t.z}: {counts}"
    assert cross_check(6, oracle_limit=0).failure is None


def test_cross_check_names_the_descriptor_of_a_key_only_the_catalog_holds(monkeypatch):
    # the victim claims the translation subgroup Lambda, of index 4, whose key
    # comes before every key of index 6; no table of degree 6 holds it
    victim = catalog.enumerate_g2(6)[3]
    lam = oracle.descriptor_key(catalog.enumerate_z3(4)[0])
    _swap_one_key(monkeypatch, victim, lambda d: lam)
    rep = cross_check(6, oracle_limit=6)
    assert rep.tables_bijective is False and not rep.all_match
    assert rep.failure == f"{victim!r}: oracle 0, catalog 1"


def test_cross_check_names_the_descriptor_whose_table_fails(monkeypatch):
    victim = catalog.enumerate_z3(8)[3]

    def fail(d):
        raise EnumerationError("closed early")
    _swap_one_key(monkeypatch, victim, fail)
    rep = cross_check(8, oracle_limit=8)
    assert rep.tables_bijective is False
    assert rep.failure == f"{victim!r}: EnumerationError: closed early"


def test_cross_check_reports_a_failing_enumeration_in_its_row(monkeypatch):
    real = catalog.enumerate_iso

    def enumerate_iso(iso, n):
        if iso == "g2":
            raise RuntimeError("no planes")
        return real(iso, n)
    monkeypatch.setattr(catalog, "enumerate_iso", enumerate_iso)
    rep = cross_check(2, oracle_limit=2)
    g2 = next(r for r in rep.rows if r.iso == "g2")
    assert g2.s_catalog is None and g2.failure == "RuntimeError: no planes"
    assert g2.c_catalog == g2.s_closed == 3
    assert rep.tables_bijective is False and not rep.all_match


def test_cross_check_names_the_relator_a_faulty_arithmetic_breaks(monkeypatch):
    from hwcover import group
    broken = dict(group.LETTER_PRODUCT)
    broken["x", "y"] = ("z", 0, 0, 1)  # wrong translation correction
    monkeypatch.setattr(group, "LETTER_PRODUCT", broken)
    rep = cross_check(3, oracle_limit=3)
    assert rep.tables_bijective is False and not rep.all_match
    assert rep.failure == "relator x y y X y y evaluates to z^4 in the normal-form arithmetic"


# --- subgroup keys ---------------------------------------------------------------

def test_descriptor_tables_read_back_to_the_descriptor_key():
    # the group-arithmetic bridge ties the two readers of a subgroup key together
    for n in range(1, 25):
        for d in catalog.enumerate_index(n):
            assert table_key(descriptor_to_table(d)) == descriptor_key(d), d


def test_searched_tables_have_distinct_keys():
    for n in range(1, 25):
        keys = [table_key(t) for t in low_index(n, search_limit=24)]
        assert len(set(keys)) == len(keys), n


def test_keys_are_read_in_the_half_exponents_a_b_c():
    lam = catalog.enumerate_z3(4)[0]
    assert descriptor_key(lam) == (Hnf3(1, 0, 0, 1, 0, 1), ())
    # <y^3, x^2, z^2>: T = <y^6, x^2, z^2> has b-period 3, and y^3 = y y^2
    cube_y = catalog.G2Descriptor("y", 3, Hnf2(1, 0, 1), 0, 0)
    assert descriptor_key(cube_y) == (Hnf3(1, 0, 0, 3, 0, 1), (("y", (0, 1, 0)),))
