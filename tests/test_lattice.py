"""HNF sublattice enumeration: uniqueness, counts, membership."""

import itertools
import random

import pytest

from hwcover import catalog
from hwcover.arith import omega
from hwcover.lattice import (
    Hnf2,
    Hnf3,
    hnf2_all,
    hnf2_of,
    hnf3_of,
    transform2,
    transform3,
)


def hnf3_all(n):
    """Every index-n sublattice of Z^3: the lattices of the Z^3-type subgroups of index 4n."""
    return [d.lattice for d in catalog.iter_iso("g1", 4 * n)]


def brute_sigma1(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_2d_counts():
    for n in range(1, 40):
        lats = hnf2_all(n)
        assert len(lats) == brute_sigma1(n)
        assert len(set(lats)) == len(lats)
        assert all(h.index == n for h in lats)


def test_3d_counts():
    for n in range(1, 20):
        lats = hnf3_all(n)
        assert len(lats) == omega(n)
        assert len(set(lats)) == len(lats)
        assert all(h.index == n for h in lats)


def test_enumerations_are_generated_in_increasing_order():
    for n in range(1, 65):
        assert hnf2_all(n) == sorted(hnf2_all(n)), n
        assert hnf3_all(n) == sorted(hnf3_all(n)), n


def test_membership_of_basis_and_combinations():
    rng = random.Random(3)
    for h in rng.sample(hnf3_all(12), 10):
        c1, c2, c3 = h.columns()
        for _ in range(20):
            i, j, k = rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)
            v = tuple(i * a + j * b + k * c for a, b, c in zip(c1, c2, c3))
            assert h.reduce_coset(v) == (0, 0, 0)


def test_membership_density_in_a_period_box():
    # an index-n sublattice contains n Z^3, so membership is n-periodic and
    # the box [0, n)^3 holds exactly n^3 / n = n^2 lattice points
    for n in (2, 3, 4, 6):
        for h in hnf3_all(n):
            hits = sum(
                h.reduce_coset((i, j, k)) == (0, 0, 0)
                for i in range(n) for j in range(n) for k in range(n)
            )
            assert hits == n * n, h
    for n in (2, 3, 4, 5, 6, 8):
        for h in hnf2_all(n):
            hits = sum(h.reduce_coset(i, j) == (0, 0) for i in range(n) for j in range(n))
            assert hits == n, h


def test_2d_distinct_as_point_sets():
    lats = hnf2_all(12)
    for i, A in enumerate(lats):
        for B in lats[i + 1:]:
            same = all(B.reduce_coset(*v) == (0, 0) for v in A.columns()) and all(
                A.reduce_coset(*v) == (0, 0) for v in B.columns()
            )
            assert not same, (A, B)


def test_canonicalization_is_basis_independent():
    rng = random.Random(11)
    for h in rng.sample(hnf3_all(24), 15):
        cols = [list(c) for c in h.columns()]
        for _ in range(12):  # random unimodular column operations
            a, b = rng.sample(range(3), 2)
            q = rng.randint(-3, 3)
            cols[a] = [u + q * v for u, v in zip(cols[a], cols[b])]
        rng.shuffle(cols)
        assert hnf3_of(cols) == h
    for h in rng.sample(hnf2_all(30), 10):
        cols = [list(c) for c in h.columns()]
        for _ in range(8):
            a, b = rng.sample(range(2), 2)
            q = rng.randint(-3, 3)
            cols[a] = [u + q * v for u, v in zip(cols[a], cols[b])]
        assert hnf2_of(cols) == h


def test_transforms_match_hnf_of_flipped_columns():
    # reference: flip the basis columns and renormalize with the generic HNF
    for n in range(1, 41):
        for h in hnf2_all(n):
            for signs in itertools.product((1, -1), repeat=2):
                flipped = [(signs[0] * u, signs[1] * v) for u, v in h.columns()]
                assert transform2(h, signs) == hnf2_of(flipped), (h, signs)
    for n in range(1, 25):
        for h in hnf3_all(n):
            for signs in itertools.product((1, -1), repeat=3):
                flipped = [tuple(s * u for s, u in zip(signs, col)) for col in h.columns()]
                assert transform3(h, signs) == hnf3_of(flipped), (h, signs)


def test_transforms_are_involutions():
    for h in hnf2_all(18):
        assert transform2(transform2(h, (1, -1)), (1, -1)) == h
    for h in hnf3_all(8):
        assert transform3(transform3(h, (1, -1, -1)), (1, -1, -1)) == h


def test_negating_everything_fixes_any_lattice():
    for h in hnf3_all(12):
        assert transform3(h, (-1, -1, -1)) == h
    for h in hnf2_all(24):
        assert transform2(h, (-1, -1)) == h


def test_reduce_coset_is_a_transversal():
    h = Hnf2(b=4, c=3, a=2)
    reps = {h.reduce_coset(s, t) for s in range(-8, 9) for t in range(-8, 9)}
    assert reps == {(s, t) for s in range(4) for t in range(2)}
    # reduction respects the lattice: difference is always a member
    for s in range(-8, 9):
        for t in range(-8, 9):
            rs, rt = h.reduce_coset(s, t)
            assert h.reduce_coset(s - rs, t - rt) == (0, 0)


def test_reduce_coset_3d_is_a_transversal():
    for h in hnf3_all(12):
        box = list(itertools.product(*(range(-m, 2 * m) for m in (h.c, h.b, h.a))))
        reps = {h.reduce_coset(v) for v in box}
        assert reps == set(itertools.product(range(h.c), range(h.b), range(h.a))), h
        for v in box:
            r = h.reduce_coset(v)
            assert h.reduce_coset(tuple(x - y for x, y in zip(v, r))) == (0, 0, 0), (h, v)


def test_redundant_generators_are_fine():
    h = hnf2_of([(4, 0), (1, 2), (5, 2), (8, 0)])
    assert h == hnf2_of([(4, 0), (1, 2)])
    assert isinstance(h, Hnf2)
    g = hnf3_of([(2, 0, 0), (0, 2, 0), (1, 1, 1), (3, 1, 1)])
    assert isinstance(g, Hnf3)
    assert g.reduce_coset((3, 1, 1)) == (0, 0, 0)


def test_rank_deficient_generators_are_rejected():
    # all on one line through the origin: no finite-index sublattice of Z^2
    with pytest.raises(ValueError, match="do not span"):
        hnf2_of([(2, 4), (1, 2), (3, 6)])
