"""Normal-form arithmetic, pinned against the affine representation."""

import random

import pytest
from hypothesis import given, strategies as st

from hwcover.group import (
    AFFINE_LETTER,
    AffineIso,
    E,
    GEN_X,
    GEN_Y,
    GEN_Z,
    IDENTITY,
    LETTER_PRODUCT,
    LETTER_TIMES,
    LETTERS,
    RELATOR_WORDS,
    SIGNS,
    Element,
    eval_word,
    parse_word,
    translation,
)

elements = st.builds(
    Element,
    st.sampled_from(LETTERS),
    st.integers(-10, 10),
    st.integers(-10, 10),
    st.integers(-10, 10),
)


def random_element(rng, bound=10):
    return Element(
        rng.choice(LETTERS),
        rng.randint(-bound, bound),
        rng.randint(-bound, bound),
        rng.randint(-bound, bound),
    )


# --- the affine representation is the independent witness -----------------

def test_affine_generators_are_the_three_screw_motions():
    assert GEN_X.to_affine() == AffineIso((1, -1, -1), (1, 0, 1))
    assert GEN_Y.to_affine() == AffineIso((-1, 1, -1), (1, 1, 0))
    assert GEN_Z.to_affine() == AffineIso((-1, -1, 1), (0, 1, 1))
    assert IDENTITY.to_affine() == AffineIso.identity()
    assert translation(1, 0, 0).to_affine() == AffineIso((1, 1, 1), (2, 0, 0))


def test_every_letter_product_cell_matches_the_affine_composite():
    # all 16 cells, including the delicate x.z = y x^-2 z^2 one
    for li in LETTERS:
        for lj in LETTERS:
            p, q = Element(li, 0, 0, 0), Element(lj, 0, 0, 0)
            assert (p * q).to_affine() == p.to_affine().then(q.to_affine()), (li, lj)


def test_affine_homomorphism_on_random_pairs():
    rng = random.Random(20240601)
    for _ in range(2000):
        p, q = random_element(rng), random_element(rng)
        assert (p * q).to_affine() == p.to_affine().then(q.to_affine())


def test_affine_image_is_injective_on_a_box():
    box = [
        Element(lt, a, b, c)
        for lt in LETTERS
        for a in range(-2, 3)
        for b in range(-2, 3)
        for c in range(-2, 3)
    ]
    images = {e.to_affine() for e in box}
    assert len(images) == len(box)


def test_affine_apply_moves_points_correctly():
    # x sends the origin to (1, 0, 1) and (1, 2, 3) to (2, -2, -2)
    sx = GEN_X.to_affine()
    assert sx.apply((0, 0, 0)) == (1, 0, 1)
    assert sx.apply((1, 2, 3)) == (2, -2, -2)


# --- relators --------------------------------------------------------------

def test_all_relators_and_their_consequences_die():
    for word in RELATOR_WORDS:
        assert eval_word(word) == IDENTITY, word


def test_relators_die_in_the_affine_picture_too():
    for word in RELATOR_WORDS:
        iso = AffineIso.identity()
        for tok in parse_word(word):
            gen = AFFINE_LETTER[tok.lower()]
            step = gen if tok.islower() else _affine_inverse(gen)
            iso = iso.then(step)
        assert iso == AffineIso.identity(), word


def _affine_inverse(iso):
    s = iso.signs
    return AffineIso(s, (-s[0] * iso.shift[0], -s[1] * iso.shift[1], -s[2] * iso.shift[2]))


# --- multiplication, inverse, powers ---------------------------------------

def test_multiplication_examples():
    assert GEN_X * GEN_X == Element(E, 1, 0, 0)
    assert IDENTITY * Element("y", 2, -1, 3) == Element("y", 2, -1, 3)
    assert translation(0, 1, 0) * GEN_X == Element("x", 0, -1, 0)
    assert GEN_Y * GEN_X == Element("z", 1, -1, 0)


def test_inverse_examples():
    assert translation(1, 2, 3).inverse() == translation(-1, -2, -3)
    assert IDENTITY.inverse() == IDENTITY
    assert GEN_X.inverse() == Element("x", -1, 0, 0)
    assert GEN_X * Element("x", -1, 0, 0) == IDENTITY


@given(elements)
def test_inverse_is_two_sided(p):
    assert p * p.inverse() == IDENTITY
    assert p.inverse() * p == IDENTITY


@given(elements, elements, elements)
def test_multiplication_is_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(elements, elements)
def test_inverse_antihomomorphism(p, q):
    assert (p * q).inverse() == q.inverse() * p.inverse()


def test_powers():
    assert GEN_Y * GEN_Y * GEN_Y * GEN_Y == translation(0, 2, 0)


# --- exponents, quotient map, conjugation ----------------------------------

def test_exponents_examples():
    assert translation(1, 0, -2).exponents() == (2, 0, -4)
    assert Element("z", 1, 1, 1).exponents() == (2, 2, 3)
    assert IDENTITY.exponents() == (0, 0, 0)


@given(elements, elements)
def test_letter_quotient_is_a_homomorphism(p, q):
    assert (p * q).letter == LETTER_TIMES[p.letter, q.letter]


@given(elements, elements)
def test_exponent_additivity_when_translation_like(p, q):
    # whenever both factors have even y- and z-exponents, x-exponents add
    if p.letter in (E, "x") and q.letter in (E, "x"):
        assert (p * q).exponents()[0] == p.exponents()[0] + q.exponents()[0]


def test_conjugation_examples():
    assert translation(1, 0, 0).conjugated_by(GEN_Y) == translation(-1, 0, 0)
    g = Element("y", 3, -2, 5)
    assert g.conjugated_by(IDENTITY) == g
    assert translation(0, 0, 1).conjugated_by(GEN_Z) == translation(0, 0, 1)


def test_conjugation_sign_table():
    # conjugating the unit translations flips exactly the off-axis signs
    units = (translation(1, 0, 0), translation(0, 1, 0), translation(0, 0, 1))
    for letter in LETTERS:
        v = Element(letter, 0, 0, 0)
        signs = SIGNS[letter]
        for unit, sign in zip(units, signs):
            expect = Element(E, *(sign * h for h in (unit.a, unit.b, unit.c)))
            assert unit.conjugated_by(v) == expect, (letter, unit)


@given(elements, elements, elements)
def test_conjugation_composes_contravariantly(g, v, u):
    # g^(u v) = (g^v)^u under the v g v^-1 convention
    assert g.conjugated_by(v).conjugated_by(u) == g.conjugated_by(u * v)


# --- words ------------------------------------------------------------------

def test_eval_word_examples():
    assert eval_word("x y z") == IDENTITY
    assert eval_word("x y y X y y") == IDENTITY
    assert eval_word([]) == IDENTITY
    assert eval_word("x X") == IDENTITY
    assert eval_word("x x") == translation(1, 0, 0)


def test_parse_word_rejects_bad_tokens():
    with pytest.raises(ValueError):
        parse_word("x q z")


def test_letter_product_table_is_total():
    assert set(LETTER_PRODUCT) == {(i, j) for i in LETTERS for j in LETTERS}


def test_readable_string_forms():
    assert str(IDENTITY) == "1"
    assert str(GEN_X) == "x"
    assert str(translation(1, 0, 0)) == "x^2"
    assert str(Element("y", 2, -1, 3)) == "y x^4 y^-2 z^6"
    assert str(GEN_X.to_affine()) == "(p, q, r) -> (p+1, -q, -r+1)"
    assert str(GEN_Y.to_affine()) == "(p, q, r) -> (-p+1, q+1, -r)"
    assert str(AffineIso.identity()) == "(p, q, r) -> (p, q, r)"
