"""Exact arithmetic in the Hantzsche-Wendt manifold group.

The fundamental group of the Hantzsche-Wendt manifold (the orientable flat
3-manifold with first homology Z_4 x Z_4) is

    HW = < x, y, z | x y^2 x^-1 y^2 = y x^2 y^-1 x^2 = x y z = 1 >.

The translation subgroup ``Lambda = <x^2, y^2, z^2>`` is free abelian of rank
3 and normal of index 4, with quotient the Klein four-group.  Every element
has a unique normal form

    g . x^(2a) y^(2b) z^(2c),        g in {1, x, y, z},

and an :class:`Element` stores the coset letter ``g`` together with the three
half-exponents ``(a, b, c)``.  Storing half-exponents removes all parity
bookkeeping: the exponent of x, y or z is twice its half-exponent plus that of g^2.

Conventions (used consistently across the whole package):

* **Conjugation** is ``g^v = v * g * v**-1`` (:meth:`Element.conjugated_by`).
  Note this is the opposite of the ``v**-1 * g * v`` convention some texts use.
* **Affine composition is left to right**: the isometry of a word ``w1 w2``
  applies ``w1`` first (:meth:`AffineIso.then`).  Under this convention the
  assignment x -> S1, y -> S2, z -> S3 of the three screw motions

      S1 : (p, q, r) -> (p + 1, -q, -r + 1)
      S2 : (p, q, r) -> (-p + 1, q + 1, -r)
      S3 : (p, q, r) -> (-p, -q + 1, r + 1)

  satisfies all relators exactly and is faithful, which makes
  :meth:`Element.to_affine` an independent witness for the normal-form
  arithmetic.

Half-exponents are plain Python ints, so there is no overflow to guard
against at any enumeration range.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

E, X, Y, Z = "e", "x", "y", "z"
LETTERS = (E, X, Y, Z)

# Sign pattern picked up by a translation x^(2a) y^(2b) z^(2c) when it is
# pushed from the left of a letter to its right:  lambda . g = g . s_g(lambda).
SIGNS = {
    E: (1, 1, 1),
    X: (1, -1, -1),
    Y: (-1, 1, -1),
    Z: (-1, -1, 1),
}

# Letter products g_i . g_j = letter . x^(2a) y^(2b) z^(2c), stored as
# (letter, a, b, c).  Each of the 16 cells is pinned against the affine
# representation by the test suite; do not edit by hand.
LETTER_PRODUCT = {
    (E, E): (E, 0, 0, 0), (E, X): (X, 0, 0, 0), (E, Y): (Y, 0, 0, 0), (E, Z): (Z, 0, 0, 0),
    (X, E): (X, 0, 0, 0), (X, X): (E, 1, 0, 0), (X, Y): (Z, 0, 0, -1), (X, Z): (Y, -1, 0, 1),
    (Y, E): (Y, 0, 0, 0), (Y, X): (Z, 1, -1, 0), (Y, Y): (E, 0, 1, 0), (Y, Z): (X, -1, 0, 0),
    (Z, E): (Z, 0, 0, 0), (Z, X): (Y, 0, -1, 0), (Z, Y): (X, 0, 1, -1), (Z, Z): (E, 0, 0, 1),
}

# Klein four-group structure of the letter quotient (image of the letter
# product with translation corrections dropped).
LETTER_TIMES = {(i, j): LETTER_PRODUCT[i, j][0] for i in LETTERS for j in LETTERS}


class AffineIso(NamedTuple):
    """Affine isometry p -> signs * p + shift with diagonal +-1 linear part.

    Only the four sign patterns of ``SIGNS`` occur; they are closed under
    componentwise multiplication, and shifts stay integral, so composites of
    valid isometries are valid.
    """

    signs: tuple[int, int, int]
    shift: tuple[int, int, int]

    def then(self, other: "AffineIso") -> "AffineIso":
        """Composite that applies ``self`` first, then ``other``."""
        s, t = self.signs, self.shift
        os, ot = other.signs, other.shift
        return AffineIso(
            (s[0] * os[0], s[1] * os[1], s[2] * os[2]),
            (os[0] * t[0] + ot[0], os[1] * t[1] + ot[1], os[2] * t[2] + ot[2]),
        )

    def apply(self, point: tuple[int, int, int]) -> tuple[int, int, int]:
        s, t = self.signs, self.shift
        return (s[0] * point[0] + t[0], s[1] * point[1] + t[1], s[2] * point[2] + t[2])

    def __str__(self) -> str:
        comps = []
        for var, sign, t in zip("pqr", self.signs, self.shift):
            body = var if sign == 1 else f"-{var}"
            if t:
                body += f"+{t}" if t > 0 else str(t)
            comps.append(body)
        return "(p, q, r) -> (" + ", ".join(comps) + ")"


# Images of the letters: 1 -> id, x -> S1, y -> S2, z -> S3.
AFFINE_LETTER = {
    E: AffineIso((1, 1, 1), (0, 0, 0)),
    X: AffineIso((1, -1, -1), (1, 0, 1)),
    Y: AffineIso((-1, 1, -1), (1, 1, 0)),
    Z: AffineIso((-1, -1, 1), (0, 1, 1)),
}


class Element(NamedTuple):
    """Normal form  letter . x^(2a) y^(2b) z^(2c)  of a group element.

    Distinct quadruples are distinct group elements, so tuple equality is
    group equality.  Elements are immutable and safe to share.
    """

    letter: str
    a: int
    b: int
    c: int

    def __mul__(self, other: "Element") -> "Element":  # type: ignore[override]
        lt, da, db, dc = LETTER_PRODUCT[self.letter, other.letter]
        sa, sb, sc = SIGNS[other.letter]
        return Element(
            lt,
            da + sa * self.a + other.a,
            db + sb * self.b + other.b,
            dc + sc * self.c + other.c,
        )

    def inverse(self) -> "Element":
        """(g lambda)^-1 = g . (-s_g(lambda) - q), where g^2 is the translation q."""
        lt = self.letter
        _, qa, qb, qc = LETTER_PRODUCT[lt, lt]
        sa, sb, sc = SIGNS[lt]
        return Element(lt, -sa * self.a - qa, -sb * self.b - qb, -sc * self.c - qc)

    def conjugated_by(self, v: "Element") -> "Element":
        """g^v = v * g * v**-1 (see the module conjugation convention)."""
        return v * self * v.inverse()

    def to_affine(self) -> AffineIso:
        """Faithful affine image (letter isometry, then the translation)."""
        base = AFFINE_LETTER[self.letter]
        t = base.shift
        return AffineIso(base.signs, (t[0] + 2 * self.a, t[1] + 2 * self.b, t[2] + 2 * self.c))

    def __str__(self) -> str:
        parts = [] if self.letter == E else [self.letter]
        parts += [
            f"{sym}^{2 * h}"
            for sym, h in zip("xyz", (self.a, self.b, self.c))
            if h
        ]
        return " ".join(parts) or "1"


IDENTITY = Element(E, 0, 0, 0)
GEN_X = Element(X, 0, 0, 0)
GEN_Y = Element(Y, 0, 0, 0)
GEN_Z = Element(Z, 0, 0, 0)
GENERATORS = {"x": GEN_X, "y": GEN_Y, "z": GEN_Z}

# Word tokens: lowercase = generator, uppercase = its inverse.
TOKEN_ELEMENT = {
    "x": GEN_X, "y": GEN_Y, "z": GEN_Z,
    "X": GEN_X.inverse(), "Y": GEN_Y.inverse(), "Z": GEN_Z.inverse(),
}


def parse_word(text: str) -> list[str]:
    """Split a whitespace-separated word in tokens x y z X Y Z."""
    tokens = text.split()
    for tok in tokens:
        if tok not in TOKEN_ELEMENT:
            raise ValueError(f"bad generator token {tok!r} (expected one of x y z X Y Z)")
    return tokens


def eval_word(word: Iterable[str] | str) -> Element:
    """Normal form of a word; the empty word gives the identity."""
    if isinstance(word, str):
        word = parse_word(word)
    out = IDENTITY
    for tok in word:
        out = out * TOKEN_ELEMENT[tok]
    return out


def translation(a: int, b: int, c: int) -> Element:
    """The translation x^(2a) y^(2b) z^(2c)."""
    return Element(E, a, b, c)


# Relators of the presentation plus the four consequences obtained by
# permuting the generators; eval_word must kill all of them.
RELATOR_WORDS = (
    "x y y X y y",
    "y x x Y x x",
    "x y z",
    "x z z X z z",
    "y z z Y z z",
    "z x x Z x x",
    "z y y Z y y",
)
