"""Brute-force verification by systematic coset-table search.

Independent of the catalog machinery, every index-n subgroup of

    < x, y, z | x y^2 x^-1 y^2 = y x^2 y^-1 x^2 = x y z = 1 >

is found as a transitive permutation action of the generators on n points
with a marked basepoint (the subgroup is the basepoint stabilizer).  The
relators are the first three of ``group.RELATOR_WORDS``.  The search is the
classical low-index backtrack: fill coset-table entries in scan order,
propagate relator consequences after every definition, and introduce new
cosets in first-appearance order so that each subgroup is met exactly once.
Its column order x, x^-1, y, y^-1, z, z^-1 is also the relabeling's, so
every table it meets is standardized (Sims): its own base-0 form.  One
walk, ``_backtrack``, holds the partial table, the propagation, the scan
for the next gap, the branch and the undo; each caller passes it one step,
run at every child, that carries the caller's state down or prunes the
child.  The class-pruned ``_search`` below and the test suite's unpruned
witness differ only by their steps.

Conjugacy classes are found during the search, not relabeled afterwards.
Two stabilizers are conjugate exactly when their tables agree after
forgetting the basepoint, and the n basepoint relabelings of one table are
the base-0 forms of its class members.  The search keeps the least of them
in row-major (coset, column) order, pruning every partial table that a
relabeling from another coset already beats, and ``classes_of`` keys the
classes of tables given from outside by the same least member.  With a kept
table comes its Fix set, the cosets whose stabilizer is the basepoint's: the
blocks Fix g are the class members, so ``low_index`` expands a class into
its subgroups and ``cross_check`` reads one key per block.  Kept tables are
plain tuples; only tables handed out of the module are validated.

The cross-check compares the subgroups of both sides by key, and reads no
coset table off a descriptor.  The subgroup H meets the translations Lambda
in a lattice T and is the union of r T over a transversal R, one r per
letter of H.  Its key is T in Hermite normal form over the half-exponents
(a, b, c), then (letter, translation mod T) for each non-identity letter of
H, in letter order; ``_subgroup_key`` builds it for both sides.
``_member_keys`` reads the keys of all member basepoints of a table in one
pass, with one walk and one ``hnf3_of`` per table: the walk of one square
orbit under x^2, y^2, z^2 gives each point p of it a half-exponent vector
v(p), and each edge outside its spanning tree a Schreier generator of T.
Each letter l maps that orbit onto another, with the vectors and T flipped
by its signs s_l, and these images are all the orbits.  Every point of an
orbit has its T, as Lambda is abelian, and a base b in it takes the vectors
shifted by v(b): a letter whose image of b lies in the orbit belongs to H
with translation v(b) - v of that image.  ``table_key``
is the same reader at the basepoint.  ``descriptor_key`` reads the key from
``catalog.abc_cosets``, which gives T over (a, b, c) for every type.  The
key's number of letters is the stabilizer's type.
Both keys speak normal forms, so the cross-check also checks that the
normal-form arithmetic kills every word of ``group.RELATOR_WORDS``.

``descriptor_to_table`` is the bridge the other way, and the witness that
ties the two readers together: it builds a descriptor's table by coset
enumeration over the exact group arithmetic, labelling each coset in O(1)
with ``catalog.coset_labels`` (the translation coset (g r) T with the least
letter, reduced mod T, names gH; the right coset Hg is labeled by g^-1 H),
and reading that table back gives the descriptor's own key.

References: Holt, Eick, O'Brien, "Handbook of Computational Group Theory",
chapter 5 (coset enumeration, Schreier generators and the low-index
subgroups algorithm); Sims, "Computation with Finitely Presented Groups"
(1994), on low-index subgroups, standardized coset tables and Hermite
normal forms.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import catalog
from .group import IDENTITY, RELATOR_WORDS, SIGNS, TOKEN_ELEMENT, Element, eval_word, parse_word
from .catalog import Descriptor
from .lattice import Hnf3, hnf3_of, transform3

# Generator columns x, x^-1, y, y^-1, z, z^-1, one per word token, for every
# table of the module, searched or relabeled; column g's inverse is g ^ 1.
_TOKENS = "xXyYzZ"
_COLS = len(_TOKENS)
# The three defining relators of the presentation, as column codes.
_RELATORS = tuple(tuple(map(_TOKENS.index, parse_word(word))) for word in RELATOR_WORDS[:3])

# All cyclic rotations of the relators, bucketed by first column; scans of
# exactly these words at a fresh table entry cover every relator cycle
# through that entry.
_ROT: tuple[tuple[tuple[int, ...], ...], ...] = tuple(
    tuple(
        rel[i:] + rel[:i]
        for rel in sorted(_RELATORS, key=len)
        for i in range(len(rel))
        if rel[i] == g
    )
    for g in range(_COLS)
)

DEFAULT_ORACLE_LIMIT = 16
HARD_CAP = 128


class _Images(NamedTuple):
    """Images of x, y, z on the points 0 .. degree - 1, not validated."""

    x: tuple[int, ...]
    y: tuple[int, ...]
    z: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.x)

    def perms(self) -> tuple[tuple[int, ...], ...]:
        """Images per column (x, x^-1, y, y^-1, z, z^-1)."""
        x, y, z = self
        return x, _inverse_perm(x), y, _inverse_perm(y), z, _inverse_perm(z)


class CosetTable(_Images):
    """Transitive relator-respecting action of x, y, z on {0..n-1}, basepoint 0.

    Validity (permutations, transitivity, trivial relator action) is asserted
    by __post_init__ on every construction, _make and _replace included, so a
    CosetTable value is always a genuine subgroup.
    """

    __slots__ = ()

    def __new__(cls, x: tuple[int, ...], y: tuple[int, ...], z: tuple[int, ...]) -> "CosetTable":
        self = super().__new__(cls, x, y, z)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, images: Iterable[tuple[int, ...]]) -> "CosetTable":
        return cls(*images)

    def __post_init__(self) -> None:
        n = len(self.x)
        pts = set(range(n))
        for perm in (self.x, self.y, self.z):
            if len(perm) != n or set(perm) != pts:
                raise ValueError("generator images are not permutations of equal degree")
        perms = self.perms()
        for rel in _RELATORS:
            for c in range(n):
                p = c
                for g in rel:
                    p = perms[g][p]
                if p != c:
                    raise ValueError(f"relator {rel} acts nontrivially at coset {c}")
        if _relabeled(list(zip(*perms)), 0).degree != n:
            raise ValueError("action is not transitive")


def _inverse_perm(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _relabeled(rows: Sequence[Sequence[int]], base: int) -> _Images:
    """The orbit of base relabeled breadth-first from base, rows[p] holding p's images per
    column: each point, in the order numbered, is read over the columns in their order, as
    the search reads its rows, and a point met first takes the next number.  Not validated.
    """
    number = [-1] * len(rows)
    number[base] = 0
    order = [base]
    for c in order:  # order grows while it is scanned
        for d in rows[c]:
            if number[d] < 0:
                number[d] = len(order)
                order.append(d)
    return _Images(*(tuple([number[rows[c][g]] for c in order]) for g in (0, 2, 4)))


# ---------------------------------------------------------------------------
# Low-index search
# ---------------------------------------------------------------------------

# A class representative: the table, and its Fix set, the points whose
# stabilizer is the basepoint's (0 first, then ascending).
_Rep = tuple[_Images, tuple[int, ...]]


def _backtrack(max_index: int, step: Callable[..., Iterator[Any]],
               root: Any = None) -> Iterator[tuple[_Images, Any]]:
    """Walk the backtrack depth first; yield each complete table with its state, in order.

    The walk keeps one partial table, at the root one coset with no entries
    and the state root.  At each node it fills the first empty entry (c, g)
    in row-major order with each coset d in turn: each existing one whose
    column g^-1 is free, then a new coset numbered len(table) while that is
    below max_index.  When the relators propagate from the entry without a
    clash, step(table, d, n, state) runs on the node's state, n the number
    of cosets before the entry: a generator that yields the child's state,
    or nothing to prune the child, and undoes its own changes when resumed.
    The walk then undoes the entry and its consequences.  A state yielded
    with a table is read before the walk goes on: a resumed step may change it.
    """
    table: list[list[int | None]] = [[None] * _COLS]

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

    def walk(c: int, g: int, state: Any) -> Iterator[tuple[_Images, Any]]:
        # Every entry before the parent's gap (c, g) was filled in the parent,
        # and a child only fills entries, so the scan for the next gap resumes there.
        n = len(table)
        while table[c][g] is not None:
            g += 1
            if g == _COLS:
                c, g = c + 1, 0
                if c == n:
                    yield _images(table), state
                    return
        for d in range(n + (n < max_index)):
            if d == n:  # a new coset, defined by this entry
                table.append([None] * _COLS)
            elif table[d][g ^ 1] is not None:
                continue
            trail: list[tuple[int, int]] = []
            set_entry(c, g, d, trail)
            if propagate([(c, g)], trail):
                for child in step(table, d, n, state):
                    yield from walk(c, g, child)
            for e, h in trail:
                table[e][h] = None
        del table[n:]

    return walk(0, 0, root)


def _images(table: list[list[int | None]]) -> _Images:
    """The images of x, y, z in a complete table of the backtrack."""
    return _Images(*(tuple(row[g] for row in table) for g in (0, 2, 4)))


def _search(max_index: int) -> list[_Rep]:
    """One table per conjugacy class on at most max_index cosets, each with its Fix set.

    The backtrack meets standardized tables only; the step here keeps the
    one that is the least relabeling of its class in row-major (coset,
    column) order, and its state is the list of live cursors.  Each coset b
    gets a cursor when it is created: the breadth-first relabeling from b,
    compared with the table itself up to the first entry undefined on either
    side.  A node only adds entries, so a comparison once decided holds in
    every completion: a relabeling that is less prunes the subtree, and one
    that is greater drops b for the subtree.  The cursors left at a complete
    table are those of the b whose relabeling is the table itself, that is
    whose stabilizer is the basepoint's.
    """

    def resume(table: list[list[int | None]], cursor: list) -> int:
        """Compare b's relabeling with the table from the cursor on.

        A cursor is [b, row, column, order, number]: the breadth-first order of
        the cosets from b, so far, and each one's number in it (number is a list
        of length max_index, -1 where a coset is not numbered yet).  Returns
        -1 if the relabeling is less, 1 if it is greater, else 0 with the
        cursor left at the first undefined entry, or past the last row once
        the table is complete.
        """
        _, k, g, order, number = cursor
        m = len(order)
        while k < m:
            row, own = table[order[k]], table[k]
            while g < _COLS:
                d, e = row[g], own[g]
                if d is None or e is None:
                    cursor[1], cursor[2] = k, g
                    return 0
                q = number[d]
                if q < 0:
                    q = number[d] = m
                    m += 1
                    order.append(d)
                if q != e:
                    return -1 if q < e else 1
                g += 1
            k, g = k + 1, 0
        cursor[1], cursor[2] = k, g
        return 0

    def step(table: list[list[int | None]], d: int, n: int,
             live: list[list]) -> Iterator[list[list]]:
        if d == n:
            number = [-1] * max_index
            number[n] = 0
            cursors = live + [[n, 0, 0, [n], number]]
        else:
            cursors = live
        moved = []  # each cursor that resumes, with the state to restore
        kept = []
        for cursor in cursors:
            _, k, h, order, _ = cursor
            if table[order[k]][h] is None or table[k][h] is None:
                kept.append(cursor)  # held up by the same entry as before
                continue
            moved.append((cursor, k, h, len(order)))
            verdict = resume(table, cursor)
            if verdict < 0:
                break
            if verdict == 0:
                kept.append(cursor)
        else:
            yield kept
        for cursor, k, h, m in moved:
            cursor[1], cursor[2] = k, h
            order, number = cursor[3], cursor[4]
            for p in order[m:]:
                number[p] = -1
            del order[m:]

    return [(images, (0, *(cursor[0] for cursor in live)))
            for images, live in _backtrack(max_index, step, [])]


@lru_cache(maxsize=8)
def _tables_up_to(max_index: int) -> dict[int, tuple[_Rep, ...]]:
    """The class representatives on at most max_index cosets by degree, in search order."""
    if max_index < 1:
        return {}
    if max_index > HARD_CAP:
        raise ValueError(f"index limit {max_index} exceeds the hard cap {HARD_CAP}")
    by_degree: dict[int, list[_Rep]] = {}
    for rep in _search(max_index):
        by_degree.setdefault(rep[0].degree, []).append(rep)
    return {n: tuple(reps) for n, reps in by_degree.items()}


def _blocks(t: _Images, fix: Sequence[int]) -> list[int]:
    """One point of each block Fix g, the points with a common stabilizer.

    These blocks are permuted by the action, and the image of a block is the
    block of the image of any of its points, so walking them from Fix visits
    each point once.  There is one block per member of the class.
    """
    seen = set(fix)
    blocks = [list(fix)]
    for points in blocks:  # blocks grows while it is scanned
        for perm in t:
            if perm[points[0]] not in seen:
                image = [perm[p] for p in points]
                seen.update(image)
                blocks.append(image)
    return [points[0] for points in blocks]


def _row_major(t: _Images) -> tuple[int, ...]:
    """The table read row by row over the columns x, x^-1, y, y^-1, z, z^-1."""
    return tuple(chain.from_iterable(zip(*t.perms())))


def low_index(n: int, search_limit: int | None = None) -> tuple[CosetTable, ...]:
    """Coset tables of all index-n subgroups, each exactly once.

    Each is the standardized table of its subgroup, and they come in the
    order of their row-major forms, the order an unpruned backtrack finds
    them in.  search_limit (>= n) selects the cached search run to draw
    from, so a loop over n = 1..N with search_limit=N triggers a single
    backtrack.
    """
    reps = _tables_up_to(max(n, search_limit or 0)).get(n, ())
    return tuple(sorted((canonical_table(t, b) for t, fix in reps for b in _blocks(t, fix)),
                        key=_row_major))


# ---------------------------------------------------------------------------
# Classification and canonical labeling
# ---------------------------------------------------------------------------

def _subgroup_key(lattice: Hnf3, reps: Iterable[tuple[str, tuple[int, int, int]]]) -> tuple:
    """Key of the subgroup H = R T: T, then (letter, translation mod T) per r in R.

    lattice is T over the half-exponents (a, b, c); reps holds (letter, (a,
    b, c)) for the non-identity letters of H, each with any translation of
    H on that letter.
    """
    return lattice, tuple(sorted((letter, lattice.reduce_coset(v)) for letter, v in reps))


def _square_walk(t: _Images, root: int) -> tuple[dict[int, tuple[int, int, int]], Hnf3]:
    """The square orbit of root: each point's half-exponent vector from root, and T.

    Walking the orbit of root under x^2, y^2, z^2 gives each point p of it a
    vector v(p) with root lambda_v(p) = p.  An edge p -> q along the i-th
    square puts lambda of v(p) + e_i - v(q) in T = H meet Lambda, and these
    Schreier generators span T.
    """
    x, y, z = t.x, t.y, t.z
    vec = {root: (0, 0, 0)}
    order = [root]
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
    return vec, hnf3_of(schreier)


def _member_keys(t: _Images, bases: Iterable[int]) -> list[tuple]:
    """Subgroup keys of the stabilizers H of the bases, read off the table, in order.

    The square orbit of a base b is the set of cosets H lambda.  Every point
    of it has the same T, as Lambda is abelian, and b takes the orbit's
    vectors shifted by v(b): b lambda_(v(p) - v(b)) = p.  A letter l with
    b l = q in the orbit puts l lambda_(v(b) - v(q)) in H.  Only the orbit of
    the first base is walked.  As lambda l = l s_l(lambda), a letter l maps
    it onto the orbit of its points p l, with the vectors s_l(v(p)) and the
    lattice s_l(T); the action is transitive, so these images are all the
    orbits, and as l^2 is in Lambda, a base b lies in the image under an l
    with b l in the walked orbit.
    """
    x, y, z = t.x, t.y, t.z
    letters = (("x", x), ("y", y), ("z", z))
    walks: list[tuple[dict[int, tuple[int, int, int]], Hnf3]] = []
    keys = []
    for base in bases:
        walk = next((w for w in walks if base in w[0]), None)
        if walk is None:
            if walks:
                vec, lattice = walks[0]
                letter, perm = next((l, perm) for l, perm in letters if perm[base] in vec)
                sa, sb, sc = signs = SIGNS[letter]
                walk = ({perm[p]: (sa * a, sb * b, sc * c) for p, (a, b, c) in vec.items()},
                        transform3(lattice, signs))
            else:
                walk = _square_walk(t, base)
            walks.append(walk)
        vec, lattice = walk
        a, b, c = vec[base]
        images = ((letter, vec.get(perm[base])) for letter, perm in letters)
        keys.append(_subgroup_key(lattice, (
            (letter, (a - v[0], b - v[1], c - v[2])) for letter, v in images if v is not None)))
    return keys


def table_key(t: CosetTable) -> tuple:
    """Subgroup key of the basepoint stabilizer, read off the table."""
    return _member_keys(t, (0,))[0]


def descriptor_key(d: Descriptor) -> tuple:
    """Subgroup key of the descriptor, read from catalog.abc_cosets(d)."""
    lattice, reps = catalog.abc_cosets(d)
    return _subgroup_key(lattice, ((r.letter, (r.a, r.b, r.c)) for r in reps[1:]))


def _key_type(key: tuple) -> str:
    """Isomorphism type g1, g2 or g6 of a keyed subgroup: |R| is 1, 2 or 4."""
    return {0: "g1", 1: "g2", 3: "g6"}[len(key[1])]


def stabilizer_type(t: CosetTable) -> str:
    """Isomorphism type of the basepoint stabilizer (g1, g2 or g6), read from its key."""
    return _key_type(table_key(t))


def canonical_table(t: CosetTable, base: int = 0) -> CosetTable:
    """Relabel cosets by breadth-first order from base, one of the cosets 0 .. degree - 1."""
    if base not in range(t.degree):
        raise ValueError(f"base {base!r} is not a coset of a table of degree {t.degree}")
    return CosetTable(*_relabeled(list(zip(*t.perms())), base))


def classes_of(tables: Iterable[CosetTable]) -> list[list[CosetTable]]:
    """Group tables of one degree into conjugacy classes of stabilizers.

    A class is keyed by its least member in row-major order, the table the search keeps
    for it, and the classes come in that order.  The relabelings of the first table met
    of a class from every basepoint are the base-0 forms of its members.
    """
    tables = list(tables)
    degrees = {t.degree for t in tables}
    if len(degrees) > 1:
        raise ValueError(f"tables of mixed degree: {sorted(degrees)}")
    key_of: dict[_Images, tuple[int, ...]] = {}
    buckets: dict[tuple[int, ...], list[CosetTable]] = {}
    for t in tables:
        if t not in key_of:  # else t is a member's base-0 form, or a table met before
            rows = list(zip(*t.perms()))
            form = _relabeled(rows, 0)
            if form not in key_of:
                members = {_relabeled(rows, b) for b in range(t.degree)}
                key_of.update(dict.fromkeys(members, min(map(_row_major, members))))
            key_of[t] = key_of[form]
        buckets.setdefault(key_of[t], []).append(t)
    return [buckets[key] for key in sorted(buckets)]


# ---------------------------------------------------------------------------
# Catalog <-> oracle bridge
# ---------------------------------------------------------------------------

class EnumerationError(RuntimeError):
    """Coset enumeration of a descriptor disagreed with its stated index."""


_INVERSE_GENERATORS = (TOKEN_ELEMENT["X"], TOKEN_ELEMENT["Y"], TOKEN_ELEMENT["Z"])


def descriptor_to_table(d: Descriptor) -> CosetTable:
    """Permutation action on the right cosets of the descriptor's subgroup.

    Built by breadth-first coset enumeration over the exact group
    arithmetic; basepoint 0 is the subgroup itself, and each right coset Hg
    is found by the label of the left coset g^-1 H.  Raises EnumerationError
    when the enumeration does not close at exactly index_of(d) cosets or
    does not give a valid table (a diagnostic for inconsistent parameters,
    e.g. under fault injection).
    """
    key, expected = catalog.coset_labels(d)
    inverses: list[Element] = [IDENTITY]  # g^-1 of each coset Hg, in BFS order
    labels = {key(IDENTITY): 0}
    images: tuple[list[int], ...] = ([], [], [])
    for inv in inverses:  # inverses grows while it is scanned
        for gen_inv, column in zip(_INVERSE_GENERATORS, images):
            moved = gen_inv * inv
            target = labels.setdefault(key(moved), len(inverses))
            if target == len(inverses):
                if target >= expected:
                    raise EnumerationError(f"more than {expected} cosets found for {d!r}")
                inverses.append(moved)
            column.append(target)
    if len(inverses) != expected:
        raise EnumerationError(
            f"enumeration closed at {len(inverses)} cosets, descriptor says {expected}"
        )
    try:
        return CosetTable(*map(tuple, images))
    except ValueError as exc:
        raise EnumerationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Three-way cross-check
# ---------------------------------------------------------------------------

class CountRow(NamedTuple):
    """One (index, type) cell of the verification report.

    Oracle columns are None beyond the oracle limit; match requires every
    present column to agree.  A catalog column is None when its computation
    raised; ``failure`` then holds "type: message" of the exception.
    ``cli`` writes the row's columns and match; it does not write failure.
    """

    n: int
    iso: str
    s_closed: int
    s_catalog: int | None
    s_oracle: int | None
    c_closed: int
    c_catalog: int | None
    c_oracle: int | None
    failure: str | None = None

    @property
    def match(self) -> bool:
        columns = ((self.s_closed, self.s_catalog, self.s_oracle),
                   (self.c_closed, self.c_catalog, self.c_oracle))
        return all(cat == closed and orc in (None, closed) for closed, cat, orc in columns)


class CrossCheckReport(NamedTuple):
    """Rows of one index, plus whether the oracle and catalog tables coincide.

    ``failure`` names the descriptor whose subgroup key raised, with the
    exception, or a relator that the normal-form arithmetic does not kill, or
    the first subgroup key in key order whose multiplicities differ: by the
    oracle's table when the oracle holds that key, else by the descriptor.
    ``cli`` writes the rows and tables_bijective, and omits failure.
    """

    n: int
    rows: tuple[CountRow, ...]
    tables_bijective: bool | None  # None when the oracle was not run
    failure: str | None = None

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.rows) and self.tables_bijective is not False


def _arithmetic_failure() -> str | None:
    """The first relator word that the normal-form arithmetic does not kill, if any.

    The oracle's keys are read from the presentation and the catalog's from
    normal forms; they name the same subgroups only if the arithmetic of
    normal forms is that of the presented group.
    """
    for word in RELATOR_WORDS:
        g = eval_word(word)
        if g != IDENTITY:
            return f"relator {word} evaluates to {g} in the normal-form arithmetic"
    return None


def cross_check(n: int, oracle_limit: int = DEFAULT_ORACLE_LIMIT) -> CrossCheckReport:
    """Compare closed forms, catalog enumeration, and the oracle at index n.

    Disagreements are reported, never raised: a failing catalog or oracle
    computation shows up as a None column (with the exception kept as the
    row's failure) or a false flag.
    """
    use_oracle = 1 <= n <= oracle_limit
    oracle_s: Counter[str] = Counter()
    oracle_c: Counter[str] = Counter()
    oracle_keys: Counter[tuple] = Counter()
    member_of: dict[tuple, tuple[_Images, int]] = {}  # the first (table, base) of each key
    if use_oracle:
        for t, fix in _tables_up_to(oracle_limit).get(n, ()):
            bases = _blocks(t, fix)  # one per class member
            keys = _member_keys(t, bases)
            oracle_keys.update(keys)
            for key, b in zip(keys, bases):
                member_of.setdefault(key, (t, b))
            iso = _key_type(keys[0])
            oracle_s[iso] += len(keys)
            oracle_c[iso] += 1

    rows = []
    bijective: bool | None = None
    failure: str | None = None
    catalog_keys: Counter[tuple] = Counter()
    descriptor_of: dict[tuple, Descriptor] = {}
    catalog_ok = use_oracle
    for iso in catalog.ISO_TYPES:
        failures = []
        try:
            ds = catalog.enumerate_iso(iso, n)
            s_cat: int | None = len(ds)
        except Exception as exc:
            ds, s_cat = [], None
            failures.append(f"{type(exc).__name__}: {exc}")
        try:
            c_cat: int | None = catalog.class_count(iso, n)
        except Exception as exc:
            c_cat = None
            failures.append(f"{type(exc).__name__}: {exc}")
        if use_oracle and s_cat is not None and catalog_ok:
            for d in ds:
                try:
                    key = descriptor_key(d)
                except Exception as exc:
                    catalog_ok = False
                    failure = f"{d!r}: {type(exc).__name__}: {exc}"
                    break
                catalog_keys[key] += 1
                descriptor_of.setdefault(key, d)
        elif use_oracle:
            catalog_ok = False
        rows.append(CountRow(
            n=n, iso=iso,
            s_closed=catalog.count_s(iso, n), s_catalog=s_cat,
            s_oracle=oracle_s[iso] if use_oracle else None,
            c_closed=catalog.count_c(iso, n), c_catalog=c_cat,
            c_oracle=oracle_c[iso] if use_oracle else None,
            failure="; ".join(failures) or None,
        ))
    if use_oracle:
        arithmetic = _arithmetic_failure()
        differ = [k for k in oracle_keys.keys() | catalog_keys.keys()
                  if oracle_keys[k] != catalog_keys[k]]
        failure = failure or arithmetic
        if differ and failure is None:
            k = min(differ)
            if oracle_keys[k]:
                t = canonical_table(*member_of[k])
                named = f"table x={t.x} y={t.y} z={t.z}"
            else:
                named = repr(descriptor_of[k])
            failure = f"{named}: oracle {oracle_keys[k]}, catalog {catalog_keys[k]}"
        bijective = catalog_ok and arithmetic is None and not differ
    return CrossCheckReport(n=n, rows=tuple(rows), tables_bijective=bijective, failure=failure)
