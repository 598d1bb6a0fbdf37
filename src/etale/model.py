"""Finite truncation models of etale groupoids over a finite unit space.

The groupoid is an action groupoid: elements are pairs ``(unit, word)``
where ``word`` is a group element acting on the unit space from the
right.  The range of ``(u, w)`` is ``u`` and the source is ``u . w``.
Two backends supply the group arithmetic:

* ``FreeGroup(rank)`` -- exact reduced-word arithmetic, words stored as
  tuples of signed letters (``1, -1, 2, -2, ...``);
* ``FiniteGroup(table, generators)`` -- a multiplication table of order
  at most 256 with a designated symmetric generating set.

Each backend's ``ball_tree(L)`` is the one enumeration of the radius-L
ball, and ``ball_words(L)`` reads the words off it in tree order, with no
cache and no walk table: free words in length-lexicographic order with the
letter order ``a < A < b < B < ...``, finite elements in breadth-first
discovery order.
Both go sphere by sphere, so a smaller ball is a prefix of the tree.
A tree row is therefore one integer index of a group element in every
ball that holds it, and ``row_pair_lengths`` reads ``length(w_i^-1 w_j)``
of rows: the tree distance on a free backend, the table on a finite one.
Every fiber's ball is this tree with unit labels ``u . w_i`` attached.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import ModelError, NonComposableError, charge

Word = Union[tuple, int]

DEFAULT_ENUMERATION_BUDGET = 5_000_000

MAX_FINITE_ORDER = 256


def as_int(value) -> int:
    """``int(value)`` of an integral number; ModelError for 2.5, "2", true or any other value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) and not (
            isinstance(value, float) and value.is_integer()):
        raise ModelError(f"expected an integer, got {value!r}")
    return int(value)


def as_float(value) -> float:
    """``float(value)`` of a number finite as a float; ModelError for "0.5",
    true, NaN, an integer past the float range or any other value."""
    if (isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ModelError(f"expected a finite number, got {value!r}")


def as_list(value):
    """``value`` itself when it is a list or tuple; ModelError for 3, "12" or any other value."""
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"expected a JSON list, got {value!r}")
    return value


def as_path(value):
    """``value`` when a ``str`` or ``os.PathLike``; ModelError otherwise, as for an fd number."""
    if not (isinstance(value, str) or hasattr(value, "__fspath__")):  # os.PathLike's own test
        raise ModelError(f"expected a file path, got {value!r}")
    return value


REQUIRED = object()  # a ``take_keys`` default that the object must give


def take_keys(obj, defaults: dict) -> dict:
    """``obj`` over ``defaults``, for a config object or one nested in it: a
    value that is not an object, a key not in ``defaults``, or a ``REQUIRED``
    one left out raises ModelError."""
    if not isinstance(obj, dict):
        raise ModelError(f"expected a JSON object, got {obj!r}")
    unknown = set(obj) - set(defaults)
    if unknown:
        raise ModelError(f"unknown config keys: {sorted(unknown)}")
    out = dict(defaults)
    out.update(obj)
    missing = [k for k, v in out.items() if v is REQUIRED]
    if missing:
        raise ModelError(f"missing required config keys: {missing}")
    return out


class GroupoidElement(NamedTuple):
    """A groupoid element ``(range unit, group word)``."""

    unit: int
    word: Word


def letter_label(letter: int) -> str:
    if letter > 0:
        return chr(ord("a") + letter - 1)
    return chr(ord("A") - letter - 1)


def parse_letter(token: str, rank: int) -> int:
    if len(token) == 1 and "a" <= token <= "z":
        letter = ord(token) - ord("a") + 1
    elif len(token) == 1 and "A" <= token <= "Z":
        letter = -(ord(token) - ord("A") + 1)
    else:
        raise ModelError(f"bad word token {token!r}")
    if abs(letter) > rank:
        raise ModelError(f"token {token!r} outside rank-{rank} alphabet")
    return letter


def tree_pair_lengths(parent, depth, rows) -> np.ndarray:
    """``depth_i + depth_j - 2 depth(lca(i, j))``, the distance of rows i and j
    of a tree rooted at row 0, for all pairs of each tuple of ``rows``, shape
    (tuples, size) -> (tuples, size, size), in the narrowest unsigned type
    that holds twice the deepest row.  ``depth(lca)`` counts the levels at
    which the two rows' ancestors agree, read off the ancestor table one level
    at a time from the deepest; a row above the level stands for its position
    in the tuple, which no other position matches.  Ids are compared in the
    narrowest signed type that holds them, where numpy's compare is fastest."""
    depth = np.asarray(depth)[rows]
    top = int(depth.max(initial=0))
    depth = depth.astype(np.min_scalar_type(2 * top))
    size = rows.shape[-1]
    ids = np.min_scalar_type(-max(len(parent), size) - 1)
    parent, rows = np.asarray(parent).astype(ids), rows.astype(ids)
    alone = -1 - np.arange(size, dtype=ids)
    lca = np.zeros((*rows.shape, size), dtype=depth.dtype)
    same = np.empty(lca.shape, dtype=bool)
    up = rows
    for level in range(top, 0, -1):
        up = np.where(depth > level, parent[up], rows)
        here = np.where(depth >= level, up, alone)
        np.equal(here[..., :, None], here[..., None, :], out=same)
        lca += same
    out = depth[..., :, None] + depth[..., None, :]
    out -= lca
    out -= lca
    out[..., np.arange(size), np.arange(size)] = 0  # a position matches itself at every level
    return out


@dataclass(frozen=True)
class FreeGroup:
    """Free group of the given rank with reduced-word arithmetic."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ModelError("free group rank must be >= 1")

    @property
    def identity(self) -> Word:
        return ()

    @property
    def given_generators(self) -> tuple:
        """The free generators ``a, b, ...`` as the letters ``1, 2, ...``."""
        return tuple(range(1, self.rank + 1))

    def letters(self) -> list[int]:
        out = []
        for i in range(1, self.rank + 1):
            out.extend((i, -i))
        return out

    def mul(self, a: tuple, b: tuple) -> tuple:
        i, j = len(a), 0
        nb = len(b)
        while i > 0 and j < nb and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a: tuple) -> tuple:
        return tuple(-x for x in reversed(a))

    def length(self, w: tuple) -> int:
        return len(w)

    def pair_lengths(self, stack) -> np.ndarray:
        """``length(w_i^-1 w_j)`` for all pairs of reduced words of each tuple
        in a stack of same-size tuples, shape (tuples, size, size): the tree
        distance of their rows in the trie of the stack's words
        (``tree_pair_lengths``)."""
        parent, depth, child, rows = [0], [0], {}, []
        for t in stack:
            for w in t:
                i = 0
                for x in w:
                    j = child.get((i, x))
                    if j is None:
                        j = child[i, x] = len(parent)
                        parent.append(i)
                        depth.append(depth[i] + 1)
                    i = j
                rows.append(i)
        rows = np.array(rows, dtype=np.int64).reshape(len(stack), -1 if stack else 0)
        return tree_pair_lengths(np.array(parent), np.array(depth), rows)

    def row_pair_lengths(self, parent, rows) -> np.ndarray:
        """``pair_lengths`` of rows of a ball tree of ``parent``, an integer
        array of shape (tuples, size): their tree distance."""
        return tree_pair_lengths(parent, self.tree_lengths(len(parent)), rows)

    def sphere_count(self, k: int) -> int:
        if k < 0:
            return 0
        if k == 0:
            return 1
        d = self.rank
        return 2 * d * (2 * d - 1) ** (k - 1)

    def ball_count(self, k: int) -> int:
        """Closed form of ``sum_j<=k sphere_count(j)``, with ``q = 2 rank - 1``."""
        if k < 0:
            return 0
        q = 2 * self.rank - 1
        return 2 * k + 1 if q == 1 else 1 + (q + 1) * (q ** k - 1) // (q - 1)

    @property
    def max_radius(self):
        return None

    def _trie(self, L: int):
        """``(parent, gen)`` of the length-lex trie of the radius-L ball."""
        parent, gen = [np.zeros(1, dtype=np.int64)], [np.full(1, -1)]
        lo = 0  # index of the first node of the last level
        cols = np.arange(2 * self.rank)
        for _ in range(L):
            last = gen[-1]
            # each node's children, in letter order: every column but its
            # letter's inverse (column c ^ 1 is the inverse of c)
            node, col = np.nonzero(cols != (last[:, None] ^ 1))
            parent.append(lo + node)
            lo += len(last)
            gen.append(col)
        return np.concatenate(parent), np.concatenate(gen)

    def ball_tree(self, L: int):
        """The trie with its walk table ``right``, whose row n is the outside."""
        parent, gen = self._trie(L)
        n = len(gen)
        right = np.full((n + 1, 2 * self.rank), n, dtype=np.int64)
        right[parent[1:], gen[1:]] = np.arange(1, n)
        right[np.arange(1, n), gen[1:] ^ 1] = parent[1:]
        return parent, gen, right

    def ball_words(self, L: int) -> list:
        """Words of length <= L in tree order (length-lex, a < A < b < B)."""
        return self.tree_words(*self._trie(L)) if L >= 0 else []

    def sphere_words(self, k: int, indices) -> list:
        """Words ``ball_words(k)[ball_count(k - 1) + j]`` of the length-k sphere
        for each index j, with no ball built: j's digits, in base 2 rank first
        and then base 2 rank - 1, are columns, and each child skips its
        parent's inverse column ``c ^ 1``."""
        rest = np.array(indices, dtype=np.int64)
        cols = np.empty((len(rest), max(k, 0)), dtype=np.int64)
        for i in range(k):
            d, rest = np.divmod(rest, (2 * self.rank - 1) ** (k - 1 - i))
            cols[:, i] = d if i == 0 else d + (d >= cols[:, i - 1] ^ 1)
        return list(map(tuple, np.array(self.letters())[cols].tolist()))

    def tree_words(self, parent, gen) -> list:
        """The words of a ball tree's rows, ``words[i] = words[parent[i]] +
        (letters()[gen[i]],)``."""
        letters = self.letters()
        words = [()]
        for p, c in zip(parent[1:].tolist(), gen[1:].tolist()):
            words.append(words[p] + (letters[c],))
        return words

    def tree_lengths(self, n: int) -> np.ndarray:
        """Word lengths of the first n rows of a ball tree: its depths, sphere by sphere."""
        counts = [1]
        while sum(counts) < n:
            counts.append(min(self.sphere_count(len(counts)), n - sum(counts)))
        return np.repeat(np.arange(len(counts)), counts)[:n]

    def spell(self, w: tuple) -> list[int]:
        """Columns of ``letters()`` whose product is ``w``."""
        if 0 in w:  # its column would be -1, the last letter's
            raise ModelError(f"letter 0 in word {w!r}")
        return [2 * abs(x) - 1 - (x > 0) for x in w]

    def word_to_json(self, w: tuple) -> str:
        return " ".join(letter_label(x) for x in w)

    def word_from_json(self, data) -> tuple:
        if not isinstance(data, str):
            raise ModelError(f"free-group word must be a string, got {data!r}")
        word: tuple = ()
        for token in data.split():
            word = self.mul(word, (parse_letter(token, self.rank),))
        return word


class FiniteGroup:
    """Finite group given by a multiplication table plus a generating set.

    The table is validated (associativity, identity, inverses) and the
    word metric is precomputed by breadth-first search over the
    symmetric closure of ``generators``.
    """

    def __init__(self, table, generators: Sequence[int]):
        rows = [[as_int(x) for x in row] for row in table]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ModelError("multiplication table must be square")
        if n < 1 or n > MAX_FINITE_ORDER:
            raise ModelError(f"finite group order must be in 1..{MAX_FINITE_ORDER}")
        if not all(0 <= x < n for row in rows for x in row):
            raise ModelError("table entries out of range")
        table = np.array(rows, dtype=np.int64)
        # associativity, row by row to bound memory
        for i in range(n):
            if not np.array_equal(table[table[i]], table[i][table]):
                raise ModelError(f"table is not associative (row {i})")
        eye = np.arange(n)
        ids = [e for e in range(n) if np.array_equal(table[e], eye) and np.array_equal(table[:, e], eye)]
        if len(ids) != 1:
            raise ModelError("table has no two-sided identity")
        self.identity = int(ids[0])
        inv = np.argmax(table == self.identity, axis=1)
        if not (np.array_equal(table[eye, inv], np.full(n, self.identity))
                and np.array_equal(table[inv, eye], np.full(n, self.identity))):
            raise ModelError("table has an element without a two-sided inverse")
        self.table = table
        self.order = n
        self.inverse = inv
        gens = []
        for g in generators:
            g = as_int(g)
            if not 0 <= g < n:
                raise ModelError(f"generator {g} out of range")
            for h in (g, int(inv[g])):
                if h not in gens:
                    gens.append(h)
        if not gens:
            raise ModelError("finite backend needs a nonempty generating set")
        self.given_generators = tuple(int(g) for g in generators)
        self.generators = tuple(gens)
        # BFS tree from the identity: ``elements[i]`` is
        # ``elements[parent[i]] . generators[gen[i]]``, and ``_spelling[e]``
        # lists the letter columns along the tree path to ``e``
        self._spelling = {self.identity: []}
        elements, edges = [self.identity], [(0, -1)]  # edges: (parent, gen)
        for i, e in enumerate(elements):  # the list grows as a FIFO queue
            for c, g in enumerate(self.generators):
                f = int(table[e, g])
                if f not in self._spelling:
                    self._spelling[f] = self._spelling[e] + [c]
                    elements.append(f)
                    edges.append((i, c))
        if len(elements) < n:
            raise ModelError("generators do not generate the group")
        # word lengths are below the order, at most 256: a byte holds them
        self.dist = dist = np.array([len(self._spelling[e]) for e in range(n)], dtype=np.uint8)
        self.index = np.argsort(elements)  # element -> its tree row
        right = self.index[table[np.ix_(elements, self.generators)]]
        self._tree = (*np.array(edges).T, right)
        self._elements = elements
        self._element_array = np.array(elements)
        self._sphere_counts = np.bincount(dist).tolist()
        self.max_radius = len(self._sphere_counts) - 1

    def letters(self) -> list[int]:
        return list(self.generators)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def length(self, w: int) -> int:
        return int(self.dist[w])

    def pair_lengths(self, stack) -> np.ndarray:
        """``length(w_i^-1 w_j)`` for all pairs of each tuple in a stack of same-size
        tuples, shape (tuples, size, size), from the table and byte-wide lengths."""
        w = np.array(stack, dtype=np.int64).reshape(len(stack), -1 if len(stack) else 0)
        return self.dist[self.table[self.inverse[w][..., :, None], w[..., None, :]]]

    def row_pair_lengths(self, parent, rows) -> np.ndarray:
        """``pair_lengths`` of rows of the BFS tree, an integer array of shape
        (tuples, size)."""
        return self.pair_lengths(self._element_array[rows])

    def sphere_count(self, k: int) -> int:
        return self._sphere_counts[k] if 0 <= k < len(self._sphere_counts) else 0

    def ball_count(self, k: int) -> int:
        return int(np.count_nonzero(self.dist <= k))

    def ball_tree(self, L: int):
        """The BFS tree of the whole group, for every L."""
        return self._tree

    def ball_words(self, L: int) -> list:
        """Elements of length <= L in BFS discovery order: the first tree rows."""
        return self._elements[:self.ball_count(L)]

    def sphere_words(self, k: int, indices) -> list:
        """Elements ``ball_words(k)[ball_count(k - 1) + j]`` of the length-k sphere."""
        lo = self.ball_count(k - 1)
        return [self._elements[lo + j] for j in indices]

    def tree_words(self, parent, gen) -> list:
        """The elements of the BFS tree's rows."""
        return self._elements[:len(parent)]

    def tree_lengths(self, n: int) -> np.ndarray:
        """Word lengths of the first n rows of the BFS tree."""
        return self.dist[self._element_array[:n]]

    def spell(self, w: int) -> list[int]:
        """Columns of ``letters()`` along the tree path to ``w``."""
        return self._spelling[w]

    def word_to_json(self, w: int) -> int:
        return int(w)

    def word_from_json(self, data) -> int:
        w = as_int(data)
        if not 0 <= w < self.order:
            raise ModelError(f"element id {w} out of range")
        return w


Backend = Union[FreeGroup, FiniteGroup]


def _check_perm(perm, units: int) -> list[int]:
    perm = as_list(perm)
    try:
        p = [int(x) for x in perm]
    except (TypeError, ValueError, OverflowError):  # an entry that is not a number
        p = None
    if p != list(perm) or sorted(p) != list(range(units)):
        raise ModelError(f"action entry {perm!r} is not a permutation of {units} units")
    return p


class GroupoidModel:
    """Action groupoid over ``units`` points with a given group backend.

    ``action`` assigns to each generator a permutation of the unit
    space (the right action of that generator).  Use :func:`build_model`
    rather than this constructor.
    """

    def __init__(self, backend: Backend, units: int, action: Sequence[Sequence[int]]):
        if units < 1:
            raise ModelError("unit space must be nonempty")
        self.backend = backend
        self.units = units
        self.action = [_check_perm(p, units) for p in as_list(action)]
        gens = backend.given_generators
        if len(self.action) != len(gens):
            raise ModelError(f"expected {len(gens)} action permutations, got {len(self.action)}")
        letter_perm = {backend.identity: list(range(units))}
        for g, p in zip(gens, self.action):
            if letter_perm.setdefault(g, p) != p:
                raise ModelError(f"conflicting action for generator {g}")
        # every other letter inverts a given one
        letters = backend.letters()
        free = isinstance(backend, FreeGroup)
        for g in letters:
            if g not in letter_perm:
                gi = -g if free else int(backend.inverse[g])
                letter_perm[g] = np.argsort(letter_perm[gi]).tolist()
        # row c: the permutation of the units made by ``letters()[c]``
        self.letter_perms = np.array([letter_perm[g] for g in letters], dtype=np.int64)
        self._perm_rows = self.letter_perms.tolist()
        if not free:
            # perm(e) = perm(gen) o perm(parent) along the BFS tree, from every
            # unit; then verify it is a right action: perm(e.g) == perm(g) o perm(e)
            # for all e, g
            parent, gen, right = backend.ball_tree(backend.max_radius)
            perm = self.unit_labels(np.arange(units), parent, gen)
            if not np.array_equal(perm[right.T], self.letter_perms[:, perm]):
                raise ModelError("action permutations are not compatible with the multiplication table")

    # -- groupoid structure -------------------------------------------------

    def act(self, u: int, w: Word) -> int:
        """Move unit ``u`` by the right action of ``w``, letter by letter
        along the backend's spelling of it."""
        for c in self.backend.spell(w):
            u = self._perm_rows[c][u]
        return u

    def unit_element(self, u: int) -> GroupoidElement:
        if not 0 <= u < self.units:
            raise ModelError(f"unit {u} out of range")
        return GroupoidElement(u, self.backend.identity)

    def source_unit(self, g: GroupoidElement) -> int:
        return self.act(g.unit, g.word)

    def compose(self, g: GroupoidElement, h: GroupoidElement) -> GroupoidElement:
        if self.source_unit(g) != h.unit:
            raise NonComposableError(f"source of {g} is {self.source_unit(g)}, not {h.unit}")
        return GroupoidElement(g.unit, self.backend.mul(g.word, h.word))

    def inverse(self, g: GroupoidElement) -> GroupoidElement:
        return GroupoidElement(self.source_unit(g), self.backend.inv(g.word))

    def length(self, g: GroupoidElement) -> int:
        return self.backend.length(g.word)

    # -- enumeration --------------------------------------------------------

    def _charge(self, k: int, budget, u: int = 0) -> None:
        """Refuse the radius-k ball past ``budget`` elements (None: the
        default).  On a free backend with q = 2 rank - 1 >= 3 its count
        passes q^(k-1), so a k with q^(k-1) past the budget and 10^30 is
        refused from its logarithm, before a count of k log10(q) digits is formed."""
        self.unit_element(u)
        budget = DEFAULT_ENUMERATION_BUDGET if budget is None else budget
        q = 2 * self.backend.rank - 1 if isinstance(self.backend, FreeGroup) else 1
        if q >= 3 and k - 1 > math.log(max(budget, 10 ** 30)) / math.log(q):
            # log10 of 1 + (q+1)(q^k - 1)/(q-1); past the float range from k = 2^1000
            log10 = k * math.log10(q) + math.log10((q + 1) / (q - 1)) if k < 2 ** 1000 else math.inf
            charge(f"ball of radius {k}", None, "elements", budget, log10=log10)
        charge(f"ball of radius {k}", self.ball_count(k), "elements", budget)

    def sphere(self, u: int, k: int, budget=None) -> list[GroupoidElement]:
        """Range-fiber sphere: elements of word length k with range ``u``,
        the last sphere of ``ball(u, k)``."""
        self._charge(k, budget, u)
        words = self.backend.ball_words(k)
        return [GroupoidElement(u, w) for w in words[self.ball_count(k - 1):]]

    def ball(self, u: int, k: int, budget=None) -> list[GroupoidElement]:
        """Range-fiber ball: word length <= k, the backend's ``ball_words(k)``
        with range ``u``."""
        self._charge(k, budget, u)
        return [GroupoidElement(u, w) for w in self.backend.ball_words(k)]

    def ball_tree(self, L: int, budget=None):
        """The backend's tree ``(parent, gen, right)`` of the radius-L ball,
        charged to ``budget``: ``w_i = w_parent[i] . letters()[gen[i]]``,
        ``right[i, c]`` is the index of ``w_i . letters()[c]``, and indices
        from ``ball_count(L)`` on are outside the ball.  Its
        ``(ball_count(L) + 1) * len(letters())`` entries are charged too."""
        self._charge(L, budget)
        charge(f"walk table of radius {L}", (self.ball_count(L) + 1) * len(self.backend.letters()),
               "entries", DEFAULT_ENUMERATION_BUDGET if budget is None else budget)
        return self.backend.ball_tree(L)

    def descend(self, first, parent, gen, table, n=None) -> np.ndarray:
        """``out[i] = table[gen[i], out[parent[i]]]`` on the first n rows of a
        ball tree (every row by default) from ``out[0] = first``, one sphere at
        a time: the parent of a row lies on the sphere before it.  An array
        ``first`` gives each row an array, one column an entry."""
        n = len(gen) if n is None else n
        first = np.asarray(first)
        out = np.empty((n, *first.shape), dtype=np.int64)
        out[:1] = first
        lo, k = 1, 1
        while lo < n:
            hi = lo + self.sphere_count(k)
            out[lo:hi] = table[gen[lo:hi].reshape(-1, *[1] * first.ndim), out[parent[lo:hi]]]
            lo, k = hi, k + 1
        return out

    def unit_labels(self, u, parent, gen) -> np.ndarray:
        """``u . w_i`` for every row i of a ball tree, by ``descend`` through
        the letters' unit permutations.  For an array of units ``u`` the
        labels are stacked, one column per unit."""
        us = np.atleast_1d(u)
        for x in us.tolist():
            self.unit_element(x)
        units = self.descend(us, parent, gen, self.letter_perms)
        return units if np.ndim(u) else units[:, 0]

    def source_ball(self, u: int, k: int, budget=None) -> list[GroupoidElement]:
        """Source-fiber ball (all elements with source ``u``), as inverses of ball(u, k)."""
        return [self.inverse(g) for g in self.ball(u, k, budget)]

    def sphere_count(self, k: int) -> int:
        """Number of elements of length k in any fiber (fibers are isomorphic)."""
        return self.backend.sphere_count(k)

    def ball_count(self, k: int) -> int:
        return self.backend.ball_count(k)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        if isinstance(self.backend, FreeGroup):
            backend = {"free": self.backend.rank}
        else:
            backend = {"finite": {
                "order": self.backend.order,
                "table": self.backend.table.tolist(),
                "generators": list(self.backend.given_generators),
            }}
        return {"backend": backend, "units": self.units, "action": [list(p) for p in self.action]}

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def build_model(backend: Backend, units: int, action: Sequence[Sequence[int]]) -> GroupoidModel:
    """Validate and assemble an action-groupoid model."""
    return GroupoidModel(backend, units, action)


def group_model(backend: Backend) -> GroupoidModel:
    """Degenerate one-unit model: the group itself."""
    return GroupoidModel(backend, 1, [[0]] * len(backend.given_generators))


def model_from_dict(data: dict) -> GroupoidModel:
    try:
        spec = data["backend"]
        units = as_int(data["units"])
        action = data["action"]
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed model data: {exc}") from exc
    if not isinstance(spec, dict):
        raise ModelError(f"backend must be a JSON object, got {spec!r}")
    if "free" in spec:
        backend: Backend = FreeGroup(as_int(spec["free"]))
    elif "finite" in spec:
        fin = spec["finite"]
        try:
            backend = FiniteGroup(fin["table"], fin["generators"])
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed finite backend: {exc}") from exc
        if "order" in fin and as_int(fin["order"]) != backend.order:
            raise ModelError("declared order does not match the table")
    else:
        raise ModelError("backend must be 'free' or 'finite'")
    return build_model(backend, units, action)


def read_json(path):
    """Parse the JSON input file at ``path``; every input file is read here.
    NaN, ±Infinity and numbers past the float range such as ``1e999`` raise
    ModelError, so every number read is finite; so does nesting deeper than
    the parser's recursion limit, text that is not JSON, or bytes that are
    not UTF-8."""
    def finite(text: str) -> float:
        x = float(text)
        if not math.isfinite(x):
            raise ModelError(f"{path}: {text} is not a finite number")
        return x
    with open(as_path(path)) as fh:
        try:
            return json.load(fh, parse_float=finite, parse_constant=finite)
        except RecursionError:
            raise ModelError(f"{path}: JSON nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelError(f"{path}: {exc}") from None


def load_model(path) -> GroupoidModel:
    return model_from_dict(read_json(path))


def save_model(model: GroupoidModel, path) -> None:
    with open(as_path(path), "w") as fh:
        fh.write(json.dumps(model.to_dict(), indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class MeasureContext:
    """Invariant probability weights on the unit space."""

    weights: tuple

    TOL = 1e-12

    @classmethod
    def uniform(cls, model: GroupoidModel) -> "MeasureContext":
        return cls(tuple([1.0 / model.units] * model.units))

    @classmethod
    def from_weights(cls, model: GroupoidModel, weights: Iterable[float]) -> "MeasureContext":
        mc = cls(tuple(float(x) for x in weights))
        mc.validate(model)
        return mc

    def weight(self, u: int) -> float:
        return self.weights[u]

    def validate(self, model: GroupoidModel) -> None:
        if len(self.weights) != model.units:
            raise ModelError("measure has wrong number of weights")
        if any(w < 0 for w in self.weights):
            raise ModelError("measure weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > self.TOL:
            raise ModelError("measure weights must sum to 1")
        # invariance under each generator's permutation implies it under the inverse
        for p in model.action:
            for u in range(model.units):
                if abs(self.weights[p[u]] - self.weights[u]) > self.TOL:
                    raise ModelError("measure is not invariant under the action")
