"""Subword complexes: facets, links and deletions, vertex decomposition, and
shelling certification.

Vertices are positions into the word Q (0-based), so repeated letters are
distinct vertices.  The void complex (no faces at all) and the empty complex
{<empty face>} are distinguished: the former has no facets, the latter has the
single facet frozenset().

The machinery only needs a Coxeter system through its identity, length,
right multiplication by a generator and the right-descent test, collected in
CoxeterSystem; symmetric_group(n) is the one instantiation used here.

A subword is a reduced word for pi exactly when, read right to left, each
letter is a right descent of what is left of pi, which it then peels off
(Knutson-Miller, Subword complexes in Coxeter groups).  contains and
subword_complex both search this way, and the vertex decomposition, which
splits on the first letter s, carries pi^-1, as s is a left descent of pi
exactly when it is a right descent of pi^-1 and (s pi)^-1 = pi^-1 s; none
of them measures a length inside its loop.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

from . import ideal as ideal_mod
from . import perm
from .limits import InvariantError, size_guard
from .perm import Perm


@dataclass(frozen=True)
class CoxeterSystem:
    """What the subword machinery uses of a Coxeter group; descent(el, s)
    tests whether length(el s) < length(el), so the searches need no length."""

    identity: object
    length: Callable = field(compare=False)
    right_mul: Callable = field(compare=False)  # (element, letter) -> element
    # (element, letter) -> whether the letter is a right descent of it
    descent: Callable = field(compare=False)


def symmetric_group(n: int) -> CoxeterSystem:
    def descent(u: Perm, i: int) -> bool:
        if not 1 <= i < n:
            raise ValueError(f"reflection index {i} out of range for n={n}")
        return u[i - 1] > u[i]

    return CoxeterSystem(
        identity=perm.identity(n),
        length=perm.length,
        right_mul=perm.apply_right_transposition,
        descent=descent,
    )


def demazure_product(word: Sequence[int], cox: CoxeterSystem) -> object:
    """Fold of the word in the degenerate Hecke algebra: multiply a letter in
    only when it increases length."""
    el = cox.identity
    for i in word:
        if not cox.descent(el, i):
            el = cox.right_mul(el, i)
    return el


def contains(word: Sequence[int], pi, cox: CoxeterSystem) -> bool:
    """Whether some subword of ``word`` is a reduced word for pi.

    Greedy right-to-left: peel a letter off the right of pi whenever the
    current position provides a descent.  Validated against brute force in
    the tests.
    """
    v = pi
    for i in reversed(word):
        if v == cox.identity:
            break
        if cox.descent(v, i):
            v = cox.right_mul(v, i)
    return v == cox.identity


@dataclass(frozen=True)
class SubwordComplex:
    word: tuple
    pi: object
    facets: frozenset  # of frozensets of positions
    cox: CoxeterSystem = field(compare=False)

    @property
    def vertices(self) -> frozenset:
        return frozenset(range(len(self.word)))

    def is_void(self) -> bool:
        return not self.facets

    def facets_sorted(self) -> list[list[int]]:
        return sorted(sorted(f) for f in self.facets)


def subword_complex(word: Sequence[int], pi, cox: CoxeterSystem) -> SubwordComplex:
    """The complex of subwords whose complements still contain pi.

    Facets are complements of position sets representing pi (reduced
    subwords).  If the word does not contain pi the complex is void.
    """
    word = tuple(word)
    size_guard(len(word), "subword word")
    target_len = cox.length(pi)
    reduced_subwords: list[frozenset] = []

    # walk positions right to left from v = pi, taking a position exactly
    # when its letter is a right descent of v, then v <- v s; v has length
    # target_len - len(chosen), so taking target_len positions reaches e
    def rec(pos: int, chosen: tuple, v) -> None:
        if len(chosen) == target_len:
            reduced_subwords.append(frozenset(chosen))
            return
        if pos < target_len - len(chosen):
            return
        letter = word[pos - 1]
        if cox.descent(v, letter):
            rec(pos - 1, chosen + (pos - 1,), cox.right_mul(v, letter))
        rec(pos - 1, chosen, v)

    rec(len(word), (), pi)
    positions = frozenset(range(len(word)))
    facets = frozenset(positions - p for p in reduced_subwords)
    return SubwordComplex(word, pi, facets, cox)


# -- generic facet-set operations --------------------------------------------


def deletion(face: Iterable[int], facets: frozenset) -> frozenset:
    """Facets of del(F): maximal sets among facet - F."""
    face = frozenset(face)
    if not any(face <= f for f in facets):
        raise ValueError(f"{sorted(face)} is not a face")
    return ideal_mod.minimalize((f - face for f in facets), operator.ge, lambda s: -len(s))


def link(face: Iterable[int], facets: frozenset) -> frozenset:
    """Facets of link(F): the deletion of F from its star, the facets
    containing F."""
    face = frozenset(face)
    return deletion(face, frozenset(f for f in facets if face <= f))


# -- vertex decomposition ------------------------------------------------------


VOID_LEAF = "void"
EMPTY_LEAF = "empty"


@dataclass(frozen=True)
class DecompositionNode:
    vertex: int
    cone: bool  # True when no reduced word for pi starts with this letter
    link: object
    deletion: object | None  # None exactly when cone


def vertex_decompose(delta: SubwordComplex) -> tuple[object, list[frozenset]]:
    """Decomposition tree along the first letter, per the subword recursion:
    link drops the letter, deletion shortens pi when the letter is a descent;
    returned with the Provan-Billera order read off it.

    InvariantError unless that order is a shelling of the facets.
    """
    if delta.is_void():
        raise ValueError("cannot decompose the void complex")
    # a facet's complement, read right to left, is a reduced word for pi^-1
    reduced = sorted(delta.vertices - next(iter(delta.facets)), reverse=True)
    pinv = demazure_product([delta.word[p] for p in reduced], delta.cox)
    tree = _decompose(delta.word, 0, pinv, len(reduced), delta.cox)
    order = shelling_from_decomposition(tree)
    if not is_shelling(order, delta.facets):
        raise InvariantError("decomposition tree does not replay to the facets as a shelling")
    return tree, order


def _decompose(word: tuple, pos: int, pinv, pi_length: int, cox: CoxeterSystem):
    """Tree of the complex of word[pos:] and pi, which must contain pi, from
    pinv = pi^-1.  Only the link of a descent letter can be void: the
    deletion contains s pi by the subword property, and the link of a cone
    letter contains pi, as no reduced subword uses that letter.  A word
    contains pi exactly when its reverse contains pi^-1."""
    if pi_length == len(word) - pos:
        return EMPTY_LEAF  # the whole word is forced: single facet = empty set
    s = word[pos]
    if not cox.descent(pinv, s):
        return DecompositionNode(pos, True, _decompose(word, pos + 1, pinv, pi_length, cox), None)
    link_tree = VOID_LEAF
    if contains(word[pos + 1 :][::-1], pinv, cox):
        link_tree = _decompose(word, pos + 1, pinv, pi_length, cox)
    del_tree = _decompose(word, pos + 1, cox.right_mul(pinv, s), pi_length - 1, cox)
    return DecompositionNode(pos, False, link_tree, del_tree)


def shelling_from_decomposition(tree) -> list[frozenset]:
    """Provan-Billera: shell the deletion first, then the cone over the link."""
    if tree == VOID_LEAF:
        return []
    if tree == EMPTY_LEAF:
        return [frozenset()]
    coned = [f | {tree.vertex} for f in shelling_from_decomposition(tree.link)]
    if tree.cone:
        return coned
    return shelling_from_decomposition(tree.deletion) + coned


def is_shelling(order: Sequence[frozenset], facets: Iterable[frozenset]) -> bool:
    """Bjorner-Wachs: the order lists each facet once, and each facet meets
    the complex of its predecessors in a pure complex of codimension 1 in it,
    so every meet with an earlier facet lies in a meet of one size less."""
    order = [frozenset(f) for f in order]
    facets = set(facets)
    if set(order) != facets or len(order) != len(facets):
        return False
    for k in range(1, len(order)):
        meets = [order[k] & g for g in order[:k]]
        ridges = [m for m in meets if len(m) == len(order[k]) - 1]
        if not all(any(m <= r for r in ridges) for m in meets):
            return False
    return True


def decomposition_to_jsonable(tree) -> object:
    return tree if isinstance(tree, str) else asdict(tree)


def square_word(n: int) -> tuple[int, ...]:
    """The word of the fully crossed n x n grid, read row by row, right to
    left: row i contributes s_{n+i-1} ... s_i (letters in S_2n)."""
    out = []
    for i in range(1, n + 1):
        out.extend(range(n + i - 1, i - 1, -1))
    return tuple(out)


def grid_position_cell(n: int, position: int) -> tuple[int, int]:
    """Cell (i, j) of the square-word position (row-major, right to left)."""
    i, k = divmod(position, n)
    return (i + 1, n - k)
