"""Schubert determinantal generators, antidiagonal ideals J_w, and the
Stanley-Reisner complex of an antidiagonal ideal.

Generators and squarefree monomials are represented by their supports:
frozensets of grid cells (i, j), 1-based.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable

from . import perm, pipedream
from .limits import size_guard
from .perm import Perm

Cell = tuple[int, int]


@dataclass(frozen=True)
class Minor:
    """A minor of the generic matrix, named by its row and column sets."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.cols) or not self.rows:
            raise ValueError("a minor needs equal, nonempty row and column sets")

    @property
    def size(self) -> int:
        return len(self.rows)

    def antidiagonal(self) -> frozenset:
        """Cells of the main antidiagonal: row k pairs with column size-k."""
        return frozenset(
            (self.rows[k], self.cols[self.size - 1 - k]) for k in range(self.size)
        )

    def to_jsonable(self) -> dict:
        return {"rows": list(self.rows), "cols": list(self.cols)}


@dataclass(frozen=True)
class SquarefreeMonomialIdeal:
    n: int
    generators: frozenset  # of nonempty frozensets of grid cells, inclusion-minimal

    def __post_init__(self):
        for g in self.generators:
            pairs = [c for c in g if type(c) is tuple and [*map(type, c)] == [int, int]]
            if not g or len(pairs) < len(g) or not all(0 < v <= self.n for c in pairs for v in c):
                raise ValueError(f"not a nonempty set of int cells in 1..{self.n}: {set(g)}")
        object.__setattr__(self, "generators", minimalize(self.generators))


def grid(n: int) -> frozenset:
    """The n^2 cells of the n x n grid."""
    return frozenset(itertools.product(range(1, n + 1), repeat=2))


def rothe_diagram(w: Perm) -> set[Cell]:
    """Cells (i, j) with j < w(i) and i < w^-1(j)."""
    w = perm.validate(w)
    inv = perm.inverse(w)
    n = len(w)
    return {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if j < w[i - 1] and i < inv[j - 1]
    }


def essential_cells(w: Perm) -> set[Cell]:
    """Fulton's essential set: southeast corners of the Rothe diagram."""
    diagram = rothe_diagram(w)
    return {
        (i, j)
        for (i, j) in diagram
        if (i + 1, j) not in diagram and (i, j + 1) not in diagram
    }


def schubert_generators(w: Perm) -> frozenset:
    """Minors of size 1 + rank(q, p) in the northwest q x p submatrix.

    Only positions at an essential rank level emit minors: a position (q, p)
    contributes iff some Fulton-essential cell shares its rank.  That keeps
    every essential minor (so the set still generates) but drops the larger
    minors the smaller ones imply by Laplace expansion.  Rank never falls
    going south or east, so only positions where both steps raise it emit:
    any other has a subset of its same-rank neighbour's minors.
    """
    w = perm.validate(w)
    n = len(w)
    size_guard(n, "schubert_generators")
    # padded south and east with a rank that no position has
    ranks = [(*row, n + 1) for row in perm.rank_matrix(w)] + [(n + 1,) * (n + 1)]
    levels = {ranks[q - 1][p - 1] for (q, p) in essential_cells(w)}
    out = set()
    for q in range(1, n + 1):
        for p in range(1, n + 1):
            r = ranks[q - 1][p - 1]
            if r not in levels or ranks[q][p - 1] == r or ranks[q - 1][p] == r:
                continue
            # none when r + 1 > min(q, p)
            for rows in itertools.combinations(range(1, q + 1), r + 1):
                for cols in itertools.combinations(range(1, p + 1), r + 1):
                    out.add(Minor(rows, cols))
    return frozenset(out)


def minimalize(
    items: Iterable, below: Callable = operator.le, size: Callable = len
) -> frozenset:
    """Minimal members of a finite family under the partial order ``below``.

    ``size`` must strictly increase along the order (below(a, b) with a != b
    gives size(a) < size(b)), so one pass in size order keeps exactly the
    minimal members.  The defaults give the inclusion-minimal sets.
    """
    kept: list = []
    for s in sorted(set(items), key=size):
        if not any(below(k, s) for k in kept):
            kept.append(s)
    return frozenset(kept)


def antidiagonal_ideal(w: Perm) -> SquarefreeMonomialIdeal:
    """J_w: antidiagonals of the Schubert determinantal minors."""
    return _antidiagonal_ideal(perm.validate(w))


@cache
def _antidiagonal_ideal(w: Perm) -> SquarefreeMonomialIdeal:
    return SquarefreeMonomialIdeal(len(w), [m.antidiagonal() for m in schubert_generators(w)])


def monomial_in_ideal(support: frozenset, ideal: SquarefreeMonomialIdeal) -> bool:
    """Whether the squarefree monomial with this support lies in the ideal."""
    return any(g <= support for g in ideal.generators)


def minimal_covers(generators: Iterable[frozenset]) -> set[frozenset]:
    """All inclusion-minimal hitting sets of a family of nonempty sets.

    Berge's incremental transversal: after each generator, smallest first,
    the minimal covers are the minimal ones among the covers that hit it and
    the covers that miss it, each extended by one of its vertices.
    """
    covers = [frozenset()]
    for g in sorted(map(frozenset, generators), key=len):
        if not g:
            raise ValueError("empty generator cannot be hit")
        covers = minimalize(h for c in covers for h in ((c,) if c & g else (c | {v} for v in g)))
    return set(covers)


def stanley_reisner_facets(ideal: SquarefreeMonomialIdeal) -> frozenset:
    """Facets of the complex whose Stanley-Reisner ideal this is.

    Facets are complements (in the full n x n vertex set) of minimal vertex
    covers of the generator hypergraph.
    """
    size_guard(ideal.n, "stanley_reisner_facets")
    vertices = grid(ideal.n)
    # no generators: the one minimal cover is empty, the one facet the grid
    return frozenset(vertices - c for c in minimal_covers(ideal.generators))


def facet_complement_dreams(w: Perm) -> frozenset:
    """{D_L : L facet of the complex of J_w}: the minimal covers of J_w."""
    jw = antidiagonal_ideal(w)
    size_guard(jw.n, "stanley_reisner_facets")
    return frozenset(pipedream.PipeDream(jw.n, c) for c in minimal_covers(jw.generators))
