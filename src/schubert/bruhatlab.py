"""Exponent arrays on the n x n grid: mutation, gene dissection, lifted
Demazure operators, and intron mutation.

Fixing a row index i, the gene of an array is the pair of rows i, i+1.  East
of the start codon the gene is read box by box, alternating rows within each
column:

    column c:   box 2k+1 = (i, c),  box 2k+2 = (i+1, c)

with box 1 the start codon at (i, start) and the last box the stop codon at
(i+1, n).  Exons are zero bridges from a nonzero even box to the next nonzero
odd box; introns are the full-column blocks between consecutive exons, sharing
their boundary boxes with the exons.  Intron mutation pushes each intron's
entries toward row-sum balance, after temporarily adding 1 to both codons so
every intron has nonzero northwest and southeast corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from . import ideal as ideal_mod
from . import perm, pipedream
from .ideal import SquarefreeMonomialIdeal
from .limits import InvariantError, size_guard
from .perm import Perm

Cell = tuple[int, int]


@dataclass(frozen=True)
class ExponentArray:
    n: int
    rows: tuple  # rows[i-1][j-1] = exponent at cell (i, j)

    def __post_init__(self):
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ValueError("entries must form an n x n array")
        if any(e < 0 for r in self.rows for e in r):
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(
            self,
            "_support",
            frozenset(
                (i, j)
                for i, row in enumerate(self.rows, start=1)
                for j, e in enumerate(row, start=1)
                if e
            ),
        )

    @classmethod
    def zero(cls, n: int) -> "ExponentArray":
        return cls(n, tuple((0,) * n for _ in range(n)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ExponentArray":
        return cls(len(rows), tuple(tuple(r) for r in rows))

    @classmethod
    def from_support(cls, n: int, cells: Iterable[Cell]) -> "ExponentArray":
        rows = [[0] * n for _ in range(n)]
        for (i, j) in cells:
            rows[i - 1][j - 1] = 1
        return cls.from_rows(rows)

    def get(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def scale(self, k: int) -> "ExponentArray":
        return ExponentArray(self.n, tuple(tuple(k * e for e in r) for r in self.rows))

    def support(self) -> frozenset:
        return self._support

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(r[j] for r in self.rows) for j in range(self.n))


def west(b: ExponentArray, row: int) -> int | None:
    """Column of the westernmost nonzero entry of the row, None if empty."""
    return next((j for j in range(1, b.n + 1) if b.get(row, j)), None)


def _ideal_of(w: Perm) -> SquarefreeMonomialIdeal:
    return ideal_mod.antidiagonal_ideal(perm.validate(w))


@cache
def _support_standard(support: frozenset, w: Perm) -> bool:
    return not ideal_mod.monomial_in_ideal(support, _ideal_of(w))


def standard_test(b: ExponentArray, w: Perm) -> bool:
    """True iff no antidiagonal generator of J_w divides z^b."""
    return _support_standard(b.support(), perm.validate(w))


def mutate(i: int, b: ExponentArray) -> ExponentArray:
    """Move one unit from the westernmost nonzero entry of row i+1 up to row i."""
    p = west(b, i + 1)
    if p is None:
        raise ValueError(f"row {i + 1} is identically zero; cannot mutate")
    rows = [list(r) for r in b.rows]
    rows[i][p - 1] -= 1
    rows[i - 1][p - 1] += 1
    return ExponentArray.from_rows(rows)


def start_codon(i: int, w: Perm, b: ExponentArray) -> int:
    """min{p : z_ip * z^b not in J_w}, or 0 when z^b itself lies in J_w."""
    return _support_start_codon(i, perm.validate(w), b.support(), b.n)


@cache
def _support_start_codon(i: int, w: Perm, support: frozenset, n: int) -> int:
    jw = _ideal_of(w)
    if ideal_mod.monomial_in_ideal(support, jw):
        return 0
    for p in range(1, n + 1):
        if not ideal_mod.monomial_in_ideal(support | {(i, p)}, jw):
            return p
    raise InvariantError("z_{i,n} z^b lies in J_w for a standard z^b")


def promoter_size(i: int, w: Perm, b: ExponentArray) -> int:
    """Sum of the row-(i+1) entries strictly west of the start codon."""
    start = start_codon(i, w, b)
    if start == 0:
        raise ValueError("z^b lies in J_w; the promoter is undefined")
    return sum(b.get(i + 1, j) for j in range(1, start))


def lifted_demazure(i: int, w: Perm, b: ExponentArray) -> list[ExponentArray]:
    """[b, mu_i(b), ..., mu_i^{|prom|}(b)] for length(w s_i) < length(w)."""
    w = perm.validate(w)
    ws = perm.apply_right_transposition(w, i)
    if perm.length(ws) >= perm.length(w):
        raise ValueError("need length(w s_i) < length(w)")
    if not standard_test(b, w):
        raise ValueError("z^b must be standard for J_w")
    out = [b]
    for _ in range(promoter_size(i, w, b)):
        out.append(mutate(i, out[-1]))
    return out


# -- gene dissection ----------------------------------------------------------


@dataclass(frozen=True)
class GeneDissection:
    row: int
    start_codon: int                      # column of the start codon
    promoter_columns: tuple               # columns strictly west of the start
    intron_columns: tuple                 # (first, last) column per intron
    exon_boxes: tuple                     # (first, last) box index per exon
    stop_codon: Cell                      # (row + 1, n)


def _box_cell(i: int, start: int, k: int) -> Cell:
    """Cell of 1-based box k in the gene numbering east of the start codon."""
    col = start + (k - 1) // 2
    return (i, col) if k % 2 == 1 else (i + 1, col)


def dissect_gene(i: int, start: int, b: ExponentArray) -> GeneDissection:
    """Dissection for a given start codon column (independent of any w).

    Blocks are located on the array with 1 added to both codons, so intron
    corners are nonzero; adjacent exon/intron blocks share boundary boxes.
    """
    n = b.n
    boxes = 2 * (n - start + 1)

    def val(k: int) -> int:
        v = b.get(*_box_cell(i, start, k))
        if k == 1 or k == boxes:
            v += 1
        return v

    nonzero = [k for k in range(1, boxes + 1) if val(k)]
    exons = []
    for a, c in zip(nonzero, nonzero[1:]):
        if a % 2 == 0 and c % 2 == 1:
            exons.append((a, c))
    intron_starts = [1] + [c for (_, c) in exons]
    intron_ends = [a for (a, _) in exons] + [boxes]
    introns = []
    for o, e in zip(intron_starts, intron_ends):
        col_lo = start + (o - 1) // 2
        col_hi = start + e // 2 - 1
        introns.append((col_lo, col_hi))
    return GeneDissection(
        row=i,
        start_codon=start,
        promoter_columns=tuple(range(1, start)),
        intron_columns=tuple(introns),
        exon_boxes=tuple(exons),
        stop_codon=(i + 1, n),
    )


def _mutate_intron(top: list[int], bottom: list[int]) -> tuple[list[int], list[int]]:
    """Balance a 2 x k intron: move units toward the row with smaller sum,
    rotating 180 degrees first when the top dominates."""
    c_top, c_bot = sum(top), sum(bottom)
    d = abs(c_top - c_bot)
    if c_top > c_bot:
        top, bottom = list(reversed(bottom)), list(reversed(top))
    for _ in range(d):
        p = next(j for j, e in enumerate(bottom) if e)
        bottom[p] -= 1
        top[p] += 1
    if c_top > c_bot:
        top, bottom = list(reversed(bottom)), list(reversed(top))
    return top, bottom


def intron_mutation(i: int, w: Perm, b: ExponentArray) -> ExponentArray:
    """The involution tau: add 1 to the codons, mutate every intron toward
    row-sum balance, then subtract the 1s."""
    if not standard_test(b, w):
        raise ValueError("z^b must be standard for J_w")
    out = intron_mutation_at(i, start_codon(i, w, b), b)
    if not standard_test(out, w):
        raise InvariantError(f"intron mutation left the standard monomials of J_{w}")
    return out


def intron_mutation_at(i: int, start: int, b: ExponentArray) -> ExponentArray:
    """Intron mutation for a given start codon column (independent of any w)."""
    dissection = dissect_gene(i, start, b)
    rows = [list(r) for r in b.rows]
    rows[i - 1][start - 1] += 1
    rows[i][b.n - 1] += 1
    for (lo, hi) in dissection.intron_columns:
        top, bottom = _mutate_intron(rows[i - 1][lo - 1 : hi], rows[i][lo - 1 : hi])
        rows[i - 1][lo - 1 : hi] = top
        rows[i][lo - 1 : hi] = bottom
    rows[i - 1][start - 1] -= 1
    rows[i][b.n - 1] -= 1
    return ExponentArray.from_rows(rows)


# -- bridge to mitosis on facets ------------------------------------------------


def dream_of(b: ExponentArray) -> pipedream.PipeDream:
    """D(b): the pipe dream of cells outside the support of z^b."""
    cells = {
        (i, j)
        for i in range(1, b.n + 1)
        for j in range(1, b.n + 1)
        if not b.get(i, j)
    }
    return pipedream.PipeDream(b.n, frozenset(cells))


def mitosis_facet_bridge(w: Perm, i: int) -> bool:
    """For every facet-supported squarefree b of the complex of J_w, the odd
    mutations of 2b reproduce the mitosis offspring of D(b), and the facet
    complements for J_{w s_i} are exactly the disjoint union of those
    offspring."""
    w = perm.validate(w)
    n = len(w)
    size_guard(n, 5, "mitosis_facet_bridge")
    ws = perm.apply_right_transposition(w, i)
    if perm.length(ws) >= perm.length(w):
        raise ValueError("need length(w s_i) < length(w)")

    facets = ideal_mod.stanley_reisner_facets(ideal_mod.antidiagonal_ideal(w))
    all_offspring: list[frozenset] = []
    for facet in facets:
        b = ExponentArray.from_support(n, facet)
        prom = promoter_size(i, w, b)
        doubled = b.scale(2)
        chain = [doubled]
        for _ in range(2 * prom):
            chain.append(mutate(i, chain[-1]))
        via_mutation = frozenset(dream_of(chain[2 * d + 1]) for d in range(prom))
        offspring = pipedream.mitosis(i, dream_of(b))
        if via_mutation != offspring:
            return False
        all_offspring.append(offspring)

    union: set = set().union(*all_offspring) if all_offspring else set()
    if len(union) != sum(len(s) for s in all_offspring):
        return False  # offspring sets must be pairwise disjoint
    target = ideal_mod.facet_complement_dreams(ws)
    return frozenset(union) == target
