"""Exponent arrays on the n x n grid: mutation, gene dissection, lifted
Demazure operators, and intron mutation.

An array keeps its rows as a tuple of row tuples together with its support
as a cell bitmask, bit (i-1)*n + (j-1) for cell (i, j), computed in the same
pass that validates the entries.  z^b is standard for J_w exactly when the
support is a face of the Stanley-Reisner complex of J_w, that is, when no
generator mask g of J_w has g & mask == g; the standard and start-codon
tests are those few integer operations.

Fixing a row index i, the gene of an array is the pair of rows i, i+1.  East
of the start codon the gene is read box by box, alternating rows within each
column:

    column c:   box 2k+1 = (i, c),  box 2k+2 = (i+1, c)

with box 1 the start codon at (i, start) and the last box the stop codon at
(i+1, n).  Exons are zero bridges from a nonzero even box to the next nonzero
odd box; introns are the full-column blocks between consecutive exons, sharing
their boundary boxes with the exons.  Intron mutation pushes each intron's
entries toward row-sum balance, after temporarily adding 1 to both codons so
every intron has nonzero northwest and southeast corners.  It reads and
rebuilds only the two gene rows: one scan finds the introns, each intron
moves its whole imbalance column by column, and the other n-2 row tuples
are shared with the input.  The figure check reads the same scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Iterator, Sequence

from . import ideal as ideal_mod
from . import perm, pipedream
from .limits import InvariantError, size_guard
from .perm import Perm

Cell = tuple[int, int]


@dataclass(frozen=True, slots=True)
class ExponentArray:
    n: int
    rows: tuple  # rows[i-1][j-1] = exponent at cell (i, j)
    _mask: int = field(init=False, repr=False, compare=False)  # support bits

    def __post_init__(self):
        n = self.n
        if len(self.rows) != n:
            raise ValueError("entries must form an n x n array")
        mask, bit = 0, 1
        for row in self.rows:
            if len(row) != n:
                raise ValueError("entries must form an n x n array")
            for e in row:
                if e:
                    if e < 0:
                        raise ValueError("exponents must be nonnegative")
                    mask |= bit
                bit <<= 1
        object.__setattr__(self, "_mask", mask)

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

    def scale(self, k: int) -> "ExponentArray":
        return ExponentArray(self.n, tuple(tuple(k * e for e in r) for r in self.rows))

    def support(self) -> frozenset:
        n, mask = self.n, self._mask
        return frozenset(
            (k // n + 1, k % n + 1) for k in range(n * n) if mask >> k & 1
        )

    def column_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.rows)))


def west(b: ExponentArray, row: int) -> int | None:
    """Column of the westernmost nonzero entry of the row, None if empty."""
    return next((j for j, e in enumerate(b.rows[row - 1], start=1) if e), None)


def _with_gene(b: ExponentArray, i: int, top: list, bottom: list) -> ExponentArray:
    """b with rows i and i+1 replaced; the other row tuples are shared."""
    return ExponentArray(b.n, b.rows[: i - 1] + (tuple(top), tuple(bottom)) + b.rows[i + 1 :])


def _cell_mask(cells: Iterable[Cell], n: int) -> int:
    return sum(1 << (i - 1) * n + (j - 1) for (i, j) in cells)


@cache
def _generator_masks(w: Perm, n: int) -> tuple[int, ...]:
    """Masks of the generators of J_w on the n x n grid; a generator with a
    cell outside the grid divides no array there and is left out.

    Building J_w validates w, so a w that is not a permutation raises here
    and is never cached: each w is validated once, not once per test.
    """
    return tuple(
        _cell_mask(g, n)
        for g in ideal_mod.antidiagonal_ideal(w).generators
        if all(i <= n and j <= n for (i, j) in g)
    )


def _avoids(mask: int, gens: tuple[int, ...]) -> bool:
    """True iff no generator mask lies inside ``mask``."""
    for g in gens:
        if g & mask == g:
            return False
    return True


def standard_test(b: ExponentArray, w: Perm) -> bool:
    """True iff no antidiagonal generator of J_w divides z^b."""
    return _avoids(b._mask, _generator_masks(tuple(w), b.n))


def mutate(i: int, b: ExponentArray) -> ExponentArray:
    """Move one unit from the westernmost nonzero entry of row i+1 up to row i."""
    p = west(b, i + 1)
    if p is None:
        raise ValueError(f"row {i + 1} is identically zero; cannot mutate")
    top, bottom = list(b.rows[i - 1]), list(b.rows[i])
    bottom[p - 1] -= 1
    top[p - 1] += 1
    return _with_gene(b, i, top, bottom)


def start_codon(i: int, w: Perm, b: ExponentArray) -> int:
    """min{p : z_ip * z^b not in J_w}, or 0 when z^b itself lies in J_w."""
    return _start_codon(i, tuple(w), b._mask, b.n)


@cache
def _start_codon(i: int, w: Perm, mask: int, n: int) -> int:
    gens = _generator_masks(w, n)
    if not _avoids(mask, gens):
        return 0
    bit = 1 << (i - 1) * n
    for p in range(1, n + 1):
        if _avoids(mask | bit, gens):
            return p
        bit <<= 1
    raise InvariantError("z_{i,n} z^b lies in J_w for a standard z^b")


def promoter_size(i: int, w: Perm, b: ExponentArray) -> int:
    """Sum of the row-(i+1) entries strictly west of the start codon."""
    start = start_codon(i, w, b)
    if start == 0:
        raise ValueError("z^b lies in J_w; the promoter is undefined")
    return sum(b.rows[i][: start - 1])


def lifted_demazure(i: int, w: Perm, b: ExponentArray) -> list[ExponentArray]:
    """[b, mu_i(b), ..., mu_i^{|prom|}(b)] for length(w s_i) < length(w)."""
    w = perm.validate(w)
    perm.descend(w, i)  # ValueError unless i is a right descent of w
    if not standard_test(b, w):
        raise ValueError("z^b must be standard for J_w")
    out = [b]
    for _ in range(promoter_size(i, w, b)):
        out.append(mutate(i, out[-1]))
    return out


def standard_arrays(w: Perm, max_entry: int) -> Iterator[ExponentArray]:
    """Every array with entries 0..max_entry that is standard for J_w, once,
    built one at a time as the iterator is read.

    The supports are the faces of the Stanley-Reisner complex of J_w (the
    subsets of its facets); each face carries every choice of entries
    1..max_entry on its cells, row by row.  There are up to
    (max_entry + 1)^(n^2) of them, so n is capped at 4.  The input is
    checked and the faces found at the call.
    """
    w = perm.validate(w)
    n = len(w)
    size_guard(n, 4, "standard_arrays")
    faces = set()
    for facet in ideal_mod.stanley_reisner_facets(ideal_mod.antidiagonal_ideal(w)):
        full = face = _cell_mask(facet, n)
        while True:  # every submask of the facet, down to the empty face
            faces.add(face)
            if not face:
                break
            face = (face - 1) & full
    row_bits = (1 << n) - 1
    return (
        ExponentArray(n, rows)
        for face in sorted(faces)
        for rows in itertools.product(
            *(_rows_on(face >> r & row_bits, n, max_entry) for r in range(0, n * n, n))
        )
    )


@cache
def _rows_on(bits: int, n: int, max_entry: int) -> tuple[tuple[int, ...], ...]:
    """The rows of length n with entries 1..max_entry where bits is set, 0 elsewhere."""
    entries = range(1, max_entry + 1)
    return tuple(itertools.product(*(entries if bits >> j & 1 else (0,) for j in range(n))))


# -- intron mutation -----------------------------------------------------------


def _balance_intron(top: list[int], bottom: list[int], lo: int, hi: int, d: int) -> None:
    """Move the imbalance d = (bottom sum) - (top sum) of the intron in
    0-based columns lo..hi across it, in place: from the bottom row's
    westernmost units up when the bottom dominates, from the top row's
    easternmost units down (the same rule after a 180-degree rotation) when
    the top does."""
    if d > 0:
        src, dst, cols = bottom, top, range(lo, hi + 1)
    else:
        src, dst, cols, d = top, bottom, range(hi, lo - 1, -1), -d
    for p in cols:
        move = min(d, src[p])
        src[p] -= move
        dst[p] += move
        d -= move
        if not d:
            return


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
    n = b.n
    top, bottom = list(b.rows[i - 1]), list(b.rows[i])
    top[start - 1] += 1
    bottom[n - 1] += 1
    for lo, hi, d in _introns(top, bottom, start):
        if d:
            _balance_intron(top, bottom, lo, hi, d)
    top[start - 1] -= 1
    bottom[n - 1] -= 1
    return _with_gene(b, i, top, bottom)


def _introns(top: Sequence[int], bottom: Sequence[int], start: int) -> list:
    """The introns of a gene with marked codons, west to east, as (lo, hi, d):
    0-based columns lo..hi and d = (bottom sum) - (top sum).  An exon ends at
    a nonzero top box whose last nonzero predecessor is a bottom box."""
    out = []
    lo, up, down = start - 1, 0, 0  # the open intron and its row sums so far
    after_bottom = -1  # column of the last nonzero box when it is a bottom box
    for c in range(start - 1, len(top)):
        if top[c]:
            if after_bottom >= 0:
                out.append((lo, after_bottom, down - up))
                lo, up, down = c, 0, 0
            after_bottom = -1
            up += top[c]
        if bottom[c]:
            after_bottom = c
            down += bottom[c]
    out.append((lo, len(top) - 1, down - up))
    return out


# -- bridge to mitosis on facets ------------------------------------------------


def dream_of(b: ExponentArray) -> pipedream.PipeDream:
    """D(b): the pipe dream of cells outside the support of z^b."""
    return pipedream.PipeDream(b.n, ideal_mod.grid(b.n) - b.support())


def mitosis_facet_bridge(w: Perm, i: int) -> bool:
    """For every facet-supported squarefree b of the complex of J_w, the odd
    mutations of 2b reproduce the mitosis offspring of D(b), and the facet
    complements for J_{w s_i} are exactly the disjoint union of those
    offspring (InvariantError if two of them overlap)."""
    w = perm.validate(w)
    n = len(w)
    size_guard(n, 5, "mitosis_facet_bridge")
    ws = perm.descend(w, i)
    offspring = []
    for d in ideal_mod.facet_complement_dreams(w):
        b = ExponentArray.from_support(n, ideal_mod.grid(n) - d.crosses)
        chain = lifted_demazure(i, w, b.scale(2))
        offspring.append(pipedream.mitosis(i, d))
        if frozenset(map(dream_of, chain[1::2])) != offspring[-1]:
            return False
    return pipedream._disjoint_union(i, offspring) == ideal_mod.facet_complement_dreams(ws)
