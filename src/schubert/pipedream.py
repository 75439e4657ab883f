"""Pipe dreams in the n x n grid: words, permutations, chute moves, mitosis,
and enumeration of the reduced pipe dreams RP(w).

A pipe dream is a set of crosses; every library constructor produces subsets
of the full staircase D0 = {(i, j) : i + j <= n}, so words never use
reflection indices outside 1..n-1.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import perm
from .limits import InvariantError, size_guard
from .perm import Perm

Cell = tuple[int, int]


@dataclass(frozen=True)
class PipeDream:
    n: int
    crosses: frozenset

    def __post_init__(self):
        for (i, j) in self.crosses:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"cross {(i, j)} outside the {self.n}x{self.n} grid")

    def sorted_crosses(self) -> list[Cell]:
        return sorted(self.crosses)

    def render(self) -> str:
        """ASCII grid with '+' for crosses and '.' for elbows."""
        rows = []
        for i in range(1, self.n + 1):
            rows.append(
                " ".join("+" if (i, j) in self.crosses else "." for j in range(1, self.n + 1))
            )
        return "\n".join(rows)

    def to_jsonable(self) -> dict:
        return {"n": self.n, "crosses": [list(c) for c in self.sorted_crosses()]}

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable())

    @classmethod
    def from_jsonable(cls, data: dict) -> "PipeDream":
        n, cells = data["n"], [tuple(c) for c in data["crosses"]]
        if not all(type(v) is int for v in (n, *itertools.chain(*cells))) or n < 0:
            raise ValueError("n and the cross coordinates must be integers, n >= 0")
        if len(set(cells)) != len(cells):
            raise ValueError("a cross is listed twice")
        return cls(n, frozenset((i, j) for i, j in cells))

    @classmethod
    def from_json(cls, text: str) -> "PipeDream":
        return cls.from_jsonable(json.loads(text))


def make(n: int, cells: Iterable[Cell]) -> PipeDream:
    return PipeDream(n, frozenset(cells))


def d0(n: int) -> PipeDream:
    """The staircase pipe dream, the unique element of RP(w0)."""
    return make(n, ((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n))


def word_of(d: PipeDream) -> tuple[int, ...]:
    """Read s_{i+j-1} off each cross, row by row, right to left within a row."""
    return tuple(i + j - 1 for (i, j) in sorted(d.crosses, key=lambda c: (c[0], -c[1])))


def permutation_of(d: PipeDream) -> Perm:
    """Ordered product of word_of(d); pipe entering row i exits column w(i)."""
    return perm.permutation_from_word(d.n, word_of(d))


def is_reduced(d: PipeDream) -> bool:
    return len(d.crosses) == perm.length(permutation_of(d))


def start_row(i: int, d: PipeDream) -> int:
    """Column of the leftmost empty box in row i (n+1 if the row is full)."""
    return min((j for j in range(1, d.n + 1) if (i, j) not in d.crosses), default=d.n + 1)


def mitosis_columns(i: int, d: PipeDream) -> list[int]:
    """J_i(d): columns left of start_row(i) with no cross below in row i+1."""
    start = start_row(i, d)
    return [j for j in range(1, start) if (i + 1, j) not in d.crosses]


def mitosis(i: int, d: PipeDream) -> frozenset:
    """Offspring set of the i-th mitosis operator (possibly empty)."""
    cols = mitosis_columns(i, d)
    out = set()
    for p in cols:
        crosses = set(d.crosses)
        for j in cols:
            if j <= p:
                crosses.discard((i, j))
            if j < p:
                crosses.add((i + 1, j))
        out.add(PipeDream(d.n, frozenset(crosses)))
    return frozenset(out)


def chute(d: PipeDream, rect: tuple[Cell, Cell]) -> PipeDream:
    """Apply a chute move in the rectangle given as (northeast, southwest) cells.

    The rectangle spans rows q, q+1 and columns t..p; every box except the
    northwest, southwest, and southeast corners must be a cross.
    """
    (q, p), (q2, t) = rect
    if q2 != q + 1 or not t < p:
        raise ValueError(f"not a 2 x k rectangle with k >= 2: {rect}")
    need_cross = [(q, j) for j in range(t + 1, p + 1)] + [
        (q + 1, j) for j in range(t + 1, p)
    ]
    need_empty = [(q, t), (q + 1, t), (q + 1, p)]
    if any(c not in d.crosses for c in need_cross) or any(
        c in d.crosses for c in need_empty
    ):
        raise ValueError(f"rectangle {rect} is not chutable in this pipe dream")
    return PipeDream(d.n, d.crosses - {(q, p)} | {(q + 1, t)})


def all_chute_moves(d: PipeDream) -> Iterator[PipeDream]:
    """Every pipe dream reachable from d by a single chute move."""
    for q in range(1, d.n):
        for p in range(2, d.n + 1):
            if (q, p) not in d.crosses:
                continue
            for t in range(p - 1, 0, -1):
                try:
                    yield chute(d, ((q, p), (q + 1, t)))
                except ValueError:
                    pass
                if (q, t) not in d.crosses:
                    break  # longer rectangles would have a cross gap in row q


def top_pipe_dream(w: Perm) -> PipeDream:
    """The unique reduced pipe dream for w whose every cross below row 1 has a
    cross due north of it.

    Built column by column: column j holds code(w^-1)_j crosses in rows
    1..code_j.  The defining properties are checked after construction.
    """
    w = perm.validate(w)
    code = perm.lehmer_code(perm.inverse(w))
    crosses = {
        (i, j) for j, c in enumerate(code, start=1) for i in range(1, c + 1)
    }
    d = PipeDream(len(w), frozenset(crosses))
    if not (permutation_of(d) == w and is_reduced(d)):
        raise InvariantError(f"top pipe dream of {w} is not in RP({w})")
    if not all(i == 1 or (i - 1, j) in d.crosses for (i, j) in d.crosses):
        raise InvariantError(f"top pipe dream of {w} has a cross with no cross north")
    return d


def _disjoint_union(i: int, offspring: list) -> frozenset:
    """The union of the mitosis offspring at row i of the dreams of RP(w s_i)."""
    union = frozenset().union(*offspring)
    # Theorem: the union is disjoint; each dream arises exactly once.
    if len(union) != sum(len(s) for s in offspring):
        raise InvariantError(f"mitosis offspring overlap at row {i}")
    return union


def _mitosis_union(i: int, dreams: frozenset) -> frozenset:
    """RP(w) from RP(w s_i) for an ascent i of w: the union of the offspring."""
    return _disjoint_union(i, [mitosis(i, d) for d in dreams])


_rp = perm.weak_order_family(lambda n: frozenset([d0(n)]), _mitosis_union)


def rp_mitosis(w: Perm) -> frozenset:
    """RP(w) by mitosis down the weak order from RP(w0) = {D0}, memoised per
    w like the polynomial families."""
    w = perm.validate(w)
    size_guard(len(w), "rp_mitosis")
    return _rp(w)


def rp_bruteforce(w: Perm) -> frozenset:
    """RP(w) by exhaustive search over subsets of D0 (oracle for rp_mitosis)."""
    w = perm.validate(w)
    n = len(w)
    size_guard(n, "rp_bruteforce")
    cells = sorted(d0(n).crosses)
    k = perm.length(w)
    out = set()
    for combo in itertools.combinations(cells, k):
        d = PipeDream(n, frozenset(combo))
        if permutation_of(d) == w:
            out.add(d)
    return frozenset(out)
