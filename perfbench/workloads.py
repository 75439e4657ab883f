"""Seeded inputs and per-item oracles for the two benchmark workloads.

Every workload is a list of items.  An item calls the library's public
functions and returns an observed value; the item passes when that value
equals the expected value, which comes from the paper (a theorem, or the
agreement of two independent routes to the same object).  An item that
raises counts as failed.

theorem-b holds the Groebner side of the paper: Buchberger's criterion on a
fixed sample of S6 (the gb items) and the Part-3 Bruhat-induction steps on
exponent arrays the seed draws (the part3 items), in one seeded order.
formulas holds the polynomial side: Theorem A by K-polynomials (the
theorem-a items) and the four families against pipe dreams, facets and
subwords (the families items), over S4 and S5, top down.  The two share no
layer but perm and ideal, so an optimisation of grobner or bruhatlab moves
theorem-b alone, and one of poly, hilbert, pipedream or subword moves
formulas alone.

Inputs depend only on the seed.  Where the set of w is fixed, the seed
picks the controls and the order of the items.  Per-item costs in S6 span
three orders of magnitude and nothing cheap to compute from w predicts them
well: over 200 seeds, a sample redrawn per seed (one w from each of 50
proxy strata) moved the median item cost of the gb items by about 20%
between quartiles, more than any bound worth setting.

Items call the library through module attributes at call time, so a traced
run counts the entry call of every item.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial
from typing import Any, Callable

from schubert import bruhatlab, checks, grobner, hilbert, ideal, perm, pipedream, poly, subword
from schubert.bruhatlab import ExponentArray

N_BIG = 6

# The gb items sample the cheapest GB_POOL_SHARE of S6 by the minor-size
# proxy (items up to about 40 ms).  A larger share adds items of up to 1.2 s:
# with half of S6 a pass takes 1.7 s, with all of it 11 s, and a run times
# each item too few times for a steady minimum.
GB_POOL_SHARE = 0.4

# Standard arrays in the part3 items at full size: about three quarters of
# theorem-b's items, so its item_p50_ms falls on a part3 item and its
# item_p90_ms on a gb item.
PART3_ITEMS = 300

# The theorem-a items are all of S4 and the permutations of S5 up to this
# length.  The longer ones take about four fifths of the 4.5 s of a cold
# pass of all of S5; with them a run times each item only a few times, and
# the time metrics spread by 0.2-0.5 of their median over ten seeds.
THEOREM_A_MAX_LENGTH = 5

# S6 permutations whose Schubert minors are not a Groebner basis under the
# diagonal lex order (the first is 2143, the negative control of
# checks.theorem_b, embedded in S6); the diagonal order must reject each of
# them, so the checker is seen to fail.
DIAG_CONTROLS = (
    (2, 1, 4, 3, 5, 6),
    (2, 1, 4, 3, 6, 5),
    (1, 3, 2, 5, 4, 6),
    (2, 1, 6, 3, 4, 5),
    (2, 1, 5, 6, 3, 4),
    (1, 3, 2, 6, 4, 5),
    (2, 1, 6, 5, 3, 4),
    (2, 5, 1, 4, 3, 6),
)


@dataclass(frozen=True)
class Item:
    label: str
    fn: Callable[..., Any]
    args: tuple
    expected: Any


def _spread(pool: list, k: int) -> list:
    """k elements evenly spaced through an ordered pool."""
    return [pool[int((b + 0.5) * len(pool) / k)] for b in range(k)]


def _label(w) -> str:
    return "".join(map(str, w))


def _top_down(rng: random.Random, items: list[Item]) -> list[Item]:
    """Items from the top of the weak order down, in seeded order within
    each length.  The families recurse from w to a w s_i one step nearer
    w0, so over a set closed under that step (all of S5) each item pays for
    its own step alone, whatever the seed; in a shuffled order, an early
    short w pays for the whole chain above it and the latency percentiles
    depend on the seed."""
    items = list(items)
    rng.shuffle(items)
    return sorted(items, key=lambda item: perm.length(item.args[0]), reverse=True)


# -- gb items: Theorem B by Buchberger's criterion -------------------------------


def _minor_terms(w) -> int:
    """Terms in the defining minors of w: the size of the Buchberger input."""
    return sum(factorial(m.size) for m in ideal.schubert_generators(w))


def _diag_control(w) -> bool:
    gens = [grobner.minor_polynomial(m, len(w)) for m in ideal.schubert_generators(w)]
    return grobner.is_groebner_basis(gens, grobner.diag_lex(len(w)))


def theorem_b_item(w, order) -> bool:
    return grobner.verify_theorem_b(w, order, N_BIG)


def gb_items(rng: random.Random, size: int | None) -> list[Item]:
    """Each sampled w is verified under both antidiagonal orders (size counts
    these items).  A few diagonal-order controls must fail."""
    k = max(1, (size or 100) // 2)
    pool = sorted(perm.all_perms(N_BIG), key=lambda w: (_minor_terms(w), w))
    pool = pool[: int(GB_POOL_SHARE * len(pool))]
    orders = (grobner.antidiag_revlex_nw(N_BIG), grobner.antidiag_lex_ne(N_BIG))
    items = [
        Item(f"{_label(w)}/{order.name}", theorem_b_item, (w, order), True)
        for w in _spread(pool, k)
        for order in orders
    ]
    controls = rng.sample(DIAG_CONTROLS, 1 if size else 4)
    items += [Item(f"{_label(w)}/diag", _diag_control, (w,), False) for w in controls]
    return items


# -- theorem-a items: K-polynomials against the polynomial families ------------------


def theorem_a_item(w) -> bool:
    return hilbert.theorem_a_check(w)


def theorem_a_items(rng: random.Random, size: int | None) -> list[Item]:
    """All of S4 and of S5 up to length THEOREM_A_MAX_LENGTH, top down (a
    prefix of it at a smaller size)."""
    ws = list(perm.all_perms(4)) + [w for w in perm.all_perms(5) if perm.length(w) <= THEOREM_A_MAX_LENGTH]
    items = [Item(f"{_label(w)}/K", theorem_a_item, (w,), True) for w in ws]
    return _top_down(rng, items)[:size]


# -- families items: the four families against pipe dreams, facets and subwords ------


def _staircase(n: int) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """The word of the staircase D0, read row by row, right to left, with the
    cell of each position; facet complements of its subword complex for w
    are the reduced pipe dreams of w."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(n - i, 0, -1)]
    return tuple(i + j - 1 for i, j in cells), cells


def families_item(w) -> bool:
    n = len(w)
    s, ds = poly.schubert(w), poly.double_schubert(w)
    g, dg = poly.grothendieck(w), poly.double_grothendieck(w)
    rp = pipedream.rp_mitosis(w)
    bjs, double_bjs = poly.ZERO, poly.ZERO
    for d in rp:
        bjs = bjs + checks.x_monomial(d)
        double_bjs = double_bjs + checks.xy_weight(d)
    word, cells = _staircase(n)
    delta = subword.subword_complex(word, w, subword.symmetric_group(n))
    via_subwords = frozenset(
        pipedream.PipeDream(n, frozenset(cells[p] for p in delta.vertices - f))
        for f in delta.facets
    )
    return (
        bjs == s
        and double_bjs == ds
        and dg.subs_monomial({poly.yvar(j): {} for j in range(1, n + 1)}) == g
        and ideal.facet_complement_dreams(w) == rp
        and via_subwords == rp
    )


def families_items(rng: random.Random, size: int | None) -> list[Item]:
    """All of S5, top down (a prefix of it at a smaller size).

    Not S6: there the recursion down from the w0 top costs about 10 s before
    sharing pays, so 100 items take 20 s cold plus 5 s warm, and a run times
    each item once; over five seeds the time metrics spread by 0.2-0.3 of
    their median, beyond any usable bound."""
    items = [Item(f"{_label(w)}/families", families_item, (w,), True) for w in perm.all_perms(5)]
    return _top_down(rng, items)[:size]


# -- part3 items: intron mutation and lifted Demazure chains ----------------------------


def part3_item(w, b: ExponentArray) -> bool:
    for i in range(1, len(w)):
        tb = bruhatlab.intron_mutation(i, w, b)
        if (
            bruhatlab.intron_mutation(i, w, tb) != b
            or tb.column_sums() != b.column_sums()
            or bruhatlab.start_codon(i, w, tb) != bruhatlab.start_codon(i, w, b)
            or bruhatlab.promoter_size(i, w, tb) != bruhatlab.promoter_size(i, w, b)
        ):
            return False
    for i in perm.descents(w):
        ws = perm.apply_right_transposition(w, i)
        chain = bruhatlab.lifted_demazure(i, w, b)
        if len(set(chain)) != len(chain) or not all(bruhatlab.standard_test(c, ws) for c in chain):
            return False
    return True


def part3_items(rng: random.Random, size: int | None) -> list[Item]:
    """Standard exponent arrays b (entries 0..3, about half the cells zero)
    for w drawn from S3 and S4, by rejection against the standard test."""
    ws = list(perm.all_perms(3)) + list(perm.all_perms(4))
    items = []
    while len(items) < (size or PART3_ITEMS):
        w = rng.choice(ws)
        n = len(w)
        b = ExponentArray.from_rows(
            [[rng.randint(1, 3) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        )
        if not ideal.monomial_in_ideal(b.support(), ideal.antidiagonal_ideal(w)):
            items.append(Item(f"{_label(w)}:{b.rows}", part3_item, (w, b), True))
    return items


# -- the workloads -------------------------------------------------------------------


def theorem_b(rng: random.Random, size: int | None) -> list[Item]:
    """The gb and part3 items, shuffled together (size split between them)."""
    half = size and max(1, size // 2)
    items = gb_items(rng, half) + part3_items(rng, half)
    rng.shuffle(items)
    return items


def formulas(rng: random.Random, size: int | None) -> list[Item]:
    """The theorem-a and families items, top down together (size split
    between them).  Both read the cached families, so whichever item comes
    first for a w pays for its family step."""
    half = size and max(1, size // 2)
    return _top_down(rng, theorem_a_items(rng, half) + families_items(rng, half))


WORKLOADS = {
    "theorem-b": theorem_b,
    "formulas": formulas,
}


def make_items(workload: str, seed: int, size: int | None = None) -> list[Item]:
    return WORKLOADS[workload](random.Random(seed), size)
