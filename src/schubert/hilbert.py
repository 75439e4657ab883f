"""K-polynomials and multidegrees of squarefree monomial quotients of
k[z11..znn] under the four gradings, and the Schubert identity checks.

Grading tags (the CLI spelling): "zn2" is the finest grading (weight of z_ij
is z_ij itself), then "z2n" (x_i/y_j), "zn" (x_i), and "z" (t).  exp_weight
is the one table of weights: exponential weights drive K-polynomials, and
the ordinary weight of z_ij is the linear form read off its exponential
weight, which drives multidegrees.

One memoised recursion, run directly in the requested grading, gives a node
(codim, C, K): the codimension, multidegree and K-polynomial of R/I.
Generators are supports (frozensets of cells).  A node first factors out its
singleton generators, which share no variable with the rest: each adds 1 to
codim, multiplies C by its ordinary weight and K by its Koszul factor
1 - wt(v).  The rest pivot on the cell v most frequent among them, by

    K(R/I) = K(R/(I + <v>)) + wt(v) * K(R/(I : v)),
    C(R/I) = sum of C(R/(I + <v>)) and C(R/(I : v)) over the branches of
             least codim,

where I + <v> is the generators avoiding v, a node (c, C, K) of its own,
with v factored out as (c + 1, ord(v) * C, (1 - wt(v)) * K), and I : v
deletes v from each generator.  Both sides stay squarefree.  Each step is
one pass of a ``poly`` kernel over packed terms, ``_times_binomial`` for
ord(v) and 1 - wt(v) and ``_koszul`` for the K update, with the packed
weights of each (grading, cell) read once off ``exp_weight``, so the
recursion forms no general polynomial product.

Both rules are exact in every grading, with no cancellation and no
coarsening step.  K is additive along the exact sequence of the pivot.  A
minimal prime of I of codimension codim(I) either contains v, and is then a
minimal prime of I + <v> of the same codimension, or avoids v, and is then
one of I : v; and in any grading a multidegree is the sum over the
top-dimensional components (Miller-Sturmfels, Combinatorial Commutative
Algebra, Ch. 8).  So K(1 - t), whose lowest-degree part the multidegree is
by definition, is never expanded.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from . import ideal as ideal_mod
from . import perm, poly
from .ideal import SquarefreeMonomialIdeal
from .limits import InvariantError, size_guard
from .perm import Perm
from .poly import ONE, LaurentPoly, Monomial, TVAR, unit, xvar, yvar, zvar

Cell = tuple[int, int]
GRADINGS = ("zn2", "z2n", "zn", "z")  # finest to coarsest


def exp_weight(grading: str, cell: Cell) -> dict:
    """Exponential weight of z_cell as an exponent dict."""
    i, j = cell
    if grading == "zn2":
        return {zvar(i, j): 1}
    if grading == "z2n":
        return {xvar(i): 1, yvar(j): -1}
    if grading == "zn":
        return {xvar(i): 1}
    if grading == "z":
        return {TVAR: 1}
    raise ValueError(f"unknown grading {grading!r}")


@cache
def _packed_weight(grading: str, cell: Cell) -> tuple[Monomial, Monomial, Monomial | None]:
    """(wt, a, b): the exponential weight of z_cell packed, and its ordinary
    weight a - b as packed variables (b is None when it is one variable)."""
    exps = exp_weight(grading, cell)
    v, *rest = exps
    return sum(e * unit(u) for u, e in exps.items()), unit(v), unit(rest[0]) if rest else None


_K_CACHE: dict = {}


def _k_of_gens(gens: frozenset, grading: str) -> tuple[int, LaurentPoly, LaurentPoly]:
    """(codim, multidegree, K-polynomial) of the quotient by the ideal with
    these minimal generators, in the given grading."""
    key = (grading, gens)
    hit = _K_CACHE.get(key)
    if hit is not None:
        return hit
    singles, multi, counts = [], [], {}
    for g in gens:
        if len(g) == 1:
            singles.extend(g)
        else:
            multi.append(g)
            for cell in g:
                counts[cell] = counts.get(cell, 0) + 1
    codim, c, k = 0, ONE, ONE
    if multi:
        # by minimality no pivot candidate is also a singleton generator
        v = min(counts, key=lambda cell: (-counts[cell], cell))
        rest = frozenset(g for g in multi if v not in g)
        p_codim, p_c, p_k = _k_of_gens(rest, grading) if rest else (0, ONE, ONE)
        q_codim, q_c, q_k = _k_of_gens(ideal_mod.minimalize(g - {v} for g in multi), grading)
        codim = min(p_codim + 1, q_codim)
        wt, a, b = _packed_weight(grading, v)
        c = poly._times_binomial(p_c, a, b) if p_codim + 1 == codim else poly.ZERO
        if q_codim == codim:
            c = c + q_c
        k = poly._koszul(p_k, q_k, wt)
    for cell in singles:
        wt, a, b = _packed_weight(grading, cell)
        codim, c, k = codim + 1, poly._times_binomial(c, a, b), poly._times_binomial(k, 0, wt)
    result = (codim, c, k)
    _K_CACHE[key] = result
    return result


def _of_ideal(ideal: SquarefreeMonomialIdeal, grading: str):
    if grading not in GRADINGS:
        raise ValueError(f"unknown grading {grading!r}")
    return _k_of_gens(ideal.generators, grading)


def k_polynomial(ideal: SquarefreeMonomialIdeal, grading: str = "zn2") -> LaurentPoly:
    """K-polynomial of k[z]/ideal in the given grading."""
    size_guard(ideal.n, "k_polynomial")
    return _of_ideal(ideal, grading)[2]


def multidegree_of_ideal(ideal: SquarefreeMonomialIdeal, grading: str = "zn") -> LaurentPoly:
    """Multidegree of k[z]/ideal in the given grading."""
    size_guard(ideal.n, "multidegree_of_ideal")
    return _of_ideal(ideal, grading)[1]


def weight_product(cells: Iterable[Cell], grading: str) -> LaurentPoly:
    """The product of the ordinary weights of the cells, one _times_binomial
    step per cell: the multidegree of the coordinate subspace they cut out."""
    product = ONE
    for cell in cells:
        _, a, b = _packed_weight(grading, cell)
        product = poly._times_binomial(product, a, b)
    return product


def multidegree_additive(cell_sets: Iterable[Iterable[Cell]], grading: str = "zn") -> LaurentPoly:
    """Sum over the cell sets of their weight products: over the facet
    complements of a Stanley-Reisner complex, the multidegree of its
    quotient; over the crosses of RP(w), the BJS formula for S_w."""
    terms: dict = {}
    for cells in cell_sets:
        poly._add(terms, weight_product(cells, grading).terms, 0, 1)
    return poly._bounded(terms, None)


def theorem_a_check(w: Perm) -> bool:
    """K-polynomials of k[z]/J_w equal the Grothendieck polynomials and the
    multidegrees equal the Schubert polynomials, in both gradings."""
    w = perm.validate(w)
    size_guard(len(w), "theorem_a_check")
    gens = ideal_mod._antidiagonal_ideal(w).generators
    # the guard above implies the families' (their caps are no smaller, and
    # SCHUBERT_MAX_N raises each to at least its value), so w goes straight
    # to their memos, as it goes to J_w's
    for grading, groth, schub in (
        ("zn", poly._grothendieck, poly._schubert),
        ("z2n", poly._double_grothendieck, poly._double_schubert),
    ):
        codim, c, k = _k_of_gens(gens, grading)
        if codim != perm.length(w):
            raise InvariantError(f"J_w of {w} has codimension {codim}, not l(w)")
        if k != groth(w) or c != schub(w):
            return False
    return True


def divided_difference_identity_check(w: Perm, i: int) -> bool:
    """d_i applied to the multidegree of J_w gives the multidegree of J_{w s_i},
    in both the zn and z2n gradings."""
    w = perm.validate(w)
    ws = perm.descend(w, i)
    jw, jws = (ideal_mod.antidiagonal_ideal(u) for u in (w, ws))
    for grading in ("zn", "z2n"):
        lhs = poly.divided_difference(i, multidegree_of_ideal(jw, grading))
        if lhs != multidegree_of_ideal(jws, grading):
            return False
    return True
