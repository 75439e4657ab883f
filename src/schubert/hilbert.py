"""K-polynomials and multidegrees of squarefree monomial quotients of
k[z11..znn] under the four gradings, grading coarsening, and the Schubert
identity checks.

Grading tags (the CLI spelling): "zn2" is the finest grading (weight of z_ij
is z_ij itself), then "z2n" (x_i/y_j), "zn" (x_i), and "z" (t).  exp_weight
is the one table of weights: exponential weights drive K-polynomials, and
the ordinary weight of z_ij is the linear form read off its exponential
weight, which drives multidegrees.

K-polynomials come from the pivot recursion

    K(R/I) = K(R/(I + <v>)) + wt(v) * K(R/(I : v))

pivoting on the variable most frequent among the generators.  Generators
are supports (frozensets of cells), and both sides stay squarefree: I + <v>
adds a variable and I : v deletes one.  The base case, an ideal generated
by distinct variables, is the Koszul product prod (1 - wt(v)).

Multidegrees follow the same pivots, in the zn2 grading only.  A node
returns (codim, C): at the base case codim is the number of generators and
C their product, and otherwise

    C(I) = sum of C(I + <v>) and C(I : v) over the branches of least codim.

This is exact, with no cancellation: a minimal prime of I of codimension
codim(I) either contains v, and is then a minimal prime of I + <v> of the
same codimension, or avoids v, and is then one of I : v; and a multidegree
is the sum over the top-dimensional components (Miller-Sturmfels,
Combinatorial Commutative Algebra, Ch. 8).  So K(1 - t), whose
lowest-degree part the multidegree is by definition, is never expanded.

Coarsening is one substitution out of the finest grading: a zn2 K-polynomial
or multidegree specialises to any grading by sending each z_ij to its
exponential or ordinary weight there.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable

from . import ideal as ideal_mod
from . import perm, poly
from .ideal import SquarefreeMonomialIdeal
from .limits import InvariantError, size_guard
from .perm import Perm
from .poly import ONE, LaurentPoly, TVAR, xvar, yvar, zvar

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


def ord_weight(grading: str, cell: Cell) -> LaurentPoly:
    """Ordinary weight of z_cell: the linear form sum e*v over exp_weight."""
    out = poly.ZERO
    for v, e in exp_weight(grading, cell).items():
        out = out + LaurentPoly.variable(v) * e
    return out


def _pivot(gens: frozenset):
    """The pivot of a node with its plus and colon ideals, or None at the
    base case, where every generator is a single cell.

    The pivot is the most frequent cell of the multi-cell generators; by
    minimality no such cell is also a singleton generator.
    """
    counts: dict[Cell, int] = {}
    for g in gens:
        if len(g) > 1:
            for cell in g:
                counts[cell] = counts.get(cell, 0) + 1
    if not counts:
        return None
    pivot = min(counts, key=lambda c: (-counts[c], c))
    plus = frozenset(g for g in gens if pivot not in g) | {frozenset([pivot])}
    colon = ideal_mod.minimalize(g - {pivot} for g in gens)
    return pivot, plus, colon


_K_CACHE: dict = {}


def _k_of_gens(gens: frozenset, grading: str) -> LaurentPoly:
    key = (grading, gens)
    hit = _K_CACHE.get(key)
    if hit is not None:
        return hit
    node = _pivot(gens)
    if node is None:
        result = ONE
        for (cell,) in gens:
            result = result * (ONE - LaurentPoly.monomial(exp_weight(grading, cell)))
    else:
        pivot, plus, colon = node
        result = _k_of_gens(plus, grading) + LaurentPoly.monomial(
            exp_weight(grading, pivot)
        ) * _k_of_gens(colon, grading)
    _K_CACHE[key] = result
    return result


@cache
def _mdeg_of_gens(gens: frozenset) -> tuple[int, LaurentPoly]:
    """(codim, zn2 multidegree) of the quotient by the ideal with these
    generators: the pivot recursion keeping the branches of least codim."""
    node = _pivot(gens)
    if node is None:
        return len(gens), LaurentPoly.monomial({zvar(*cell): 1 for (cell,) in gens})
    _, plus, colon = node
    branches = (_mdeg_of_gens(plus), _mdeg_of_gens(colon))
    codim = min(c for c, _ in branches)
    return codim, sum((m for c, m in branches if c == codim), poly.ZERO)


def k_polynomial(ideal: SquarefreeMonomialIdeal, grading: str = "zn2") -> LaurentPoly:
    """K-polynomial of k[z]/ideal in the given grading."""
    if grading not in GRADINGS:
        raise ValueError(f"unknown grading {grading!r}")
    size_guard(ideal.n, 6, "k_polynomial")
    return _k_of_gens(ideal_mod.minimalize(ideal.generators), grading)


def _z_weights(f: LaurentPoly, to: str, weight: Callable) -> dict:
    """Map each z_ij of f to its weight in the grading ``to``."""
    if to not in GRADINGS:
        raise ValueError(f"unknown grading {to!r}")
    return {v: weight(to, v[1:]) for v in f.variables() if v[0] == "z"}


def coarsen(k: LaurentPoly, to: str) -> LaurentPoly:
    """Specialise a zn2 K-polynomial to the grading ``to``."""
    return k.subs_monomial(_z_weights(k, to, exp_weight))


def coarsen_multidegree(c: LaurentPoly, to: str) -> LaurentPoly:
    """Specialise a zn2 multidegree to the grading ``to``."""
    return c.subs_poly(_z_weights(c, to, ord_weight))


def multidegree_of_ideal(ideal: SquarefreeMonomialIdeal, grading: str = "zn") -> LaurentPoly:
    """Multidegree of k[z]/ideal: the zn2 recursion, then coarsened."""
    size_guard(ideal.n, 6, "multidegree_of_ideal")
    _, fine = _mdeg_of_gens(ideal_mod.minimalize(ideal.generators))
    return coarsen_multidegree(fine, grading)


def multidegree_additive(
    facets: Iterable[frozenset], n: int, grading: str = "zn"
) -> LaurentPoly:
    """Sum over facets of the product of ordinary weights of complement cells."""
    vertices = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    total = poly.ZERO
    for f in facets:
        term = ONE
        for cell in sorted(vertices - set(f)):
            term = term * ord_weight(grading, cell)
        total = total + term
    return total


def theorem_a_check(w: Perm) -> bool:
    """K-polynomials of k[z]/J_w equal the Grothendieck polynomials and the
    multidegrees equal the Schubert polynomials, in both gradings."""
    w = perm.validate(w)
    size_guard(len(w), 6, "theorem_a_check")
    jw = ideal_mod.antidiagonal_ideal(w)
    k_fine = k_polynomial(jw, "zn2")
    if coarsen(k_fine, "zn") != poly.grothendieck(w):
        return False
    if coarsen(k_fine, "z2n") != poly.double_grothendieck(w):
        return False
    codim, _ = _mdeg_of_gens(jw.generators)  # J_w is built minimal
    if codim != perm.length(w):
        raise InvariantError(f"J_w of {w} has codimension {codim}, not l(w)")
    if multidegree_of_ideal(jw, "zn") != poly.schubert(w):
        return False
    return multidegree_of_ideal(jw, "z2n") == poly.double_schubert(w)


def divided_difference_identity_check(w: Perm, i: int) -> bool:
    """d_i applied to the multidegree of J_w gives the multidegree of J_{w s_i},
    in both the zn and z2n gradings."""
    w = perm.validate(w)
    ws = perm.apply_right_transposition(w, i)
    if perm.length(ws) >= perm.length(w):
        raise ValueError("need length(w s_i) < length(w)")
    jw, jws = (ideal_mod.antidiagonal_ideal(u) for u in (w, ws))
    for grading in ("zn", "z2n"):
        lhs = poly.divided_difference(i, multidegree_of_ideal(jw, grading))
        if lhs != multidegree_of_ideal(jws, grading):
            return False
    return True
