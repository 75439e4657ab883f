"""K-polynomials and multidegrees of monomial quotients of k[z11..znn] under
the four gradings, grading coarsening, and the Schubert identity checks.

Grading tags (the CLI spelling): "zn2" is the finest grading (weight of z_ij
is z_ij itself), then "z2n" (x_i/y_j), "zn" (x_i), and "z" (t).  exp_weight
is the one table of weights: exponential weights drive K-polynomials, and
the ordinary weight of z_ij is the linear form read off its exponential
weight, which drives multidegrees.

K-polynomials come from the pivot recursion

    K(R/I) = K(R/(I + <v>)) + wt(v) * K(R/(I : v))

pivoting on the variable most frequent among the generators; the base case,
an ideal generated by powers of distinct variables, is the Koszul product
prod (1 - wt(v)^e).

Coarsening is one substitution out of the finest grading: a zn2 K-polynomial
or multidegree specialises to any grading by sending each z_ij to its
exponential or ordinary weight there.
"""

from __future__ import annotations

from typing import Callable, Iterable

from . import ideal as ideal_mod
from . import perm, poly
from .ideal import SquarefreeMonomialIdeal
from .limits import size_guard
from .perm import Perm
from .poly import ONE, LaurentPoly, TVAR, xvar, yvar, zvar

Cell = tuple[int, int]
GRADINGS = ("zn2", "z2n", "zn", "z")  # finest to coarsest

# a generator is a sorted tuple of ((i, j), exponent) pairs
GenMono = tuple


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


def _gen_mono(pairs: Iterable[tuple[Cell, int]]) -> GenMono:
    return tuple(sorted((c, e) for c, e in pairs if e))


def _gen_divides(a: GenMono, b: GenMono) -> bool:
    bd = dict(b)
    return all(bd.get(c, 0) >= e for c, e in a)


def _gen_degree(g: GenMono) -> int:
    return sum(e for _, e in g)


_K_CACHE: dict = {}


def _k_of_gens(gens: frozenset, grading: str) -> LaurentPoly:
    key = (grading, gens)
    hit = _K_CACHE.get(key)
    if hit is not None:
        return hit
    if not gens:
        result = ONE
    elif all(len(g) == 1 for g in gens):
        result = ONE
        for g in gens:
            (cell, e) = g[0]
            result = result * (ONE - LaurentPoly.monomial(exp_weight(grading, cell)) ** e)
    else:
        # pivot on the most frequent cell of the multi-cell generators; a cell
        # whose own singleton is already a generator would make no progress
        counts: dict[Cell, int] = {}
        for g in gens:
            if len(g) == 1:
                continue
            for cell, _ in g:
                counts[cell] = counts.get(cell, 0) + 1
        pivot = min(counts, key=lambda c: (-counts[c], c))
        plus = ideal_mod.minimalize(
            set(gens) | {_gen_mono([(pivot, 1)])}, _gen_divides, _gen_degree
        )
        colon = ideal_mod.minimalize(
            (_gen_mono([(c, e - 1 if c == pivot else e) for c, e in g]) for g in gens),
            _gen_divides,
            _gen_degree,
        )
        result = _k_of_gens(plus, grading) + LaurentPoly.monomial(
            exp_weight(grading, pivot)
        ) * _k_of_gens(colon, grading)
    _K_CACHE[key] = result
    return result


def k_polynomial(ideal, grading: str = "zn2") -> LaurentPoly:
    """K-polynomial of k[z]/ideal in the given grading.

    Accepts a SquarefreeMonomialIdeal or an iterable of generators given as
    cell-to-exponent mappings (general monomial ideals are fine).
    """
    if grading not in GRADINGS:
        raise ValueError(f"unknown grading {grading!r}")
    if isinstance(ideal, SquarefreeMonomialIdeal):
        size_guard(ideal.n, 6, "k_polynomial")
        gens = frozenset(_gen_mono((c, 1) for c in g) for g in ideal.generators)
    else:
        gens = frozenset(_gen_mono(dict(g).items()) for g in ideal)
    return _k_of_gens(ideal_mod.minimalize(gens, _gen_divides, _gen_degree), grading)


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


def multidegree(k: LaurentPoly, grading: str, codim: int | None = None) -> LaurentPoly:
    """Lowest-degree part of K(1 - t).

    With ``codim`` the substitution forms only the terms of total degree at
    most codim; a lowest degree below codim survives that intact, and one
    above it leaves nothing, which raises.  In the z2n grading the y block is
    Laurent, the substitution expands as a series, and ``codim`` is required.
    Without it the expansion is exact and complete (genuine polynomials).
    """
    blocks = {v[0] for v in exp_weight(grading, (1, 1))}
    if codim is None:
        if k.has_negative_exponent(blocks):
            raise ValueError("Laurent K-polynomial needs a codimension bound")
        return poly.lowest_degree_terms(poly.one_minus_substitute(k, blocks))
    sub = poly.one_minus_substitute(k, blocks, bound=codim)
    if sub.is_zero():
        raise ValueError("truncation bound exceeded")
    return poly.lowest_degree_terms(sub)


def multidegree_of_ideal(ideal, grading: str = "zn") -> LaurentPoly:
    """Multidegree via the finest grading, then coarsened.

    Everything stays polynomial: the zn2 multidegree is exact, and the
    coarsening map on multidegrees substitutes ordinary weights.
    """
    fine = multidegree(k_polynomial(ideal, "zn2"), "zn2")
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
    size_guard(len(w), 5, "theorem_a_check")
    jw = ideal_mod.antidiagonal_ideal(w)
    k_fine = k_polynomial(jw, "zn2")
    if coarsen(k_fine, "zn") != poly.grothendieck(w):
        return False
    if coarsen(k_fine, "z2n") != poly.double_grothendieck(w):
        return False
    fine = multidegree(k_fine, "zn2", codim=perm.length(w))
    if coarsen_multidegree(fine, "zn") != poly.schubert(w):
        return False
    return coarsen_multidegree(fine, "z2n") == poly.double_schubert(w)


def divided_difference_identity_check(w: Perm, i: int) -> bool:
    """d_i applied to the multidegree of J_w gives the multidegree of J_{w s_i},
    in both the zn and z2n gradings."""
    w = perm.validate(w)
    ws = perm.apply_right_transposition(w, i)
    if perm.length(ws) >= perm.length(w):
        raise ValueError("need length(w s_i) < length(w)")
    for grading in ("zn", "z2n"):
        lhs = poly.divided_difference(
            i, multidegree_of_ideal(ideal_mod.antidiagonal_ideal(w), grading)
        )
        rhs = multidegree_of_ideal(ideal_mod.antidiagonal_ideal(ws), grading)
        if lhs != rhs:
            return False
    return True
