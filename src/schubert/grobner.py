"""A small exact Buchberger engine over Z[z11..znn], sized for desk-scale
verification of the antidiagonal Groebner-basis statement.

Monomials are exponent tuples of length n*n in row-major order; polynomials
are dicts monomial -> int.  All division steps stay integral because the
Schubert minors have leading coefficients +-1; reductions by later basis
elements use lcm scaling with content removal, which keeps everything exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterable, Sequence

from . import ideal as ideal_mod
from . import perm
from .ideal import Minor
from .limits import size_guard
from .perm import Perm

Mono = tuple[int, ...]
Poly = dict[Mono, int]


class CoefficientBlowup(ArithmeticError):
    """Raised when reduction coefficients pass the configured bound."""


@dataclass(frozen=True)
class TermOrder:
    name: str
    n: int
    antidiagonal: bool
    key: Callable = field(compare=False)


def _index(n: int, i: int, j: int) -> int:
    return (i - 1) * n + (j - 1)


def antidiag_revlex_nw(n: int) -> TermOrder:
    """Graded reverse lexicographic, variables z11 > z12 > ... > znn."""

    def key(m: Mono):
        return (sum(m), tuple(-e for e in reversed(m)))

    return TermOrder("antidiag-revlex", n, True, key)


def antidiag_lex_ne(n: int) -> TermOrder:
    """Lexicographic, snaking z1n > z2n > ... > znn > z1,n-1 > ... > zn1."""
    seq = [_index(n, i, j) for j in range(n, 0, -1) for i in range(1, n + 1)]

    def key(m: Mono):
        return tuple(m[s] for s in seq)

    return TermOrder("antidiag-lex", n, True, key)


def diag_lex(n: int) -> TermOrder:
    """Lexicographic with z11 > z12 > ... > znn; picks out diagonal terms."""

    def key(m: Mono):
        return m

    return TermOrder("diag-lex", n, False, key)


TERM_ORDERS = {
    "antidiag-revlex": antidiag_revlex_nw,
    "antidiag-lex": antidiag_lex_ne,
    "diag": diag_lex,
}


# -- monomial helpers ---------------------------------------------------------


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError("monomial does not divide")
    return out


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_coprime(a: Mono, b: Mono) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def mono_cells(m: Mono, n: int) -> frozenset:
    return frozenset(
        (k // n + 1, k % n + 1) for k, e in enumerate(m) if e
    )


# -- polynomials --------------------------------------------------------------


def minor_polynomial(minor: Minor, n: int) -> Poly:
    """Determinant of the named minor, permutation-sign convention."""
    k = minor.size
    out: Poly = {}
    for sigma in itertools.permutations(range(k)):
        sign = perm_sign(sigma)
        exps = [0] * (n * n)
        for a in range(k):
            exps[_index(n, minor.rows[a], minor.cols[sigma[a]])] += 1
        out[tuple(exps)] = out.get(tuple(exps), 0) + sign
    return {m: c for m, c in out.items() if c}


def perm_sign(sigma: Sequence[int]) -> int:
    s = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                s = -s
    return s


def initial_term(f: Poly, order: TermOrder) -> tuple[Mono, int]:
    if not f:
        raise ValueError("zero polynomial has no initial term")
    m = max(f, key=order.key)
    return m, f[m]


def poly_scale(f: Poly, c: int) -> Poly:
    return {m: co * c for m, co in f.items()}


def poly_sub(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for m, c in g.items():
        v = out.get(m, 0) - c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def poly_term_mul(f: Poly, m: Mono, c: int) -> Poly:
    return {mono_mul(m2, m): c2 * c for m2, c2 in f.items()}


def strip_content(f: Poly, order: TermOrder | None = None) -> Poly:
    if not f:
        return f
    g = 0
    for c in f.values():
        g = gcd(g, abs(c))
    out = {m: c // g for m, c in f.items()}
    if order is not None and initial_term(out, order)[1] < 0:
        out = poly_scale(out, -1)
    return out


def s_polynomial(f: Poly, g: Poly, order: TermOrder) -> Poly:
    fm, fc = initial_term(f, order)
    gm, gc = initial_term(g, order)
    lm = mono_lcm(fm, gm)
    lc = abs(fc * gc) // gcd(abs(fc), abs(gc))
    left = poly_term_mul(f, mono_div(lm, fm), lc // fc)
    right = poly_term_mul(g, mono_div(lm, gm), lc // gc)
    return poly_sub(left, right)


def top_reduce(
    f: Poly, basis: Sequence[Poly], order: TermOrder, max_coeff: int = 10**9
) -> Poly:
    """Remainder whose leading term no basis leading term divides."""
    leads = [initial_term(g, order) for g in basis]
    h = dict(f)
    while h:
        hm, hc = initial_term(h, order)
        hit = next(
            (k for k, (gm, _) in enumerate(leads) if mono_divides(gm, hm)), None
        )
        if hit is None:
            return h
        gm, gc = leads[hit]
        if hc % gc == 0:
            scale, factor = 1, hc // gc
        else:
            l = abs(hc * gc) // gcd(abs(hc), abs(gc))
            scale = l // abs(hc)
            factor = (scale * hc) // gc
        h = poly_sub(poly_scale(h, scale), poly_term_mul(basis[hit], mono_div(hm, gm), factor))
        h = strip_content(h, order)
        if h and max(abs(c) for c in h.values()) > max_coeff:
            raise CoefficientBlowup(f"coefficient bound {max_coeff} exceeded")
    return h


def is_groebner_basis(gens: Sequence[Poly], order: TermOrder) -> bool:
    """Buchberger's criterion: every S-pair reduces to zero."""
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            am, _ = initial_term(gens[a], order)
            bm, _ = initial_term(gens[b], order)
            if mono_coprime(am, bm):
                continue
            if top_reduce(s_polynomial(gens[a], gens[b], order), gens, order):
                return False
    return True


def buchberger(
    gens: Iterable[Poly], order: TermOrder, max_coeff: int = 10**9
) -> list[Poly]:
    """Complete a generating set to a Groebner basis (normal pair selection)."""
    basis = [strip_content(dict(g), order) for g in gens if g]
    pairs = {(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))}

    def pair_key(pair):
        a, b = pair
        lm = mono_lcm(
            initial_term(basis[a], order)[0], initial_term(basis[b], order)[0]
        )
        return (sum(lm), lm)

    while pairs:
        a, b = min(pairs, key=pair_key)
        pairs.discard((a, b))
        am, _ = initial_term(basis[a], order)
        bm, _ = initial_term(basis[b], order)
        if mono_coprime(am, bm):
            continue
        rem = top_reduce(s_polynomial(basis[a], basis[b], order), basis, order, max_coeff)
        if rem:
            basis.append(strip_content(rem, order))
            pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis


def initial_ideal(basis: Sequence[Poly], order: TermOrder) -> frozenset:
    """Minimal monomial generators of the ideal of initial terms."""
    return ideal_mod.minimalize(
        (initial_term(g, order)[0] for g in basis), mono_divides, sum
    )


def verify_theorem_b(w: Perm, order: TermOrder, max_n: int = 5) -> bool:
    """Desk-scale check that the Schubert minors are a Groebner basis with
    initial ideal J_w, for an antidiagonal term order."""
    w = perm.validate(w)
    n = len(w)
    size_guard(n, max_n, "verify_theorem_b")
    if order.n != n:
        raise ValueError("term order built for a different grid size")
    if not order.antidiagonal:
        raise ValueError("verify_theorem_b needs an antidiagonal term order")
    minors = sorted(
        ideal_mod.schubert_generators(w), key=lambda m: (m.size, m.rows, m.cols)
    )
    gens = [minor_polynomial(m, n) for m in minors]
    jw = ideal_mod.antidiagonal_ideal(w)
    # definitional sanity: an antidiagonal order picks each minor's antidiagonal
    for minor, g in zip(minors, gens):
        lm, _ = initial_term(g, order)
        if mono_cells(lm, n) != minor.antidiagonal():
            return False
    if not gens:
        return not jw.generators
    if not is_groebner_basis(gens, order):
        return False
    computed = {mono_cells(m, n) for m in initial_ideal(gens, order)}
    return computed == set(jw.generators)
