"""Exact multivariate Laurent polynomials and the four Schubert-type families.

Variables are tagged tuples: ``("x", i)``, ``("y", j)``, ``("z", i, j)``, and
``("t",)``.  A monomial is a sorted tuple of (variable, exponent) pairs with
nonzero exponents; negative exponents are allowed (they occur on the y block
of double Grothendieck polynomials).  Coefficients are Python ints, so all
arithmetic is exact.

The divided difference and Demazure operators act on the x block only.  Both
are computed term by term from the closed form

    (u^a v^b - u^b v^a) / (u - v) = sum_{k=min}^{max-1} u^k v^{a+b-1-k}

with u = x_i, v = x_{i+1}, so no polynomial division ever happens and the
zero-remainder requirement holds by construction.

The family functions (schubert, grothendieck, and their double versions) are
memoized per permutation; ``functools.cache`` provides the atomic
get-or-compute map the shared cache needs.
"""

from __future__ import annotations

import json
from functools import cache
from math import comb
from typing import Iterable, Mapping, Sequence

from . import perm
from .perm import Perm

Var = tuple
Monomial = tuple  # sorted tuple of (Var, int) pairs


def xvar(i: int) -> Var:
    return ("x", i)


def yvar(j: int) -> Var:
    return ("y", j)


def zvar(i: int, j: int) -> Var:
    return ("z", i, j)


TVAR: Var = ("t",)

_BLOCK_RANK = {"x": 0, "y": 1, "z": 2, "t": 3}


def _canon(exps: Mapping[Var, int]) -> Monomial:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _add_into(out: dict, f: "LaurentPoly") -> None:
    """Accumulate the terms of f into the term dict out (zeros may remain)."""
    for m, c in f.terms.items():
        out[m] = out.get(m, 0) + c


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {
            m: c for m, c in (terms or {}).items() if c
        }

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({(): c})

    @classmethod
    def variable(cls, v: Var) -> "LaurentPoly":
        return cls({((v, 1),): 1})

    @classmethod
    def monomial(cls, exps: Mapping[Var, int], coeff: int = 1) -> "LaurentPoly":
        return cls({_canon(exps): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        _add_into(out, other)
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                d = dict(d1)
                for v, e in m2:
                    d[v] = d.get(v, 0) + e
                key = _canon(d)
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({poly_str(self)})"

    def is_zero(self) -> bool:
        return not self.terms

    # -- queries -----------------------------------------------------------

    def variables(self) -> set[Var]:
        return {v for m in self.terms for v, _ in m}

    def coefficient_sum(self) -> int:
        """The value at every variable = 1."""
        return sum(self.terms.values())

    def min_total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return min(_mono_degree(m) for m in self.terms)

    def has_negative_exponent(self, blocks: Iterable[str] = ("x", "y", "z", "t")) -> bool:
        blocks = set(blocks)
        return any(
            e < 0 for m in self.terms for v, e in m if v[0] in blocks
        )

    # -- substitutions -----------------------------------------------------

    def swap_x(self, i: int) -> "LaurentPoly":
        """Apply s_i to the x block: exchange x_i and x_{i+1}."""
        a, b = xvar(i), xvar(i + 1)
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            d = dict(m)
            ea, eb = d.pop(a, 0), d.pop(b, 0)
            if eb:
                d[a] = eb
            if ea:
                d[b] = ea
            key = _canon(d)
            out[key] = out.get(key, 0) + c
        return LaurentPoly(out)

    def subs_monomial(self, mapping: Mapping[Var, Mapping[Var, int]]) -> "LaurentPoly":
        """Substitute a Laurent monomial for each mapped variable.

        Safe for negative exponents because monomials are invertible.
        """
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            d: dict[Var, int] = {}
            for v, e in m:
                if v in mapping:
                    for v2, e2 in mapping[v].items():
                        d[v2] = d.get(v2, 0) + e2 * e
                else:
                    d[v] = d.get(v, 0) + e
            key = _canon(d)
            out[key] = out.get(key, 0) + c
        return LaurentPoly(out)

    def subs_poly(self, mapping: Mapping[Var, "LaurentPoly"]) -> "LaurentPoly":
        """Substitute a polynomial for each mapped variable.

        Mapped variables must appear with nonnegative exponents.
        """
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            acc = LaurentPoly.const(c)
            residual: dict[Var, int] = {}
            for v, e in m:
                if v in mapping:
                    if e < 0:
                        raise ValueError(
                            f"negative exponent on {v} under polynomial substitution"
                        )
                    acc = acc * (mapping[v] ** e)
                else:
                    residual[v] = e
            _add_into(out, acc * LaurentPoly.monomial(residual))
        return LaurentPoly(out)


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)


# -- operators --------------------------------------------------------------


def divided_difference(i: int, f: LaurentPoly) -> LaurentPoly:
    """The divided difference (f - s_i f) / (x_i - x_{i+1}), acting on x only."""
    u, v = xvar(i), xvar(i + 1)
    out: dict[Monomial, int] = {}
    for m, c in f.terms.items():
        d = dict(m)
        a = d.pop(u, 0)
        b = d.pop(v, 0)
        if a == b:
            continue
        sign = 1 if a > b else -1
        lo, hi = min(a, b), max(a, b)
        for k in range(lo, hi):
            d2 = dict(d)
            if k:
                d2[u] = k
            kk = a + b - 1 - k
            if kk:
                d2[v] = kk
            key = _canon(d2)
            out[key] = out.get(key, 0) + sign * c
    return LaurentPoly(out)


def demazure(i: int, f: LaurentPoly) -> LaurentPoly:
    """The Demazure (isobaric divided difference) operator, -d_i(x_{i+1} f)."""
    return -divided_difference(i, LaurentPoly.variable(xvar(i + 1)) * f)


def one_minus_substitute(
    f: LaurentPoly,
    blocks: Iterable[str] = ("x",),
    bound: int | None = None,
) -> LaurentPoly:
    """Replace every variable v of the given blocks by (1 - v).

    Exact on polynomial input.  Negative exponents expand as the geometric
    series (1-v)^-m = sum_k C(m+k-1, k) v^k, which needs a total-degree
    truncation ``bound``; without one, Laurent input is an error.
    """
    blocks = set(blocks)
    out: dict[Monomial, int] = {}
    for m, c in f.terms.items():
        factors = []
        residual: dict[Var, int] = {}
        for v, e in m:
            if v[0] in blocks:
                factors.append(_one_minus_power(v, e, bound))
            else:
                residual[v] = e
        acc = LaurentPoly.monomial(residual, c)
        for fac in factors:
            acc = _mul_truncated(acc, fac, bound)
        _add_into(out, acc)
    return LaurentPoly(out)


def _one_minus_power(v: Var, e: int, bound: int | None) -> LaurentPoly:
    if e >= 0:
        top = e if bound is None else min(e, bound)
        return LaurentPoly(
            {_canon({v: k}): (-1) ** k * comb(e, k) for k in range(top + 1)}
        )
    if bound is None:
        raise ValueError(
            f"negative exponent on {v}: a truncation bound is required"
        )
    m = -e
    return LaurentPoly(
        {_canon({v: k}): comb(m + k - 1, k) for k in range(bound + 1)}
    )


def _mul_truncated(p: LaurentPoly, q: LaurentPoly, bound: int | None) -> LaurentPoly:
    prod = p * q
    if bound is None:
        return prod
    return LaurentPoly(
        {m: c for m, c in prod.terms.items() if _mono_degree(m) <= bound}
    )


def lowest_degree_terms(f: LaurentPoly) -> LaurentPoly:
    """Sum of the terms of minimal total degree."""
    if f.is_zero():
        raise ValueError("zero polynomial has no lowest-degree part")
    lo = f.min_total_degree()
    return LaurentPoly(
        {m: c for m, c in f.terms.items() if _mono_degree(m) == lo}
    )


# -- polynomial families -----------------------------------------------------


def schubert_top(n: int) -> LaurentPoly:
    """S_{w0} = x1^{n-1} x2^{n-2} ... x_{n-1}."""
    return LaurentPoly.monomial({xvar(i): n - i for i in range(1, n)})


def double_schubert_top(n: int) -> LaurentPoly:
    out = ONE
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j <= n:
                out = out * (
                    LaurentPoly.variable(xvar(i)) - LaurentPoly.variable(yvar(j))
                )
    return out


def grothendieck_top(n: int) -> LaurentPoly:
    out = ONE
    for i in range(1, n):
        out = out * (ONE - LaurentPoly.variable(xvar(i))) ** (n - i)
    return out


def double_grothendieck_top(n: int) -> LaurentPoly:
    out = ONE
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j <= n:
                out = out * (ONE - LaurentPoly.monomial({xvar(i): 1, yvar(j): -1}))
    return out


def _family(top, step):
    """Build a cached family following the weak-order recursion down from w0."""

    @cache
    def value(w: Perm) -> LaurentPoly:
        word = perm.reduced_word_to_w0(w)
        if not word:
            return top(len(w))
        i = word[-1]
        return step(i, value(perm.apply_right_transposition(w, i)))

    return value


_schubert = _family(schubert_top, divided_difference)
_double_schubert = _family(double_schubert_top, divided_difference)
_grothendieck = _family(grothendieck_top, demazure)
_double_grothendieck = _family(double_grothendieck_top, demazure)


def schubert(w: Sequence[int]) -> LaurentPoly:
    """The Schubert polynomial of w."""
    return _schubert(perm.validate(w))


def double_schubert(w: Sequence[int]) -> LaurentPoly:
    return _double_schubert(perm.validate(w))


def grothendieck(w: Sequence[int]) -> LaurentPoly:
    """The Grothendieck polynomial of w."""
    return _grothendieck(perm.validate(w))


def double_grothendieck(w: Sequence[int]) -> LaurentPoly:
    return _double_grothendieck(perm.validate(w))


# -- printing and JSON -------------------------------------------------------


def var_name(v: Var) -> str:
    block = v[0]
    if block == "t":
        return "t"
    if block == "z":
        i, j = v[1], v[2]
        return f"z{i}{j}" if i <= 9 and j <= 9 else f"z{i}_{j}"
    return f"{block}{v[1]}"


def _var_sort_key(v: Var):
    return (_BLOCK_RANK[v[0]],) + tuple(v[1:])


def _term_sort_key(mono: Monomial):
    # graded, then lexicographic on the (x, y, z, t) display order
    return (
        -_mono_degree(mono),
        tuple((_var_sort_key(v), -e) for v, e in sorted(mono, key=lambda p: _var_sort_key(p[0]))),
    )


def poly_str(f: LaurentPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for mono in sorted(f.terms, key=_term_sort_key):
        c = f.terms[mono]
        vars_txt = "*".join(
            var_name(v) if e == 1 else f"{var_name(v)}^{e}"
            for v, e in sorted(mono, key=lambda p: _var_sort_key(p[0]))
        )
        if not vars_txt:
            body = str(abs(c))
        elif abs(c) == 1:
            body = vars_txt
        else:
            body = f"{abs(c)}*{vars_txt}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def poly_to_jsonable(f: LaurentPoly) -> list[dict]:
    return [
        {
            "coeff": f.terms[m],
            "exps": {var_name(v): e for v, e in m},
        }
        for m in sorted(f.terms, key=_term_sort_key)
    ]


def poly_to_json(f: LaurentPoly) -> str:
    return json.dumps(poly_to_jsonable(f))


def _var_from_name(name: str) -> Var:
    if name == "t":
        return TVAR
    block = name[0]
    if block == "z":
        body = name[1:]
        if "_" in body:
            i, j = body.split("_")
        else:
            i, j = body[0], body[1]
        return zvar(int(i), int(j))
    return (block, int(name[1:]))


def poly_from_jsonable(data: list[dict]) -> LaurentPoly:
    out: dict[Monomial, int] = {}
    for term in data:
        key = _canon({_var_from_name(k): int(e) for k, e in term["exps"].items()})
        out[key] = out.get(key, 0) + int(term["coeff"])
    return LaurentPoly(out)
