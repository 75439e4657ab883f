"""Exact multivariate Laurent polynomials and the four Schubert-type families.

Variables are tagged tuples: ``("x", i)``, ``("y", j)``, ``("z", i, j)``, and
``("t",)``, with indices from 1.  Coefficients are Python ints, so all
arithmetic is exact.

A monomial is one Python int holding its exponents as signed (balanced)
16-bit digits: the exponent e of the variable at index p contributes
e << (16 * p), so negative exponents (on the y block of double Grothendieck
polynomials) need no special case.  Digit 0 holds the total degree, so the
product of two monomials is the sum of their ints and the degree is one mask.
The variable index does not depend on n: index 1 is t, and shell k, at
indices k^2 + 1 .. (k+1)^2, holds x_k, y_k, z_k1 .. z_kk, z_1k .. z_{k-1,k}.
Polynomials built for different n therefore compare equal term by term.  An
exponent or a total degree of 2^15 or more in absolute value does not fit a
digit and raises OverflowError.  ``exponents(m)`` decodes a monomial into its
sorted (variable, exponent) pairs; only printing, JSON, the variable query
and ``subs_poly`` decode.

Each kernel makes one pass and fills one term dict, which ``_bounded`` hands
to the result without a copy: the kernel guarantees that it holds no zero
coefficient.  Sums, products, ``subs_poly`` and the pivot steps accumulate
by one kernel, ``_add``, which deletes each coefficient that cancels.  The
divided difference d_i and the Demazure operator are one operator on the
x block, sign * d_i(x_{i+1}^lift f), with (lift, sign) = (0, +1) and
(1, -1), computed term by term from the closed form

    (u^a v^b - u^b v^a) / (u - v) = sum_{k=min}^{max-1} u^k v^{a+b-1-k}

with u = x_i, v = x_{i+1}, so no polynomial division ever happens.
``_times_binomial`` multiplies by one binomial a - b (or shifts by a) and
``_koszul`` forms (1 - x^wt) p + x^wt q, each in one pass, for monomials
whose digits lie in -1..1; they are the steps of the pivot recursion in
``hilbert``, and every product of cell weights is a fold of the first: the
family tops over the staircase here, ``hilbert.weight_product`` for the
additive multidegree and the pipe-dream weights.
``subs_monomial`` reads all the mapped digits of a term with one mask and
computes the change once per distinct value of them.

The family functions (schubert, grothendieck, and their double versions) are
memoized per permutation by ``perm.weak_order_family``: each starts at its
top for w0 and steps down the weak order by d_i or the Demazure operator,
the same induction that builds RP(w) by mitosis in ``pipedream``.
"""

from __future__ import annotations

import json
from itertools import zip_longest
from math import isqrt
from typing import Mapping, Sequence

from . import perm
from .limits import size_guard
from .perm import Perm

Var = tuple
Monomial = int  # exponents packed in balanced 16-bit digits; digit 0 is the degree

_BITS = 16
_MASK = (1 << _BITS) - 1
_HALF = 1 << (_BITS - 1)  # exponents and degrees stay strictly below this in absolute value


def xvar(i: int) -> Var:
    return ("x", i)


def yvar(j: int) -> Var:
    return ("y", j)


def zvar(i: int, j: int) -> Var:
    return ("z", i, j)


TVAR: Var = ("t",)

_BLOCK_RANK = {"x": 0, "y": 1, "z": 2, "t": 3}


# -- the packed monomial ---------------------------------------------------------


def _index(v: Var) -> int:
    """The digit of v: t is 1, shell k holds x_k, y_k, z_k1..z_kk, z_1k..z_{k-1,k}."""
    if v == TVAR:
        return 1
    if len(v) == 2 and v[0] in ("x", "y") and type(v[1]) is int and v[1] >= 1:
        return v[1] * v[1] + (1 if v[0] == "x" else 2)
    if len(v) == 3 and v[0] == "z" and type(v[1]) is type(v[2]) is int and min(v[1:]) >= 1:
        i, j = v[1], v[2]
        return i * i + 2 + j if i >= j else j * j + 2 + j + i
    raise ValueError(f"not a variable: {v!r}")


def _var_at(p: int) -> Var:
    """The variable of digit p >= 1 (inverse of _index)."""
    if p == 1:
        return TVAR
    k = isqrt(p - 1)
    r = p - 1 - k * k
    if r == 0:
        return xvar(k)
    if r == 1:
        return yvar(k)
    if r <= k + 1:
        return zvar(k, r - 1)
    return zvar(r - k - 1, k)


def unit(v: Var) -> Monomial:
    """The packed monomial v: a one in v's digit and in the degree digit."""
    return (1 << (_BITS * _index(v))) + 1


def _ones(k: int) -> int:
    """A one in each of the digits 0 .. k-1."""
    return ((1 << (_BITS * k)) - 1) // _MASK


def _degree(m: Monomial) -> int:
    return ((m + _HALF) & _MASK) - _HALF


def _reader(v: Var):
    """(lift, shift) reading v's exponent as (((m + lift) >> shift) & _MASK) - _HALF:
    the lift makes v's digit and the ones below it nonnegative, so no borrow
    from a lower digit reaches it."""
    p = _index(v)
    return _ones(p + 1) << (_BITS - 1), _BITS * p


def _check_exponent(e: int, what) -> None:
    if not -_HALF < e < _HALF:
        raise OverflowError(f"{what} {e} does not fit a 16-bit digit")


def _pack(exps: Mapping[Var, int]) -> Monomial:
    m = degree = 0
    for v, e in exps.items():
        _check_exponent(e, f"exponent of {v}")
        m += e << (_BITS * _index(v))
        degree += e
    _check_exponent(degree, "total degree")
    return m + degree


def _digits(m: Monomial) -> list[int]:
    """The balanced digits of m, the degree first."""
    out = []
    while m:
        d = ((m + _HALF) & _MASK) - _HALF
        out.append(d)
        m = (m - d) >> _BITS
    return out


def exponents(m: Monomial) -> tuple:
    """The sorted (variable, exponent) pairs of a packed monomial."""
    return tuple(sorted((_var_at(p), e) for p, e in enumerate(_digits(m)) if p and e))


def _reach(f: "LaurentPoly") -> int:
    """A bound on every |exponent| and |degree| of f (its largest digit if unset)."""
    if f._reach is None:
        f._reach = max((abs(d) for m in f.terms for d in _digits(m)), default=0)
    return f._reach


def _product_reach(p: "LaurentPoly", q: "LaurentPoly") -> int:
    """A bound for p * q; OverflowError if a term of p times a term of q has
    an exponent or a degree of 2^15 or more in absolute value."""
    reach = _reach(p) + _reach(q)
    if reach < _HALF:
        return reach
    digits = [[_digits(m) for m in f.terms] for f in (p, q)]
    ranges = [[(min(c), max(c)) for c in zip_longest(*ds, fillvalue=0)] for ds in digits]
    reach = 0
    for (lo1, hi1), (lo2, hi2) in zip_longest(*ranges, fillvalue=(0, 0)):
        _check_exponent(hi1 + hi2, "product exponent")
        _check_exponent(lo1 + lo2, "product exponent")
        reach = max(reach, hi1 + hi2, -lo1 - lo2)
    return reach


def _bounded(terms: dict, reach: int | None) -> "LaurentPoly":
    """A polynomial owning terms, which must hold no zero coefficient."""
    f = object.__new__(LaurentPoly)
    f.terms, f._reach = terms, reach
    return f


def _nonzero(terms: dict) -> dict:
    """terms without its zero coefficients, copied only if it has any."""
    return terms if all(terms.values()) else {m: c for m, c in terms.items() if c}


def _add(out: dict, terms: Mapping[Monomial, int], shift: Monomial, scale: int) -> None:
    """out += scale * x^shift * terms in place, deleting each coefficient
    that cancels, so out never holds a zero."""
    get = out.get
    for m, c in terms.items():
        m += shift
        c = get(m, 0) + scale * c
        if c:
            out[m] = c
        else:
            del out[m]


def _combine(f: "LaurentPoly", g: "LaurentPoly", sign: int) -> "LaurentPoly":
    """f + sign * g."""
    out = dict(f.terms)
    _add(out, g.terms, 0, sign)
    return _bounded(out, None if None in (f._reach, g._reach) else max(f._reach, g._reach))


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients: a dict from
    packed monomials to nonzero coefficients.  ``_reach`` bounds every
    |exponent| and |degree| of the terms when known; products add it, so a
    product checks its operands' fit in O(1)."""

    __slots__ = ("terms", "_reach")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {m: c for m, c in (terms or {}).items() if c}
        self._reach: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return _bounded({0: c} if c else {}, 0)

    @classmethod
    def variable(cls, v: Var) -> "LaurentPoly":
        return _bounded({unit(v): 1}, 1)

    @classmethod
    def monomial(cls, exps: Mapping[Var, int], coeff: int = 1) -> "LaurentPoly":
        reach = max(abs(sum(exps.values())), *map(abs, exps.values()), 0)  # exact
        return _bounded(_nonzero({_pack(exps): coeff}), reach)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _combine(self, other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return _combine(self, other, -1)

    def __neg__(self) -> "LaurentPoly":
        return _bounded({m: -c for m, c in self.terms.items()}, self._reach)

    def __mul__(self, other):
        if isinstance(other, int):
            return _bounded(_nonzero({m: c * other for m, c in self.terms.items()}), self._reach)
        reach = _product_reach(self, other)
        out: dict = {}
        for m, c in self.terms.items():
            _add(out, other.terms, m, c)
        return _bounded(out, reach)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
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
        return {v for m in self.terms for v, _ in exponents(m)}

    def min_total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return min(map(_degree, self.terms))

    # -- substitutions -----------------------------------------------------

    def subs_monomial(self, mapping: Mapping[Var, Mapping[Var, int]]) -> "LaurentPoly":
        """Substitute a Laurent monomial for each mapped variable.

        Safe for negative exponents because monomials are invertible.
        """
        table = [(_BITS * _index(v), _pack(image) - unit(v)) for v, image in mapping.items()]
        # one unit of a mapped exponent moves each digit by at most scale, so
        # a term whose mapped exponents sum to at most safe in absolute value
        # stays well inside a digit
        scale = max((sum(map(abs, image.values())) + 1 for image in mapping.values()), default=1)
        safe = (_HALF - 1 - _reach(self)) // scale
        # (m + lift) & mask is the mapped digits of m, each offset by _HALF:
        # the lift makes every digit up to the highest mapped one nonnegative
        lift = _ones(max((shift for shift, _ in table), default=0) // _BITS + 1) << (_BITS - 1)
        mask = sum(_MASK << shift for shift, _ in table)
        changes: dict[int, Monomial] = {}  # mapped digits -> the change of the monomial
        out: dict[Monomial, int] = {}
        get = out.get
        for m, c in self.terms.items():
            part = (m + lift) & mask
            change = changes.get(part)
            if change is None:
                change = moved = 0
                for shift, delta in table:
                    e = ((part >> shift) & _MASK) - _HALF
                    if e:
                        change += e * delta
                        moved += abs(e)
                if moved > safe:
                    # exact, and not kept: a term with the same mapped digits
                    # but other digits nearer the limit may overflow
                    exps = dict(exponents(m))
                    subs = {v: exps.pop(v) for v in mapping if v in exps}
                    for v, e in subs.items():
                        for v2, e2 in mapping[v].items():
                            exps[v2] = exps.get(v2, 0) + e2 * e
                    key = _pack(exps)
                    out[key] = get(key, 0) + c
                    continue
                changes[part] = change
            key = m + change
            out[key] = get(key, 0) + c
        return LaurentPoly(out)

    def subs_poly(self, mapping: Mapping[Var, "LaurentPoly"]) -> "LaurentPoly":
        """Substitute a polynomial for each mapped variable.

        Mapped variables must appear with nonnegative exponents.
        """
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            rest = dict(exponents(m))
            subs = [(v, rest.pop(v)) for v in mapping if v in rest]
            acc = LaurentPoly.monomial(rest, c)
            for v, e in subs:
                if e < 0:
                    raise ValueError(f"negative exponent on {v} under polynomial substitution")
                acc = acc * mapping[v] ** e
            _add(out, acc.terms, 0, 1)
        return _bounded(out, None)


ZERO = LaurentPoly.const(0)
ONE = LaurentPoly.const(1)


# -- operators --------------------------------------------------------------


def _difference(i: int, f: LaurentPoly, lift: int, sign: int) -> LaurentPoly:
    """sign * d_i(x_{i+1}^lift * f) in one pass over the terms of f."""
    (la, sa), (lb, sb) = _reader(xvar(i)), _reader(xvar(i + 1))
    ua, ub = unit(xvar(i)), unit(xvar(i + 1))
    # x_{i+1}^lift f and the result, whose degree is one less, stay in reach
    reach = _reach(f) + 1
    if reach >= _HALF:
        for m in f.terms:
            for e in ((((m + lb) >> sb) & _MASK) - _HALF, _degree(m), _degree(m) - 1):
                _check_exponent(e + lift, "exponent or degree")
    out: dict[Monomial, int] = {}
    get = out.get
    step = ua - ub
    for m, c in f.terms.items():
        a = (((m + la) >> sa) & _MASK) - _HALF
        b = (((m + lb) >> sb) & _MASK) - _HALF + lift
        if a > b:
            lo, hi, c = b, a, sign * c
        elif a < b:
            lo, hi, c = a, b, -sign * c
        else:
            continue
        # u^k v^{a+b-1-k} for k = lo .. hi-1, one step of u/v at a time
        key = m + (lo - a) * ua + (hi - 1 - b + lift) * ub
        for _ in range(hi - lo):
            out[key] = get(key, 0) + c
            key += step
    return _bounded(_nonzero(out), reach)


def divided_difference(i: int, f: LaurentPoly) -> LaurentPoly:
    """The divided difference (f - s_i f) / (x_i - x_{i+1}), acting on x only."""
    return _difference(i, f, 0, 1)


def demazure(i: int, f: LaurentPoly) -> LaurentPoly:
    """The Demazure (isobaric divided difference) operator, -d_i(x_{i+1} f)."""
    return _difference(i, f, 1, -1)


def _fit(f: LaurentPoly, *monomials: Monomial) -> int:
    """A bound for f times a sum of monomials whose every exponent and degree
    lies in -1..1: the reach of f plus one, or OverflowError if a product
    term has an exponent or a degree of 2^15 or more in absolute value."""
    reach = _reach(f) + 1
    if reach < _HALF:
        return reach
    return _product_reach(f, _bounded(dict.fromkeys(monomials, 1), 1))


def _times_binomial(f: LaurentPoly, a: Monomial, b: Monomial | None = None) -> LaurentPoly:
    """f * (x^a - x^b), or the shift f * x^a when b is None, in one pass over
    the terms of f; every exponent and degree of a and b lies in -1..1."""
    reach = _fit(f, a) if b is None else _fit(f, a, b)
    out = {m + a: c for m, c in f.terms.items()}  # a shift: no two keys meet
    if b is not None:
        _add(out, f.terms, b, -1)
    return _bounded(out, reach)


def _koszul(p: LaurentPoly, q: LaurentPoly, wt: Monomial) -> LaurentPoly:
    """(1 - x^wt) * p + x^wt * q, one copy of p and one pass over each of p
    and q; every exponent and degree of wt lies in -1..1."""
    reach = max(_fit(p, 0, wt), _fit(q, wt))
    out = dict(p.terms)
    _add(out, p.terms, wt, -1)
    _add(out, q.terms, wt, 1)
    return _bounded(out, reach)


def lowest_degree_terms(f: LaurentPoly) -> LaurentPoly:
    """Sum of the terms of minimal total degree (ValueError on zero)."""
    lo = f.min_total_degree()
    return _bounded({m: c for m, c in f.terms.items() if _degree(m) == lo}, f._reach)


# -- polynomial families -----------------------------------------------------


def _staircase_product(n: int, factor) -> LaurentPoly:
    """The product of the binomials factor(x_i, y_j) over the cells i + j <= n."""
    f = ONE
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            f = _times_binomial(f, *factor(unit(xvar(i)), unit(yvar(j))))
    return f


def schubert_top(n: int) -> LaurentPoly:
    """S_{w0} = x1^{n-1} x2^{n-2} ... x_{n-1}."""
    return _staircase_product(n, lambda x, y: (x, None))


def double_schubert_top(n: int) -> LaurentPoly:
    return _staircase_product(n, lambda x, y: (x, y))


def grothendieck_top(n: int) -> LaurentPoly:
    return _staircase_product(n, lambda x, y: (0, x))


def double_grothendieck_top(n: int) -> LaurentPoly:
    return _staircase_product(n, lambda x, y: (0, x - y))


_schubert = perm.weak_order_family(schubert_top, divided_difference)
_double_schubert = perm.weak_order_family(double_schubert_top, divided_difference)
_grothendieck = perm.weak_order_family(grothendieck_top, demazure)
_double_grothendieck = perm.weak_order_family(double_grothendieck_top, demazure)


def schubert(w: Sequence[int]) -> LaurentPoly:
    """The Schubert polynomial of w."""
    w = perm.validate(w)
    size_guard(len(w), "schubert")
    return _schubert(w)


def double_schubert(w: Sequence[int]) -> LaurentPoly:
    w = perm.validate(w)
    size_guard(len(w), "double_schubert")
    return _double_schubert(w)


def grothendieck(w: Sequence[int]) -> LaurentPoly:
    """The Grothendieck polynomial of w."""
    w = perm.validate(w)
    size_guard(len(w), "grothendieck")
    return _grothendieck(w)


def double_grothendieck(w: Sequence[int]) -> LaurentPoly:
    w = perm.validate(w)
    size_guard(len(w), "double_grothendieck")
    return _double_grothendieck(w)


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


def _display(m: Monomial) -> list:
    """The (variable, exponent) pairs of m in display order: x, y, z, t."""
    return sorted(exponents(m), key=lambda p: _var_sort_key(p[0]))


def _sorted_terms(f: LaurentPoly) -> list:
    """(monomial, its exponents) in print order: graded, then lexicographic
    on the display order."""
    shown = {m: _display(m) for m in f.terms}
    return sorted(
        shown.items(),
        key=lambda item: (-_degree(item[0]), tuple((_var_sort_key(v), -e) for v, e in item[1])),
    )


def poly_str(f: LaurentPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for mono, pairs in _sorted_terms(f):
        c = f.terms[mono]
        vars_txt = "*".join(
            var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in pairs
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
            "exps": {var_name(v): e for v, e in exponents(m)},
        }
        for m, _ in _sorted_terms(f)
    ]


def poly_to_json(f: LaurentPoly) -> str:
    return json.dumps(poly_to_jsonable(f))
