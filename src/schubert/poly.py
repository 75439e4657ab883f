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
sorted (variable, exponent) pairs; only printing, JSON and the variable
query decode.

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
from functools import cache, reduce
from math import isqrt
from operator import or_
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


def _unit(v: Var) -> Monomial:
    """The monomial v: a one in v's digit and in the degree digit."""
    return (1 << (_BITS * _index(v))) + 1


def _ones(k: int) -> int:
    """A one in each of the digits 0 .. k-1."""
    return ((1 << (_BITS * k)) - 1) // _MASK


def _span(terms) -> int:
    """Number of digits that covers every monomial of terms."""
    return max(map(abs, terms), default=0).bit_length() // _BITS + 2


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


def _within(terms, j: int) -> bool:
    """Whether every digit of these monomials lies in [-2^j, 2^j), j < 15.
    Lifting each digit by 2^j leaves it in [0, 2^(j+1)) exactly when it is in
    range, and the lowest digit out of range sets a bit above j in its field."""
    ones = _ones(_span(terms))
    lift, high = ones << j, ones * (_MASK ^ ((2 << j) - 1))
    return not any(map(high.__and__, map(lift.__add__, terms)))


def _reach(f: "LaurentPoly") -> int:
    """A bound on every |exponent| and |degree| of f, computed once per f."""
    if f._reach is None:
        for j in (3, 13):
            if _within(f.terms, j):
                f._reach = 1 << j
                break
        else:
            f._reach = max(abs(d) for m in f.terms for d in _digits(m))
    return f._reach


def _product_reach(p: "LaurentPoly", q: "LaurentPoly") -> int:
    """A bound for p * q; OverflowError if a term of p times a term of q has
    an exponent or a degree of 2^15 or more in absolute value."""
    reach = _reach(p) + _reach(q)
    if reach < _HALF:
        return reach
    digits = [[_digits(m) for m in f.terms] for f in (p, q)]
    width = max(len(d) for ds in digits for d in ds)
    ranges = [
        [(min(c), max(c)) for c in zip(*(d + [0] * (width - len(d)) for d in ds))]
        for ds in digits
    ]
    reach = 0
    for (lo1, hi1), (lo2, hi2) in zip(*ranges):
        _check_exponent(hi1 + hi2, "product exponent")
        _check_exponent(lo1 + lo2, "product exponent")
        reach = max(reach, hi1 + hi2, -lo1 - lo2)
    return reach


def _bounded(terms: Mapping, reach: int | None) -> "LaurentPoly":
    f = LaurentPoly(terms)
    f._reach = reach
    return f


def _max_reach(*fs: "LaurentPoly") -> int | None:
    return None if any(f._reach is None for f in fs) else max(f._reach for f in fs)


def _add_into(out: dict, terms: Mapping) -> None:
    """Accumulate a term dict into the term dict out (zeros may remain)."""
    for m, c in terms.items():
        out[m] = out.get(m, 0) + c


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients: a dict from
    packed monomials to nonzero coefficients.  ``_reach`` bounds every
    |exponent| and |degree| of the terms when known; products add it, so a
    product checks its operands' fit in O(1)."""

    __slots__ = ("terms", "_reach")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {
            m: c for m, c in (terms or {}).items() if c
        }
        self._reach: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _bounded({}, 0)

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return _bounded({0: c}, 0)

    @classmethod
    def variable(cls, v: Var) -> "LaurentPoly":
        return _bounded({_unit(v): 1}, 1)

    @classmethod
    def monomial(cls, exps: Mapping[Var, int], coeff: int = 1) -> "LaurentPoly":
        return cls({_pack(exps): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        _add_into(out, other.terms)
        return _bounded(out, _max_reach(self, other))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return _bounded(out, _max_reach(self, other))

    def __neg__(self) -> "LaurentPoly":
        return _bounded({m: -c for m, c in self.terms.items()}, self._reach)

    def __mul__(self, other):
        if isinstance(other, int):
            return _bounded({m: c * other for m, c in self.terms.items()}, self._reach)
        reach = _product_reach(self, other)
        out: dict = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = m1 + m2
                out[key] = get(key, 0) + c1 * c2
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
        # lifted by 2^15 every digit is a field of its own, which differs
        # from the lift's exactly where the exponent is nonzero
        k = _span(self.terms)
        lift = _ones(k) << (_BITS - 1)
        support = reduce(or_, map(lift.__xor__, map(lift.__add__, self.terms)), 0)
        return {_var_at(p) for p in range(1, k) if (support >> (_BITS * p)) & _MASK}

    def coefficient_sum(self) -> int:
        """The value at every variable = 1."""
        return sum(self.terms.values())

    def min_total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return min(map(_degree, self.terms))

    # -- substitutions -----------------------------------------------------

    def swap_x(self, i: int) -> "LaurentPoly":
        """Apply s_i to the x block: exchange x_i and x_{i+1}."""
        (la, sa), (lb, sb) = _reader(xvar(i)), _reader(xvar(i + 1))
        step = (1 << sa) - (1 << sb)
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            ea = (((m + la) >> sa) & _MASK) - _HALF
            eb = (((m + lb) >> sb) & _MASK) - _HALF
            out[m + (eb - ea) * step] = c
        return _bounded(out, self._reach)

    def subs_monomial(self, mapping: Mapping[Var, Mapping[Var, int]]) -> "LaurentPoly":
        """Substitute a Laurent monomial for each mapped variable.

        Safe for negative exponents because monomials are invertible.
        """
        table = [(*_reader(v), _pack(image) - _unit(v)) for v, image in mapping.items()]
        # exact while the input and every change stay well inside a digit
        scale = max((abs(d) for *_, delta in table for d in _digits(delta)), default=0)
        safe = (_HALF - 1 - _reach(self)) // max(scale, 1)
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            key, moved = m, 0
            for lift, shift, delta in table:
                e = (((m + lift) >> shift) & _MASK) - _HALF
                if e:
                    key += e * delta
                    moved += abs(e)
            if moved > safe:
                exps = dict(exponents(m))
                subs = {v: exps.pop(v) for v in mapping if v in exps}
                for v, e in subs.items():
                    for v2, e2 in mapping[v].items():
                        exps[v2] = exps.get(v2, 0) + e2 * e
                key = _pack(exps)
            out[key] = out.get(key, 0) + c
        return LaurentPoly(out)

    def subs_poly(self, mapping: Mapping[Var, "LaurentPoly"]) -> "LaurentPoly":
        """Substitute a polynomial for each mapped variable.

        Mapped variables must appear with nonnegative exponents.
        """
        table = [(v, *_reader(v), _unit(v)) for v in mapping]
        powers: dict[tuple[Var, int], LaurentPoly] = {}
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            acc = LaurentPoly.const(c)
            residual, degree = m, _degree(m)
            for v, lift, shift, unit in table:
                e = (((m + lift) >> shift) & _MASK) - _HALF
                if not e:
                    continue
                if e < 0:
                    raise ValueError(
                        f"negative exponent on {v} under polynomial substitution"
                    )
                if (v, e) not in powers:
                    powers[v, e] = mapping[v] ** e
                acc = acc * powers[v, e]
                residual -= e * unit
                degree -= e
            _check_exponent(degree, "total degree")
            _add_into(out, (acc * LaurentPoly({residual: 1})).terms)
        return LaurentPoly(out)


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)


# -- operators --------------------------------------------------------------


def divided_difference(i: int, f: LaurentPoly) -> LaurentPoly:
    """The divided difference (f - s_i f) / (x_i - x_{i+1}), acting on x only."""
    (la, sa), (lb, sb) = _reader(xvar(i)), _reader(xvar(i + 1))
    ua, ub = _unit(xvar(i)), _unit(xvar(i + 1))
    # the x exponents stay in range and the degree drops by one
    reach = _reach(f) + 1
    if reach >= _HALF:
        for m in f.terms:
            _check_exponent(_degree(m) - 1, "total degree")
    out: dict[Monomial, int] = {}
    get = out.get
    for m, c in f.terms.items():
        a = (((m + la) >> sa) & _MASK) - _HALF
        b = (((m + lb) >> sb) & _MASK) - _HALF
        if a == b:
            continue
        sign = c if a > b else -c
        lo, hi = min(a, b), max(a, b)
        # u^k v^{a+b-1-k} for k = lo .. hi-1, one step of u/v at a time
        key = m + (lo - a) * ua + (hi - 1 - b) * ub
        for _ in range(hi - lo):
            out[key] = get(key, 0) + sign
            key += ua - ub
    return _bounded(out, reach)


def demazure(i: int, f: LaurentPoly) -> LaurentPoly:
    """The Demazure (isobaric divided difference) operator, -d_i(x_{i+1} f)."""
    return -divided_difference(i, LaurentPoly.variable(xvar(i + 1)) * f)


def lowest_degree_terms(f: LaurentPoly) -> LaurentPoly:
    """Sum of the terms of minimal total degree."""
    if f.is_zero():
        raise ValueError("zero polynomial has no lowest-degree part")
    lo = f.min_total_degree()
    return _bounded({m: c for m, c in f.terms.items() if _degree(m) == lo}, f._reach)


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
    w = perm.validate(w)
    size_guard(len(w), 7, "double_schubert")
    return _double_schubert(w)


def grothendieck(w: Sequence[int]) -> LaurentPoly:
    """The Grothendieck polynomial of w."""
    return _grothendieck(perm.validate(w))


def double_grothendieck(w: Sequence[int]) -> LaurentPoly:
    w = perm.validate(w)
    size_guard(len(w), 7, "double_grothendieck")
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
        key = _pack({_var_from_name(k): int(e) for k, e in term["exps"].items()})
        out[key] = out.get(key, 0) + int(term["coeff"])
    return LaurentPoly(out)
