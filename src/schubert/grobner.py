"""A small exact Buchberger engine over Z[z11..znn], sized for desk-scale
verification of the antidiagonal Groebner-basis statement.

At the public boundary monomials are exponent tuples of length n*n in
row-major order and polynomials are dicts monomial -> int.  All division
steps stay integral because the Schubert minors have leading coefficients
+-1; reductions by later basis elements use lcm scaling with content
removal, which keeps everything exact.

Every term order here is a matrix order: ``TermOrder.key`` sends an exponent
vector linearly to an integer tuple.  Packed into one integer (signed digits
in a base large enough for the exponents allowed), the key of a monomial
is the dot product of its exponents with one weight per variable, so one
integer comparison decides the order and the key of a product is the sum of
the keys.  Inside one call, a ``_Basis`` stores each term of each polynomial
as (packed key, packed exponents, coefficient), the exponents in 16-bit
fields whose top bit catches a borrow, so a product is two integer
additions and a divisibility test is one subtraction and one mask.  Each
basis element's leading term is found once, when the element is added, and
each monomial met is packed once.

The pair loop shared by ``is_groebner_basis`` and ``buchberger`` skips two
kinds of S-pair whose reduction cannot change the answer (B. Buchberger, A
criterion for detecting unnecessary reductions in the construction of
Groebner bases, EUROSAM 1979; R. Gebauer and H. M. Moeller, On an
installation of Buchberger's algorithm, J. Symbolic Comput. 6 (1988)):

- the product criterion: a pair whose leading monomials are coprime;
- the chain criterion, in the form of Cox, Little and O'Shea (Ideals,
  Varieties, and Algorithms, ch. 2, "Improvements on Buchberger's
  algorithm"): a pair (a, b) for which some c has lm(c) | lcm(lm a, lm b)
  and both pairs (a, c) and (b, c) are already taken.  Its S-polynomial then
  has a standard representation built from those of (a, c) and (b, c), which
  holds whatever order the pairs are taken in.

An element's coprime pairs, read off per-variable bitmasks of the leads, are
settled as it joins; the other pairs are taken by normal selection, least
lcm degree first.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from dataclasses import dataclass, field
from functools import cache
from math import gcd
from typing import Callable, Iterable, Sequence

from . import ideal as ideal_mod
from . import perm
from .ideal import Minor
from .limits import size_guard
from .perm import Perm

Mono = tuple[int, ...]
Poly = dict[Mono, int]

# Packed exponents use _FIELD bits per variable; exponents stay below
# _EXP_LIMIT so that the top bit of each field is free to catch a borrow.
_FIELD = 16
_EXP_LIMIT = 1 << (_FIELD - 1)
_FIELD_MASK = (1 << _FIELD) - 1

# Top reduction raises CoefficientBlowup once a coefficient passes this bound.
MAX_COEFF = 10**9


class CoefficientBlowup(ArithmeticError):
    """Raised when reduction coefficients pass MAX_COEFF."""


@dataclass(frozen=True)
class TermOrder:
    """A matrix order: ``key`` maps an exponent vector linearly to an integer
    tuple, compared lexicographically.  ``weights`` packs key(unit vector of
    each variable) into one integer, so that sum(e * w) over a monomial's
    exponents compares as its key does while every exponent is below
    _EXP_LIMIT."""

    name: str
    n: int
    antidiagonal: bool
    key: Callable = field(compare=False)
    weights: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        nvars = self.n * self.n
        columns = [self.key((0,) * v + (1,) + (0,) * (nvars - 1 - v)) for v in range(nvars)]
        # each key entry of a monomial is below `bound` in absolute value, so
        # signed digits in a base above 4 * bound compare lexicographically
        bound = _EXP_LIMIT * sum(abs(d) for c in columns for d in c)
        bits = (4 * bound).bit_length()
        weights = tuple(
            sum(d << (bits * (len(c) - 1 - i)) for i, d in enumerate(c) if d) for c in columns
        )
        object.__setattr__(self, "weights", weights)


def _index(n: int, i: int, j: int) -> int:
    return (i - 1) * n + (j - 1)


def antidiag_revlex_nw(n: int) -> TermOrder:
    """Graded reverse lexicographic, variables z11 > z12 > ... > znn."""

    def key(m: Mono):
        return (sum(m), *(-e for e in reversed(m)))

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


# -- polynomials --------------------------------------------------------------


@cache
def _signed_permutations(k: int) -> tuple:
    """(sigma, (-1) ** inversions) for each permutation sigma of range(k)."""
    return tuple(
        (s, (-1) ** sum(a > b for a, b in itertools.combinations(s, 2)))
        for s in itertools.permutations(range(k))
    )


def minor_polynomial(minor: Minor, n: int) -> Poly:
    """Determinant of the named minor, permutation-sign convention."""
    out: Poly = {}
    for sigma, sign in _signed_permutations(minor.size):
        exps = [0] * (n * n)
        for r, s in zip(minor.rows, sigma):
            exps[_index(n, r, minor.cols[s])] += 1
        m = tuple(exps)
        out[m] = out.get(m, 0) + sign
    return {m: c for m, c in out.items() if c}


def initial_term(f: Poly, order: TermOrder) -> tuple[Mono, int]:
    if not f:
        raise ValueError("zero polynomial has no initial term")
    m = max(f, key=order.key)
    return m, f[m]


def _divide_content(f: dict, lead_coeff: int) -> dict:
    """f over the gcd of its coefficients, signed so the leading one is > 0."""
    g = gcd(*f.values())
    if lead_coeff < 0:
        g = -g
    return {m: c // g for m, c in f.items()}


def strip_content(f: Poly, order: TermOrder) -> Poly:
    if not f:
        return f
    return _divide_content(f, initial_term(f, order)[1])


class _Packed(dict):
    """A polynomial as {packed key: coefficient}, in the packing of a _Basis."""


class _Basis:
    """Polynomials prepared for one term order, for the length of one call.

    Each polynomial's terms are (packed key, packed exponents, coefficient)
    and its leading term is found once, when it is appended.  ``exps`` maps
    the packed key of every monomial met so far to its packed exponents.
    ``lead_vars`` lists each leading monomial's variables, and ``incidence``
    per variable the mask of the elements whose leading monomial has it.
    """

    def __init__(self, polys: Iterable[Poly], order: TermOrder):
        self.order = order
        self.nvars = order.n * order.n
        self.guard = sum(1 << (_FIELD * v + _FIELD - 1) for v in range(self.nvars))
        self.exps: dict[int, int] = {}
        self.terms: list[list[tuple[int, int, int]]] = []
        self.heads: list[tuple[int, int, int]] = []  # leading terms, packed
        self.lead_vars: list[list[int]] = []
        self.incidence = [0] * self.nvars
        for f in polys:
            self.append(f)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return ({self.mono(e): c for _, e, c in terms} for terms in self.terms)

    def pack(self, m: Mono) -> int:
        """The packed key of m; records its packed exponents in ``exps``."""
        if max(m, default=0) >= _EXP_LIMIT:
            raise OverflowError(f"exponent above {_EXP_LIMIT - 1}")
        e = sum(x << (_FIELD * v) for v, x in enumerate(m) if x)
        k = self.key_of(e)
        self.exps[k] = e
        return k

    def key_of(self, e: int) -> int:
        """The packed key of the monomial with packed exponents e."""
        k = 0
        while e:
            shift = (e & -e).bit_length() - 1
            shift -= shift % _FIELD
            x = (e >> shift) & _FIELD_MASK
            k += x * self.order.weights[shift // _FIELD]
            e -= x << shift
        return k

    def mono(self, e: int) -> Mono:
        """The monomial with packed exponents e: its 16-bit fields."""
        return struct.unpack(f"<{self.nvars}H", e.to_bytes(2 * self.nvars, "little"))

    def unpack(self, h: dict) -> Poly:
        return {self.mono(self.exps[k]): c for k, c in h.items()}

    def append_minor(self, minor: Minor) -> None:
        """Append minor_polynomial(minor, n), packed from its cells: its rows,
        and its columns, are distinct, so no two terms meet."""
        h, n = _Packed(), self.order.n
        for sigma, sign in _signed_permutations(minor.size):
            variables = [_index(n, r, minor.cols[s]) for r, s in zip(minor.rows, sigma)]
            k = sum(map(self.order.weights.__getitem__, variables))
            self.exps[k] = sum(1 << (_FIELD * v) for v in variables)
            h[k] = sign
        self.append(h)

    def append(self, f: dict) -> None:
        """Append a Poly, or a _Packed polynomial of this basis."""
        if not f:
            raise ValueError("zero polynomial has no initial term")
        if not isinstance(f, _Packed):
            f = {self.pack(m): c for m, c in f.items()}
        lead = max(f)
        fields = self.mono(self.exps[lead])
        self.lead_vars.append(list(itertools.compress(range(self.nvars), fields)))
        for v in self.lead_vars[-1]:
            self.incidence[v] |= 1 << len(self.terms)
        self.terms.append([(k, self.exps[k], c) for k, c in f.items()])
        self.heads.append((lead, self.exps[lead], f[lead]))

    def _add_multiple(self, h: dict, i: int, qk: int, qe: int, factor: int) -> None:
        """h += factor * q * (element i), q the monomial packed as (qk, qe)."""
        exps, guard = self.exps, self.guard
        for k, e, c in self.terms[i]:
            k += qk
            if k not in exps:
                e += qe
                if e & guard:
                    raise OverflowError(f"exponent above {_EXP_LIMIT - 1}")
                exps[k] = e
            v = h.get(k, 0) + factor * c
            if v:
                h[k] = v
            else:
                del h[k]

    def lcm(self, a: int, b: int) -> int:
        """Packed exponents of lcm(lm a, lm b), the larger field of the two
        field by field: a field's guard bit survives (ea | guard) - eb where
        ea's field is at least eb's, and times _FIELD_MASK fills the field."""
        ea, eb = self.heads[a][1], self.heads[b][1]
        larger = (((ea | self.guard) - eb) & self.guard) >> (_FIELD - 1)
        mask = larger * _FIELD_MASK
        return (ea & mask) | (eb & ~mask)

    def s_polynomial(self, a: int, b: int, lcm: int) -> _Packed:
        """S-polynomial of elements a and b; lcm = self.lcm(a, b)."""
        (ka, ea, ca), (kb, eb, cb) = self.heads[a], self.heads[b]
        kl = ka + self.key_of(lcm - ea)
        lc = abs(ca * cb) // gcd(ca, cb)
        h = _Packed()
        self._add_multiple(h, a, kl - ka, lcm - ea, lc // ca)
        self._add_multiple(h, b, kl - kb, lcm - eb, -(lc // cb))
        return h

    def chain(self, lcm: int, taken: int) -> bool:
        """Whether some element c with both its pairs taken (a bit of
        ``taken``) has a leading monomial dividing ``lcm`` (packed)."""
        while taken:
            low = taken & -taken
            if not (lcm - self.heads[low.bit_length() - 1][1]) & self.guard:
                return True
            taken ^= low
        return False

    def reduce(self, f: dict) -> _Packed:
        """Top reduction of a packed polynomial, step for step as on dicts:
        the first element whose leading monomial divides, lcm scaling, then
        content removal with a positive leading coefficient."""
        exps, heads, guard = self.exps, self.heads, self.guard
        h = dict(f)
        while h:
            hk = max(h)
            hc, he = h[hk], exps[hk]
            hit = next((i for i, (_, ge, _) in enumerate(heads) if not (he - ge) & guard), None)
            if hit is None:
                break
            gk, ge, gc = heads[hit]
            scale = abs(gc) // gcd(hc, gc)
            factor = scale * hc // gc
            if scale != 1:
                h = {k: c * scale for k, c in h.items()}
            self._add_multiple(h, hit, hk - gk, he - ge, -factor)
            if h:
                h = _divide_content(h, h[max(h)])
                if max(map(abs, h.values())) > MAX_COEFF:
                    raise CoefficientBlowup(f"coefficient bound {MAX_COEFF} exceeded")
        return _Packed(h)


def _prepare(basis: Sequence[Poly], order: TermOrder) -> _Basis:
    if isinstance(basis, _Basis) and basis.order == order:
        return basis
    return _Basis(basis, order)


def s_polynomial(f: Poly, g: Poly, order: TermOrder) -> Poly:
    basis = _Basis([f, g], order)
    return basis.unpack(basis.s_polynomial(0, 1, basis.lcm(0, 1)))


def top_reduce(f: Poly, basis: Sequence[Poly], order: TermOrder) -> Poly:
    """Remainder whose leading term no basis leading term divides.

    The pair loop passes its prepared basis with a packed S-polynomial and
    gets the remainder back packed."""
    basis = _prepare(basis, order)
    if isinstance(f, _Packed):
        return basis.reduce(f)
    return basis.unpack(basis.reduce({basis.pack(m): c for m, c in f.items()}))


def _remainders(basis: _Basis):
    """The pair loop of is_groebner_basis and buchberger: yields the
    remainder of each S-pair that neither criterion skips, also for elements
    appended meanwhile.  The chain test skips elements sharing no variable
    with lm(a) or lm(b): such a c divides lcm(a, b) only if lm(c) is 1."""
    heap: list = []
    shared: list[int] = []  # shared[a]: elements whose lead shares a variable with a's
    done: list[int] = []  # done[a]: bit c set once the pair (a, c) is taken
    while True:
        for t in range(len(shared), len(basis)):
            mask = 0
            for v in basis.lead_vars[t]:
                mask |= basis.incidence[v]
            shared.append(mask)
            done.append(0)
            partners = shared[t] & ((1 << t) - 1)
            while partners:
                low = partners & -partners
                partners ^= low
                a = low.bit_length() - 1
                shared[a] |= 1 << t
                lcm = basis.lcm(a, t)
                heapq.heappush(heap, (sum(basis.mono(lcm)), lcm, a, t))
        if not heap:
            return
        _, lcm, a, b = heapq.heappop(heap)
        done[a] |= 1 << b
        done[b] |= 1 << a
        # a pair with coprime leads was taken when its later element joined
        taken = (done[a] | ~shared[a]) & (done[b] | ~shared[b]) & (shared[a] | shared[b])
        if basis.chain(lcm, taken):
            continue
        yield top_reduce(basis.s_polynomial(a, b, lcm), basis, basis.order)


def is_groebner_basis(gens: Sequence[Poly], order: TermOrder) -> bool:
    """Buchberger's criterion: every S-pair reduces to zero."""
    return not any(_remainders(_prepare(gens, order)))


def buchberger(gens: Iterable[Poly], order: TermOrder) -> list[Poly]:
    """Complete a generating set to a Groebner basis (normal pair selection)."""
    basis = _Basis([strip_content(dict(g), order) for g in gens if g], order)
    for rem in _remainders(basis):
        if rem:
            basis.append(strip_content(basis.unpack(rem), order))
    return list(basis)


def initial_ideal(basis: Sequence[Poly], order: TermOrder) -> frozenset:
    """Minimal monomial generators of the ideal of initial terms."""
    basis = _prepare(basis, order)
    leads = (e for _, e, _ in basis.heads)
    # a proper multiple of packed exponents is a larger int
    minimal = ideal_mod.minimalize(leads, lambda a, b: not (b - a) & basis.guard, int)
    return frozenset(map(basis.mono, minimal))


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
    basis = _Basis([], order)
    for minor in minors:
        basis.append_minor(minor)

    def packed(cells) -> int:  # the squarefree monomial on the cells
        return sum(1 << (_FIELD * _index(n, i, j)) for i, j in cells)

    # definitional sanity: an antidiagonal order picks each minor's antidiagonal
    for minor, (_, lead, _) in zip(minors, basis.heads):
        if lead != packed(minor.antidiagonal()):
            return False
    # a Groebner basis's leads generate in(I_w), and these leads minimalize to J_w
    return is_groebner_basis(basis, order)
