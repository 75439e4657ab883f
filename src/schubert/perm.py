"""Permutations of {1..n} in one-line notation.

A permutation is a plain tuple ``w`` of the integers 1..n where ``w[i-1]``
is the image w(i).  Positions, rows, columns, and reflection indices are all
1-based to match the combinatorics conventions; only tuple access is 0-based.
"""

from __future__ import annotations

import itertools
import json
from functools import cache
from typing import Callable, Iterator, Sequence

Perm = tuple[int, ...]


def validate(w: Sequence[int]) -> Perm:
    """Return ``w`` as a tuple after checking it is a bijection of {1..n}
    whose entries are ints (not floats, nor bools)."""
    t = tuple(w)
    if not all(type(v) is int for v in t) or sorted(t) != list(range(1, len(t) + 1)):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t!r}")
    return t


def parse(text: str) -> Perm:
    """Read compact one-line form ("2143") or a JSON array ("[2,1,4,3]").

    Raises ValueError on anything else.
    """
    text = text.strip()
    if text.startswith("["):
        return validate(json.loads(text))  # JSONDecodeError is a ValueError
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"malformed permutation: {text!r}")
    return validate(int(ch) for ch in text)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def long_element(n: int) -> Perm:
    """The long permutation w0 = n n-1 ... 2 1."""
    return tuple(range(n, 0, -1))


def length(w: Perm) -> int:
    """Number of inversions.

    >>> length((2, 1, 4, 3))
    2
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def multiply(u: Perm, v: Perm) -> Perm:
    """Compose permutations: (u * v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(v)))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        inv[wi - 1] = i
    return tuple(inv)


def apply_right_transposition(w: Perm, i: int) -> Perm:
    """w * s_i: swap the entries in positions i and i+1."""
    if not 1 <= i <= len(w) - 1:
        raise ValueError(f"reflection index {i} out of range for n={len(w)}")
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def descend(w: Perm, i: int) -> Perm:
    """w * s_i for a right descent i of w, one step down the weak order."""
    ws = apply_right_transposition(w, i)
    if w[i - 1] < w[i]:
        raise ValueError("need length(w s_i) < length(w)")
    return ws


def weak_order_family(top: Callable, step: Callable) -> Callable:
    """A cached function of w, built by induction down the weak order.

    The value at w0 of S_n is ``top(n)``; any other w steps up the weak order
    at its first ascent i, and its value is ``step(i, value(w * s_i))``.
    ``functools.cache`` keeps one entry per w reached, the atomic
    get-or-compute map a shared cache needs; an exception in ``step`` is not
    cached.
    """

    @cache
    def value(w: Perm):
        i = next((i for i in range(1, len(w)) if w[i - 1] < w[i]), None)
        if i is None:
            return top(len(w))
        return step(i, value(apply_right_transposition(w, i)))

    return value


def descents(w: Perm) -> tuple[int, ...]:
    return tuple(i for i in range(1, len(w)) if w[i - 1] > w[i])


def lehmer_code(w: Perm) -> tuple[int, ...]:
    """code(w)_i = #{j > i : w(j) < w(i)}; the code sums to length(w)."""
    n = len(w)
    return tuple(
        sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n)
    )


def rank_matrix(w: Perm) -> tuple[tuple[int, ...], ...]:
    """Northwest rank matrix: entry (q,p) is #{i <= q : w(i) <= p}.

    Entry access is ``rank_matrix(w)[q-1][p-1]``.
    """
    rows, row = [], (0,) * len(w)
    for wq in w:
        row = tuple(r + (p >= wq) for p, r in enumerate(row, start=1))
        rows.append(row)
    return tuple(rows)


def permutation_from_word(n: int, word: Sequence[int]) -> Perm:
    """Multiply out s_{i_1} * s_{i_2} * ... * s_{i_k} in S_n."""
    w = identity(n)
    for i in word:
        w = apply_right_transposition(w, i)
    return w


def embed(w: Perm, m: int) -> Perm:
    """View w in S_m for m >= n, fixing the letters n+1..m."""
    if m < len(w):
        raise ValueError(f"cannot embed S_{len(w)} into S_{m}")
    return tuple(w) + tuple(range(len(w) + 1, m + 1))


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))
