"""Test-only reference kernels for schubert.poly, schubert.hilbert,
schubert.subword, and the minors of schubert.perm, schubert.ideal and
schubert.grobner.

A polynomial is a dict from monomials, sorted tuples of (variable, exponent)
pairs, to nonzero coefficients, and the arithmetic is done on exponent
dicts: the representation the packed kernel replaced.  The kernel tests
compare the packed kernel with it, and ``ref_one_minus_substitute`` is the
K(1 - t) expansion that defines a multidegree, the oracle for the pivot
recursion in schubert.hilbert.

The ``loop_*`` functions are the per-factor ``LaurentPoly`` products that
built the family tops and the double BJS weight before they became folds
of the one-pass ``poly._times_binomial``; ``ref_demazure`` is the two-step
Demazure operator -d_i(x_{i+1} f) that ``poly.demazure`` fuses into one
pass.

``ref_rank_matrix``, ``ref_schubert_generators`` and ``ref_minor_polynomial``
are the O(n^3) rank matrix, the minor enumeration over every position of
the grid and the determinant expansion that computes each sign, which
schubert.perm, schubert.ideal and schubert.grobner replaced by cumulative
rows, maximal rank positions and a signed-permutation table.

``mono_lcm``, ``mono_divides`` and ``mono_cells`` act on exponent tuples,
for the Buchberger oracle in test_grobner.

``swap_x``, ``poly_from_jsonable``, ``permutation_from_rank_matrix``,
``contains_bruteforce`` and ``mitosis_via_chutes`` are second routes and
inverses that only the tests read: s_i on the packed x block, JSON back to
a polynomial, the rank matrix back to w, every subword of the right length,
and mitosis as a sequence of chute moves.

``coarsen`` and ``coarsen_multidegree`` are the route schubert.hilbert took
before its recursion ran in the target grading: form the zn2 K-polynomial or
multidegree, then send each z_ij to its weight (``ord_weight`` for a
multidegree).  ``subword_facets_by_prefix``
is the facet search schubert.subword made before it peeled right descents:
left to right, keeping the partial products that are weak-order prefixes of
pi.

``ref_dissect_gene`` is the box-by-box gene dissection schubert.bruhatlab
made before its introns came from the scan that mutates them.

``ref_decompose`` is the vertex decomposition schubert.subword made before
it tested containment only where a link can be void and carried pi^-1: it
tests every node, forms s pi and its length in schubert.perm, and carries the
vertex labels of the shortened word.  ``ref_is_shelling`` is the
Bjorner-Wachs shelling test by brute force over the faces of each meet
complex.
"""

import itertools
from math import comb
from typing import Callable, Sequence

from schubert import perm, pipedream, poly
from schubert.ideal import Minor, essential_cells
from schubert.hilbert import GRADINGS, exp_weight
from schubert.pipedream import PipeDream
from schubert.subword import EMPTY_LEAF, VOID_LEAF, DecompositionNode, contains
from schubert.poly import ONE, TVAR, LaurentPoly, xvar, yvar, zvar


def ref_canon(exps):
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_of(f):
    return {poly.exponents(m): c for m, c in f.terms.items()}


def ref_add(p, q, sign=1):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return ref_clean(out)


def ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            d = dict(m1)
            for v, e in m2:
                d[v] = d.get(v, 0) + e
            key = ref_canon(d)
            out[key] = out.get(key, 0) + c1 * c2
    return ref_clean(out)


def ref_pow(p, k):
    out = {(): 1}
    for _ in range(k):
        out = ref_mul(out, p)
    return out


def ref_swap_x(p, i):
    out = {}
    for m, c in p.items():
        d = dict(m)
        a, b = d.pop(xvar(i), 0), d.pop(xvar(i + 1), 0)
        d[xvar(i)], d[xvar(i + 1)] = b, a
        out[ref_canon(d)] = c
    return out


def ref_divided_difference(i, p):
    out = {}
    for m, c in p.items():
        d = dict(m)
        a, b = d.pop(xvar(i), 0), d.pop(xvar(i + 1), 0)
        sign = 1 if a > b else -1
        for k in range(min(a, b), max(a, b)):
            d2 = dict(d)
            d2[xvar(i)], d2[xvar(i + 1)] = k, a + b - 1 - k
            key = ref_canon(d2)
            out[key] = out.get(key, 0) + sign * c
    return ref_clean(out)


def ref_demazure(i, p):
    shifted = ref_mul({((xvar(i + 1), 1),): 1}, p)
    return {m: -c for m, c in ref_divided_difference(i, shifted).items()}


def ref_subs_monomial(p, mapping):
    out = {}
    for m, c in p.items():
        d = {}
        for v, e in m:
            for v2, e2 in mapping.get(v, {v: 1}).items():
                d[v2] = d.get(v2, 0) + e2 * e
        key = ref_canon(d)
        out[key] = out.get(key, 0) + c
    return ref_clean(out)


def ref_subs_poly(p, mapping):
    out = {}
    for m, c in p.items():
        acc = {(): c}
        residual = {}
        for v, e in m:
            if v in mapping:
                acc = ref_mul(acc, ref_pow(mapping[v], e))
            else:
                residual[v] = e
        out = ref_add(out, ref_mul(acc, {ref_canon(residual): 1}))
    return out


def ref_degree(m):
    return sum(e for _, e in m)


def ref_one_minus_substitute(p, blocks, bound):
    """Replace each variable v of the given blocks by 1 - v, keeping only the
    terms of total degree at most bound (all of them when bound is None).
    A negative exponent expands as the series (1-v)^-m = sum_k C(m+k-1, k) v^k,
    which needs a bound.  Every factor's terms have degree >= 0, so pruning
    after each product loses nothing."""

    def keep(q):
        return q if bound is None else {k: c2 for k, c2 in q.items() if ref_degree(k) <= bound}

    out = {}
    for m, c in p.items():
        acc = keep({ref_canon({v: e for v, e in m if v[0] not in blocks}): c})
        for v, e in m:
            if v[0] not in blocks:
                continue
            if e >= 0:
                top = e if bound is None else min(e, bound)
                fac = {ref_canon({v: k}): (-1) ** k * comb(e, k) for k in range(top + 1)}
            else:
                fac = {ref_canon({v: k}): comb(-e + k - 1, k) for k in range(bound + 1)}
            acc = keep(ref_mul(acc, fac))
        out = ref_add(out, acc)
    return out


def ref_lowest_degree_terms(p):
    low = min(map(ref_degree, p))
    return {m: c for m, c in p.items() if ref_degree(m) == low}


# -- the per-factor product loops ----------------------------------------------


def loop_double_schubert_top(n):
    out = ONE
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j <= n:
                out = out * (LaurentPoly.variable(xvar(i)) - LaurentPoly.variable(yvar(j)))
    return out


def loop_grothendieck_top(n):
    out = ONE
    for i in range(1, n):
        out = out * (ONE - LaurentPoly.variable(xvar(i))) ** (n - i)
    return out


def loop_double_grothendieck_top(n):
    out = ONE
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j <= n:
                out = out * (ONE - LaurentPoly.monomial({xvar(i): 1, yvar(j): -1}))
    return out


def loop_xy_weight(d):
    out = ONE
    for (i, j) in sorted(d.crosses):
        out = out * (LaurentPoly.variable(xvar(i)) - LaurentPoly.variable(yvar(j)))
    return out


# -- the zn2-then-substitute coarsening ----------------------------------------


def _z_weights(f: LaurentPoly, to: str, weight: Callable) -> dict:
    """Map each z_ij of f to its weight in the grading ``to``."""
    if to not in GRADINGS:
        raise ValueError(f"unknown grading {to!r}")
    return {v: weight(to, v[1:]) for v in f.variables() if v[0] == "z"}


def coarsen(k: LaurentPoly, to: str) -> LaurentPoly:
    """Specialise a zn2 K-polynomial to the grading ``to``."""
    return k.subs_monomial(_z_weights(k, to, exp_weight))


def ord_weight(grading: str, cell) -> LaurentPoly:
    """Ordinary weight of z_cell: the linear form sum e*v over exp_weight."""
    return LaurentPoly({poly.unit(v): e for v, e in exp_weight(grading, cell).items()})


def coarsen_multidegree(c: LaurentPoly, to: str) -> LaurentPoly:
    """Specialise a zn2 multidegree to the grading ``to``."""
    return c.subs_poly(_z_weights(c, to, ord_weight))


# -- the left-to-right weak-prefix facet search -----------------------------------


def weak_prefix(u, pi) -> bool:
    """Whether u is a left weak-order prefix of pi, in S_n."""
    rest = perm.multiply(perm.inverse(u), pi)
    return perm.length(u) + perm.length(rest) == perm.length(pi)


def subword_facets_by_prefix(word, pi, cox) -> frozenset:
    """Facets of the subword complex of (word, pi) in S_n."""
    word = tuple(word)
    target_len = cox.length(pi)
    reduced_subwords: list[frozenset] = []

    # walk positions left to right; keep only partial products u that are
    # prefixes of pi in weak order: length(u) + length(u^-1 pi) = length(pi).
    # Only length-increasing letters are taken, so length(current) is
    # len(chosen).
    def rec(pos: int, chosen: tuple, current) -> None:
        if len(chosen) == target_len:
            if current == pi:
                reduced_subwords.append(frozenset(chosen))
            return
        if len(word) - pos < target_len - len(chosen):
            return
        if pos == len(word):
            return
        rec(pos + 1, chosen, current)
        nxt = cox.right_mul(current, word[pos])
        if cox.length(nxt) > len(chosen) and weak_prefix(nxt, pi):
            rec(pos + 1, chosen + (pos,), nxt)

    rec(0, (), cox.identity)
    positions = frozenset(range(len(word)))
    return frozenset(positions - p for p in reduced_subwords)


def ref_decompose(word: tuple, pi, pi_length: int, labels: tuple, cox):
    """Decomposition tree of the subword complex of (word, pi), its vertices
    named by ``labels``."""
    if not contains(word, pi, cox):
        return VOID_LEAF
    if not word:
        return EMPTY_LEAF
    if pi_length == len(word):
        # the whole word is forced: single facet = empty set
        return EMPTY_LEAF
    sigma = word[0]
    rest, rest_labels = word[1:], labels[1:]
    link_tree = ref_decompose(rest, pi, pi_length, rest_labels, cox)
    spi = perm.multiply(perm.permutation_from_word(len(pi), (sigma,)), pi)
    if perm.length(spi) < pi_length:
        del_tree = ref_decompose(rest, spi, pi_length - 1, rest_labels, cox)
        return DecompositionNode(labels[0], False, link_tree, del_tree)
    return DecompositionNode(labels[0], True, link_tree, None)


def ref_is_shelling(order, facets) -> bool:
    """Whether the order lists each facet once and, from the second facet
    on, every maximal face of the complex it shares with its predecessors
    has one cell less than it (Bjorner-Wachs)."""
    order = [frozenset(f) for f in order]
    if sorted(map(sorted, order)) != sorted(map(sorted, facets)):
        return False
    for k, f in enumerate(order[1:], start=1):
        faces = {
            frozenset(c)
            for g in order[:k]
            for r in range(len(f) + 1)
            for c in itertools.combinations(sorted(f & g), r)
        }
        if any(len(s) != len(f) - 1 for s in faces if not any(s < t for t in faces)):
            return False
    return True


# -- the gene read box by box ---------------------------------------------------


def ref_dissect_gene(top, bottom, start: int) -> tuple[tuple, tuple]:
    """The (first, last) columns of each intron and boxes of each exon of the
    gene with rows top and bottom and start codon in column start (1-based).

    Blocks are located with 1 added to both codons, so intron corners are
    nonzero; adjacent exon/intron blocks share boundary boxes."""
    boxes = []  # boxes[k - 1] is the entry in box k
    for c in range(start - 1, len(top)):
        boxes += (top[c], bottom[c])
    boxes[0] += 1
    boxes[-1] += 1
    nonzero = [k for k, v in enumerate(boxes, start=1) if v]
    exons = [(a, c) for a, c in zip(nonzero, nonzero[1:]) if a % 2 == 0 and c % 2 == 1]
    intron_starts = [1] + [c for (_, c) in exons]
    intron_ends = [a for (a, _) in exons] + [len(boxes)]
    blocks = zip(intron_starts, intron_ends)
    introns = [(start + (o - 1) // 2, start + e // 2 - 1) for o, e in blocks]
    return tuple(introns), tuple(exons)


# -- monomials as exponent tuples, for the Groebner oracles ---------------------------


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_cells(m, n: int) -> frozenset:
    return frozenset((k // n + 1, k % n + 1) for k, e in enumerate(m) if e)


# -- minors: every position, the O(n^3) rank matrix, signs one at a time ----------


def ref_rank_matrix(w):
    """Northwest rank matrix: entry (q,p) is #{i <= q : w(i) <= p}."""
    n = len(w)
    rows = []
    for q in range(1, n + 1):
        rows.append(
            tuple(sum(1 for i in range(q) if w[i] <= p) for p in range(1, n + 1))
        )
    return tuple(rows)


def ref_schubert_generators(w, pruned: bool = True) -> frozenset:
    """Minors of size 1 + rank(q, p) in the northwest q x p submatrix, from
    every position (q, p) (only those at an essential rank level when
    ``pruned``)."""
    w = perm.validate(w)
    n = len(w)
    ranks = ref_rank_matrix(w)
    if pruned:
        levels = {ranks[q - 1][p - 1] for (q, p) in essential_cells(w)}
    else:
        levels = None
    out = set()
    for q in range(1, n + 1):
        for p in range(1, n + 1):
            r = ranks[q - 1][p - 1]
            if levels is not None and r not in levels:
                continue
            k = r + 1
            if k > min(q, p):
                continue
            for rows in itertools.combinations(range(1, q + 1), k):
                for cols in itertools.combinations(range(1, p + 1), k):
                    out.add(Minor(rows, cols))
    return frozenset(out)


def ref_perm_sign(sigma: Sequence[int]) -> int:
    s = 1
    for a in range(len(sigma)):
        for b in range(a + 1, len(sigma)):
            if sigma[a] > sigma[b]:
                s = -s
    return s


def ref_minor_polynomial(minor: Minor, n: int) -> dict:
    """Determinant of the named minor, permutation-sign convention."""
    k = minor.size
    out = {}
    for sigma in itertools.permutations(range(k)):
        sign = ref_perm_sign(sigma)
        exps = [0] * (n * n)
        for a in range(k):
            exps[(minor.rows[a] - 1) * n + (minor.cols[sigma[a]] - 1)] += 1
        out[tuple(exps)] = out.get(tuple(exps), 0) + sign
    return {m: c for m, c in out.items() if c}


# -- second routes and inverses that only the tests read --------------------------


def swap_x(f: LaurentPoly, i: int) -> LaurentPoly:
    """Apply s_i to the x block of a packed polynomial: exchange x_i and x_{i+1}."""
    (la, sa), (lb, sb) = poly._reader(xvar(i)), poly._reader(xvar(i + 1))
    step = (1 << sa) - (1 << sb)
    out = {}
    for m, c in f.terms.items():
        ea = (((m + la) >> sa) & poly._MASK) - poly._HALF
        eb = (((m + lb) >> sb) & poly._MASK) - poly._HALF
        out[m + (eb - ea) * step] = c
    return poly._bounded(out, f._reach)


def _var_from_name(name: str):
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


def poly_from_jsonable(data: list) -> LaurentPoly:
    """Inverse of poly.poly_to_jsonable."""
    out = {}
    for term in data:
        key = poly._pack({_var_from_name(k): int(e) for k, e in term["exps"].items()})
        out[key] = out.get(key, 0) + int(term["coeff"])
    return LaurentPoly(out)


def permutation_from_rank_matrix(r):
    """Invert perm.rank_matrix: w(q) is the unique p where the rank jumps by 1."""
    n = len(r)

    def entry(q: int, p: int) -> int:
        if q == 0 or p == 0:
            return 0
        return r[q - 1][p - 1]

    images = []
    for q in range(1, n + 1):
        for p in range(1, n + 1):
            if entry(q, p) - entry(q - 1, p) - entry(q, p - 1) + entry(q - 1, p - 1) == 1:
                images.append(p)
                break
        else:
            raise ValueError("not a permutation rank matrix")
    return perm.validate(images)


def contains_bruteforce(word, pi, cox) -> bool:
    """Oracle for subword.contains: try every subword of the right length."""
    k = cox.length(pi)
    for positions in itertools.combinations(range(len(word)), k):
        el = cox.identity
        ok = True
        for p in positions:
            if cox.descent(el, word[p]):
                ok = False
                break
            el = cox.right_mul(el, word[p])
        if ok and el == pi:
            return True
    return k == 0 and pi == cox.identity


def mitosis_via_chutes(i: int, d: PipeDream) -> frozenset:
    """Mitosis computed by the chute procedure; cross-check for pipedream.mitosis."""
    cols = pipedream.mitosis_columns(i, d)
    if not cols:
        return frozenset()
    out = []
    cur = PipeDream(d.n, d.crosses - {(i, cols[0])})
    out.append(cur)
    for prev, nxt in zip(cols, cols[1:]):
        cur = pipedream.chute(cur, ((i, nxt), (i + 1, prev)))
        out.append(cur)
    return frozenset(out)
