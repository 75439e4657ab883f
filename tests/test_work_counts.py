"""Exact work counts on fixed instances, so a change that silently does more
work fails here.  A count may go down; update it then."""

import dataclasses

from schubert import hilbert, ideal, perm, poly, subword


def test_truncated_multidegree_expansion_count(monkeypatch):
    # K(1 - z) of J_w in the zn2 grading, expanded up to total degree l(w)
    w = (1, 5, 3, 4, 2)
    k = hilbert.k_polynomial(ideal.antidiagonal_ideal(w), "zn2")
    formed = []
    product = poly._mul_truncated

    def counting(p, q, bound):
        out = product(p, q, bound)
        formed.append(len(out))
        return out

    monkeypatch.setattr(poly, "_mul_truncated", counting)
    truncated = poly.one_minus_substitute(k, ("z",), bound=perm.length(w))
    truncated_formed = sum(formed)
    formed.clear()
    full = poly.one_minus_substitute(k, ("z",))
    assert (len(truncated.terms), truncated_formed) == (10, 4767)
    assert (len(full.terms), sum(formed)) == (27, 4818)


def test_k_polynomial_recursion_nodes(monkeypatch):
    # the pivot recursion for J_w in the zn2 grading, from an empty cache
    w = (1, 5, 3, 4, 2)
    monkeypatch.setattr(hilbert, "_K_CACHE", {})
    calls = []
    recurse = hilbert._k_of_gens

    def counting(gens, grading):
        calls.append(gens)
        return recurse(gens, grading)

    monkeypatch.setattr(hilbert, "_k_of_gens", counting)
    hilbert.k_polynomial(ideal.antidiagonal_ideal(w), "zn2")
    assert len(calls) == 19
    assert len(hilbert._K_CACHE) == len(set(calls))


def test_subword_complex_length_calls():
    # the S5 staircase word (rows right to left), facets of w = 15342
    n, w = 5, (1, 5, 3, 4, 2)
    word = tuple(i + j - 1 for i in range(1, n + 1) for j in range(n - i, 0, -1))
    calls = []
    cox = subword.symmetric_group(n)
    counting = dataclasses.replace(cox, length=lambda u: calls.append(u) or perm.length(u))
    delta = subword.subword_complex(word, w, counting)
    assert delta.facets == subword.subword_complex(word, w, cox).facets
    assert len(delta.facets) == 10
    # one call for length(w) and one per node that tries a letter; the
    # search once also measured the current element at every node (381)
    assert len(calls) == 79
