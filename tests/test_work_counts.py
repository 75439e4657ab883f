"""Exact work counts on fixed instances, so a change that silently does more
work fails here.  A count may go down; update it then."""

import dataclasses

from schubert import bruhatlab, checks, hilbert, ideal, perm, subword


def test_multidegree_recursion_nodes(monkeypatch):
    # distinct recursion nodes in the zn2 grading from an empty cache:
    # J_15342, then all of S5
    monkeypatch.setattr(hilbert, "_K_CACHE", {})
    hilbert.multidegree_of_ideal(ideal.antidiagonal_ideal((1, 5, 3, 4, 2)), "zn2")
    assert len(hilbert._K_CACHE) == 12
    hilbert._K_CACHE.clear()
    for w in perm.all_perms(5):
        hilbert.multidegree_of_ideal(ideal.antidiagonal_ideal(w), "zn2")
    assert len(hilbert._K_CACHE) == 193


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
    assert len(calls) == 14
    assert len(hilbert._K_CACHE) == len(set(calls)) == 12


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
    # one call, for length(w): the search peels right descents off w, so
    # the length left is always length(w) minus the positions taken
    assert len(calls) == 1


def test_tau_involution_arrays_built(monkeypatch):
    # S3 at entries 0..2: 42,282 standard arrays built from the faces of the
    # complexes, then two mutations per (w, i, b) triple; filtering all 3^9
    # arrays per w once built 287,226
    built = []
    post_init = bruhatlab.ExponentArray.__post_init__

    def counting(self):
        built.append(None)
        post_init(self)

    monkeypatch.setattr(bruhatlab.ExponentArray, "__post_init__", counting)
    assert checks.tau_involution(3, 2) == (True, "84564 (w, i, b) triples")
    assert len(built) == 42282 + 2 * 84564 == 211410
