"""Exact work counts on fixed instances, so a change that silently does more
work fails here.  A count may go down; update it then."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schubert
from schubert import bruhatlab, checks, grobner, hilbert, ideal, perm, pipedream, poly, subword
from schubert.poly import LaurentPoly


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


def test_theorem_a_makes_no_polynomial_product(monkeypatch):
    # theorem_a_check over S4 and S5 with the families warm and an empty
    # _K_CACHE: the pivot steps by f * (a - b) and (1 - wt) p + wt q in one
    # pass each, so no LaurentPoly.__mul__ call is left (building 1 - wt and
    # the ord(v) linear forms and multiplying them made 2,956 calls on
    # 66,212 term pairs); the recursion itself is unchanged, 386 nodes
    # reached by 692 calls
    ws = list(perm.all_perms(4)) + list(perm.all_perms(5))
    families = (poly.schubert, poly.double_schubert, poly.grothendieck, poly.double_grothendieck)
    for w in ws:
        for family in families:
            family(w)
    monkeypatch.setattr(hilbert, "_K_CACHE", {})
    products, calls = [], []
    mul, recurse = LaurentPoly.__mul__, hilbert._k_of_gens

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    def counting(gens, grading):
        calls.append(gens)
        return recurse(gens, grading)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    monkeypatch.setattr(hilbert, "_k_of_gens", counting)
    assert all(hilbert.theorem_a_check(w) for w in ws)
    assert products == []
    assert len(hilbert._K_CACHE) == 386
    assert len(calls) == 692


def test_theorem_a_guards_once_per_w(monkeypatch):
    # theorem_a_check over S4 with J_w warm: its own guard bounds the four
    # families, so it reads their memos without guarding w again (once for
    # the check and once per family made five guard calls per w)
    ws = list(perm.all_perms(4))
    for w in ws:
        ideal.antidiagonal_ideal(w)
    guarded, size_guard = [], hilbert.size_guard

    def counting(n, operation, *cap):
        guarded.append(operation)
        return size_guard(n, operation, *cap)

    for module in (bruhatlab, checks, grobner, hilbert, ideal, pipedream, poly):
        monkeypatch.setattr(module, "size_guard", counting)
    assert all(hilbert.theorem_a_check(w) for w in ws)
    assert guarded == ["theorem_a_check"] * len(ws)


def test_theorem_b_enumerates_the_minors_once_per_order(monkeypatch):
    # verify_theorem_b over S4 under both antidiagonal orders, J_w from a
    # cold cache: one enumeration of the minors per (w, order) and no J_w,
    # since the minors' antidiagonals already give in(I_w) = J_w (building
    # J_w as well made 72 enumerations and 48 antidiagonal_ideal calls)
    ideal._antidiagonal_ideal.cache_clear()
    minors, jws = [], []
    enumerate_minors, build_jw = ideal.schubert_generators, ideal.antidiagonal_ideal
    monkeypatch.setattr(
        ideal, "schubert_generators", lambda w: minors.append(w) or enumerate_minors(w)
    )
    monkeypatch.setattr(ideal, "antidiagonal_ideal", lambda w: jws.append(w) or build_jw(w))
    for name in ("antidiag-revlex", "antidiag-lex"):
        order = grobner.TERM_ORDERS[name](4)
        assert all(grobner.verify_theorem_b(w, order) for w in perm.all_perms(4))
    assert (len(minors), len(jws)) == (48, 0)


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


def tree_nodes(tree) -> int:
    if tree in (subword.VOID_LEAF, subword.EMPTY_LEAF):
        return 0
    return 1 + tree_nodes(tree.link) + (0 if tree.cone else tree_nodes(tree.deletion))


def test_vertex_decomposition_length_calls(monkeypatch):
    # the 24 square-word complexes of checks.subword_checks(4): the tree
    # carries pi^-1, read with length(pi) off a facet, so each node asks one
    # descent test and measures no length (measuring length(s pi) at each
    # node made 611 calls, and length(pi) as well made 1,761); containment
    # is tested only for the link of a descent letter, the one child that
    # can be void (testing it at every node made 713 calls)
    n = 4
    word = subword.square_word(n)
    cox = subword.symmetric_group(2 * n)
    calls, contains_calls, roots = [], [], []
    counting = dataclasses.replace(cox, length=lambda u: calls.append(u) or perm.length(u))
    contains, decompose = subword.contains, subword._decompose
    monkeypatch.setattr(
        subword, "contains", lambda *args: contains_calls.append(args) or contains(*args)
    )

    def recording(word, pos, pinv, *rest):
        if pos == 0:  # the root
            roots.append(pinv)
        return decompose(word, pos, pinv, *rest)

    monkeypatch.setattr(subword, "_decompose", recording)
    nodes = 0
    for w in perm.all_perms(n):
        pi = perm.embed(w, 2 * n)
        delta = subword.subword_complex(word, pi, cox)
        tree, _ = subword.vertex_decompose(dataclasses.replace(delta, cox=counting))
        assert roots == [perm.inverse(pi)]
        roots.clear()
        nodes += tree_nodes(tree)
    assert len(calls) == 0
    assert len(contains_calls) == 102
    assert nodes == 587


def count_arrays_built(monkeypatch) -> list:
    """A list that gets one entry per ExponentArray built from now on."""
    built = []
    post_init = bruhatlab.ExponentArray.__post_init__

    def counting(self):
        built.append(None)
        post_init(self)

    monkeypatch.setattr(bruhatlab.ExponentArray, "__post_init__", counting)
    return built


def test_tau_involution_arrays_built(monkeypatch):
    # S3 at entries 0..2: 42,282 standard arrays built from the faces of the
    # complexes, then two mutations per (w, i, b) triple; filtering all 3^9
    # arrays per w once built 287,226.  From cold caches, one standard_test
    # per mutation, on its output, as the start codon is 0 exactly for an
    # input outside the standard monomials (testing the input first made
    # 338,256)
    bruhatlab._start_codon.cache_clear()
    bruhatlab._generator_masks.cache_clear()
    built, tests = count_arrays_built(monkeypatch), []
    standard_test = bruhatlab.standard_test
    monkeypatch.setattr(
        bruhatlab, "standard_test", lambda b, w: tests.append(b) or standard_test(b, w)
    )
    assert checks.tau_involution(3, 2) == (True, "84564 (w, i, b) triples")
    assert len(built) == 42282 + 2 * 84564 == 211410
    assert len(tests) == 2 * 84564 == 169128
    # the start-codon memo stays within its bound (unbounded, it kept an
    # entry per distinct (i, w, mask))
    info = bruhatlab._start_codon.cache_info()
    assert info.maxsize == 1 << 12 and info.currsize <= info.maxsize


def test_family_and_bjs_products(monkeypatch):
    # the four families over S5 from cold caches, then the double BJS weight
    # of every reduced pipe dream of S5.  With per-factor products for the
    # tops and the weights and a Demazure operator that multiplied by x_{i+1}
    # first, this made 2029 LaurentPoly.__mul__ calls on 56,546 term pairs
    # (271 calls, 22,408 pairs in the families); now every top and weight is
    # a fold of one-pass binomial steps and the Demazure operator is one pass.
    for name in ("_schubert", "_double_schubert", "_grothendieck", "_double_grothendieck"):
        getattr(poly, name).cache_clear()
    pairs, steps = [], []
    mul, step = LaurentPoly.__mul__, poly._times_binomial

    def counting_mul(self, other):
        pairs.append(len(self.terms) * (len(other.terms) if isinstance(other, LaurentPoly) else 1))
        return mul(self, other)

    def counting_step(*args):
        steps.append(args[1:])
        return step(*args)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    monkeypatch.setattr(poly, "_times_binomial", counting_step)
    families = (poly.schubert, poly.double_schubert, poly.grothendieck, poly.double_grothendieck)
    for w in perm.all_perms(5):
        for family in families:
            family(w)
        for d in pipedream.rp_mitosis(w):
            checks.xy_weight(d)
    assert (len(pairs), sum(pairs)) == (0, 0)
    # four tops of 10 staircase cells each, and one step per cross of the 393 dreams
    assert len(steps) == 4 * 10 + 1758


def test_families_step_at_the_first_ascent(monkeypatch):
    # the four families over S5 from cold caches, from the top of the weak
    # order down: one divided-difference or Demazure step per w below w0 in
    # each family (building a reduced word per cache miss made 480)
    for name in ("_schubert", "_double_schubert", "_grothendieck", "_double_grothendieck"):
        getattr(poly, name).cache_clear()
    steps = []
    difference = poly._difference

    def counting_difference(*args):
        steps.append(args[0])
        return difference(*args)

    monkeypatch.setattr(poly, "_difference", counting_difference)
    families = (poly.schubert, poly.double_schubert, poly.grothendieck, poly.double_grothendieck)
    for w in sorted(perm.all_perms(5), key=perm.length, reverse=True):
        for family in families:
            family(w)
    assert len(steps) == 476 == 4 * 119


# every functools memo of the package, warmed, then emptied the way the
# benchmark's worker empties them before each cold pass
MEMO_PROBE = """
import functools, gc, json
import schubert, schubert.cli
from schubert import bruhatlab, grobner, hilbert, pipedream
LAYERS = ("perm", "poly", "pipedream", "ideal", "grobner", "hilbert", "subword", "bruhatlab")
memos = [
    m for m in gc.get_objects()
    if isinstance(m, functools._lru_cache_wrapper)
    and str(getattr(m, "__module__", "")).startswith("schubert")
]
homes = {
    id(v): f"{layer}.{name}"
    for layer in LAYERS for name, v in vars(getattr(schubert, layer)).items()
}
w = (2, 1, 3)
hilbert.theorem_a_check(w)
pipedream.rp_mitosis(w)
bruhatlab.mitosis_facet_bridge(w, 1)
list(bruhatlab.standard_arrays(w, 1))
grobner.verify_theorem_b(w, grobner.antidiag_revlex_nw(3))
warm = [m.cache_info().currsize for m in memos]
for layer in LAYERS:
    for v in list(vars(getattr(schubert, layer)).values()):
        if hasattr(v, "cache_clear"):
            v.cache_clear()
hilbert._K_CACHE.clear()
names = [homes.get(id(m), f"{m.__module__}:{m.__qualname__}") for m in memos]
print(json.dumps({
    "homes": sorted(names),
    "unhomed": [name for m, name in zip(memos, names) if id(m) not in homes],
    "unwarmed": [name for name, n in zip(names, warm) if not n],
    "left": [name for m, name in zip(memos, names) if m.cache_info().currsize],
}))
"""


def test_no_memo_hides_from_the_benchmarks_cold_pass():
    # a memo that a closure or a module outside the eight layers holds would
    # survive the worker's clearing and make its cold passes warm
    env = dict(os.environ)
    src = str(Path(schubert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", MEMO_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert (probe.returncode, probe.stderr) == (0, "")
    found = json.loads(probe.stdout)
    assert "ideal._antidiagonal_ideal" in found["homes"]
    assert (found["unhomed"], found["unwarmed"], found["left"]) == ([], [], [])


def clear_pipedream_caches() -> None:
    """Empty every memo of the pipedream module, as perfbench does before a
    cold pass."""
    for value in list(vars(pipedream).values()):
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_rp_mitosis_calls(monkeypatch):
    # RP(w) over all of S4, then all of S5, from cold caches: one mitosis
    # call per dream of RP(w s_i), i the first ascent of w, for each w below
    # w0 (a fresh walk down from D0 per w made 78 and 805)
    clear_pipedream_caches()
    calls = []
    mitosis = pipedream.mitosis
    monkeypatch.setattr(pipedream, "mitosis", lambda i, d: calls.append(d) or mitosis(i, d))

    def sweep(n: int) -> int:
        calls.clear()
        for w in perm.all_perms(n):
            pipedream.rp_mitosis(w)
        return len(calls)

    assert sweep(4) == 28
    assert sweep(5) == 243
    assert sweep(5) == 0  # warm
    clear_pipedream_caches()
    assert sweep(5) == 243


def test_bridge_calls_mitosis_once_per_dream(monkeypatch):
    # one mitosis call per facet complement of J_w over the 36 covering pairs
    # of S4; comparing the offspring and then taking their union apart made 124
    calls = []
    mitosis = pipedream.mitosis
    monkeypatch.setattr(pipedream, "mitosis", lambda i, d: calls.append(d) or mitosis(i, d))
    assert checks.bridge_s4() == (True, "36 covering pairs")
    assert len(calls) == 62


def test_descent_guard_is_constant_time(monkeypatch):
    # the three callers of perm.descend reject a non-descent with the old
    # message, without measuring a length
    lengths = []
    length = perm.length
    monkeypatch.setattr(perm, "length", lambda w: lengths.append(w) or length(w))
    w, i = (1, 3, 2, 4), 1  # w(1) < w(2): 1 is an ascent
    calls = (
        lambda: hilbert.divided_difference_identity_check(w, i),
        lambda: bruhatlab.lifted_demazure(i, w, bruhatlab.ExponentArray.zero(4)),
        lambda: bruhatlab.mitosis_facet_bridge(w, i),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^need length\(w s_i\) < length\(w\)$"):
            call()
    assert lengths == []


def test_standard_arrays_are_built_as_read(monkeypatch):
    # J_1234 = 0, so w = 1234 at entries 0..1 has all 2^16 = 65,536 arrays;
    # the first one read is the only one built (a list built all of them)
    built = count_arrays_built(monkeypatch)
    arrays = bruhatlab.standard_arrays((1, 2, 3, 4), 1)
    assert built == []
    first = next(arrays)
    assert len(built) == 1
    assert first.rows == ((0,) * 4,) * 4


def test_prime_decomposition_makes_no_brute_force(monkeypatch):
    # criterion 5 compares the facet complements with the memoised RP(w) by
    # mitosis; criterion 3 checks mitosis against brute force once per w (the
    # second brute-force sweep over S4 made 24 calls)
    calls = []
    brute = pipedream.rp_bruteforce

    def counting(w):
        calls.append(w)
        return brute(w)

    monkeypatch.setattr(pipedream, "rp_bruteforce", counting)
    assert checks.prime_decomposition(4) == (True, "S4 + the 1432 pentagon")
    assert calls == []
