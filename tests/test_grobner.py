import itertools
import random
from math import gcd

import pytest

from reference_kernel import mono_cells, mono_divides, mono_lcm, ref_minor_polynomial
from schubert import grobner, ideal, perm, pipedream
from schubert.grobner import (
    antidiag_lex_ne,
    antidiag_revlex_nw,
    diag_lex,
    initial_term,
    minor_polynomial,
)
from schubert.ideal import Minor


# -- reference: Buchberger's criterion with every S-pair reduced, on dicts --------


def _sub(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) - c
        if not out[m]:
            del out[m]
    return out


def _term_times(f, m, c):
    return {tuple(map(int.__add__, fm, m)): fc * c for fm, fc in f.items()}


def _quotient(a, b):
    return tuple(map(int.__sub__, a, b))


def _ref_s_polynomial(f, g, order):
    fm, fc = initial_term(f, order)
    gm, gc = initial_term(g, order)
    lm = mono_lcm(fm, gm)
    lc = abs(fc * gc) // gcd(fc, gc)
    return _sub(
        _term_times(f, _quotient(lm, fm), lc // fc),
        _term_times(g, _quotient(lm, gm), lc // gc),
    )


def _ref_remainder(f, basis, order):
    leads = [initial_term(g, order) for g in basis]
    h = dict(f)
    while h:
        hm, hc = initial_term(h, order)
        hit = next((k for k, (gm, _) in enumerate(leads) if mono_divides(gm, hm)), None)
        if hit is None:
            return h
        gm, gc = leads[hit]
        scale = abs(gc) // gcd(hc, gc)
        h = _sub(
            {m: c * scale for m, c in h.items()},
            _term_times(basis[hit], _quotient(hm, gm), scale * hc // gc),
        )
    return h


def reference_is_groebner_basis(gens, order):
    """No pruning: no product or chain criterion, every S-pair is reduced."""
    return not any(
        _ref_remainder(_ref_s_polynomial(f, g, order), gens, order)
        for f, g in itertools.combinations(gens, 2)
    )


def gens_of(w):
    minors = sorted(ideal.schubert_generators(w), key=lambda m: (m.size, m.rows, m.cols))
    return [minor_polynomial(m, len(w)) for m in minors]


NW3 = minor_polynomial(Minor((1, 2, 3), (1, 2, 3)), 4)


def test_initial_term_antidiagonal():
    for order in (antidiag_revlex_nw(4), antidiag_lex_ne(4)):
        lm, lc = initial_term(NW3, order)
        assert mono_cells(lm, 4) == frozenset([(1, 3), (2, 2), (3, 1)])
        assert lc == -1


def test_initial_term_diagonal():
    lm, lc = initial_term(NW3, diag_lex(4))
    assert mono_cells(lm, 4) == frozenset([(1, 1), (2, 2), (3, 3)])
    assert lc == 1


def test_initial_term_of_monomial_is_itself():
    f = {(1, 0, 0, 0, 0, 0, 0, 0, 0): 5}
    assert initial_term(f, antidiag_revlex_nw(3)) == ((1, 0, 0, 0, 0, 0, 0, 0, 0), 5)


def test_antidiagonal_orders_pick_antidiagonals_of_noncontiguous_minors():
    minor = Minor((1, 3, 4), (2, 3, 5))
    f = minor_polynomial(minor, 5)
    for order in (antidiag_revlex_nw(5), antidiag_lex_ne(5)):
        lm, _ = initial_term(f, order)
        assert mono_cells(lm, 5) == minor.antidiagonal()


def test_minor_polynomial_2x2():
    f = minor_polynomial(Minor((1, 2), (1, 2)), 2)
    # z11 z22 - z12 z21
    assert f == {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}


def test_minor_polynomial_matches_reference_5x5():
    # every minor of a 5 x 5 grid, expanded and packed straight from its cells
    orders = [antidiag_revlex_nw(5), antidiag_lex_ne(5), diag_lex(5)]
    for k in range(1, 6):
        for rows in itertools.combinations(range(1, 6), k):
            for cols in itertools.combinations(range(1, 6), k):
                minor = Minor(rows, cols)
                ref = ref_minor_polynomial(minor, 5)
                assert minor_polynomial(minor, 5) == ref
                for order in orders:
                    basis = grobner._Basis([], order)
                    basis.append_minor(minor)
                    assert list(basis) == [ref]


def test_2143_minors_are_groebner_for_antidiagonal_orders():
    gens = [
        minor_polynomial(m, 4) for m in ideal.schubert_generators((2, 1, 4, 3))
    ]
    assert grobner.is_groebner_basis(gens, antidiag_revlex_nw(4))
    assert grobner.is_groebner_basis(gens, antidiag_lex_ne(4))


def test_2143_minors_not_groebner_for_diagonal_order():
    gens = [
        minor_polynomial(m, 4) for m in ideal.schubert_generators((2, 1, 4, 3))
    ]
    assert not grobner.is_groebner_basis(gens, diag_lex(4))


def test_monomial_set_is_groebner():
    gens = [{(1, 0, 0, 0): 1}, {(0, 1, 1, 0): 1}]
    assert grobner.is_groebner_basis(gens, antidiag_revlex_nw(2))
    assert grobner.buchberger(gens, antidiag_revlex_nw(2)) == gens


def test_buchberger_completes_diagonal_2143():
    gens = [
        minor_polynomial(m, 4) for m in ideal.schubert_generators((2, 1, 4, 3))
    ]
    order = diag_lex(4)
    basis = grobner.buchberger(gens, order)
    assert len(basis) > len(gens)
    assert grobner.is_groebner_basis(basis, order)
    assert reference_is_groebner_basis(basis, order)


def test_buchberger_output_passes_reference_s4():
    # the pair loop with a growing basis: normal selection, both criteria
    order = diag_lex(4)
    for w in perm.all_perms(4):
        gens = gens_of(w)
        basis = grobner.buchberger(gens, order)
        assert basis[: len(gens)] == gens
        assert reference_is_groebner_basis(basis, order), w


@pytest.mark.parametrize("n", [4, 5])
def test_criterion_matches_reference(n):
    orders = [antidiag_revlex_nw(n), antidiag_lex_ne(n), diag_lex(n)]
    verdicts = set()
    for w in perm.all_perms(n):
        gens = gens_of(w)
        for order in orders:
            verdict = grobner.is_groebner_basis(gens, order)
            assert verdict == reference_is_groebner_basis(gens, order), (w, order.name)
            verdicts.add((order.antidiagonal, verdict))
    # the antidiagonal orders always accept; the diagonal order rejects some w
    assert verdicts == {(True, True), (False, True), (False, False)}


def _random_polys(rng, n):
    """Two or three polynomials on terms drawn from four monomials of at most
    two variables with exponents up to 3, so leading monomials repeat and
    may be constants or not squarefree."""
    pool = []
    for _ in range(4):
        m = [0] * (n * n)
        for v in rng.sample(range(n * n), rng.randint(0, 2)):
            m[v] = rng.randint(1, 3)
        pool.append(tuple(m))
    return [
        {m: rng.choice((-3, -2, -1, 1, 2)) for m in rng.sample(pool, rng.randint(1, 3))}
        for _ in range(rng.randint(2, 3))
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_random_sets_match_reference(n):
    # the support masks where support is not exponent: lead exponents up to
    # 3, constant polynomials and repeated leading monomials
    rng = random.Random(2024 + n)
    orders = [antidiag_revlex_nw(n), antidiag_lex_ne(n), diag_lex(n)]
    seen = set()
    for _ in range(150):
        gens = _random_polys(rng, n)
        for order in orders:
            verdict = grobner.is_groebner_basis(gens, order)
            assert verdict == reference_is_groebner_basis(gens, order), (gens, order.name)
            basis = grobner.buchberger(gens, order)
            assert basis[: len(gens)] == [grobner.strip_content(g, order) for g in gens]
            assert grobner.is_groebner_basis(basis, order)
            assert reference_is_groebner_basis(basis, order), (gens, order.name)
            leads = [initial_term(g, order)[0] for g in gens]
            seen.add(verdict)
            if not all(map(any, leads)):
                seen.add("constant")
            if len(set(leads)) < len(leads):
                seen.add("repeated")
            if max(map(max, leads)) > 1:
                seen.add("power")
    assert seen == {True, False, "constant", "repeated", "power"}


SYMPY_CASES = [
    (w, order)
    for w in ("2143", "1432", "3142", "1342", "2413")
    for order in ("antidiag-revlex", "antidiag-lex")
] + [("2143", "diag")]


def _sympy_setting(order):
    """sympy's name for the order and the variables in decreasing order."""
    n = order.n
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if order.name == "antidiag-lex":
        cells = [(i, j) for j in range(n, 0, -1) for i in range(1, n + 1)]
    return ("grevlex" if order.name == "antidiag-revlex" else "lex"), cells


@pytest.mark.parametrize("w,order_name", SYMPY_CASES)
def test_initial_ideal_against_sympy(w, order_name):
    sympy = pytest.importorskip("sympy")
    w = perm.parse(w)
    n = len(w)
    order = grobner.TERM_ORDERS[order_name](n)
    gens = gens_of(w)
    name, cells = _sympy_setting(order)
    zs = [sympy.Symbol(f"z{i}{j}") for i, j in cells]
    where = [(i - 1) * n + (j - 1) for i, j in cells]

    def expr(f):
        return sum(c * sympy.prod(z**e for z, e in zip(zs, (m[k] for k in where))) for m, c in f.items())

    reduced = sympy.groebner([expr(f) for f in gens], *zs, order=name)
    leading = set()
    for p in reduced.polys:
        exps = p.monoms(order=name)[0]
        mono = [0] * (n * n)
        for k, e in zip(where, exps):
            mono[k] = e
        leading.add(tuple(mono))
    verdict = grobner.is_groebner_basis(gens, order)
    assert verdict == (order_name != "diag")
    assert (leading == grobner.initial_ideal(gens, order)) == verdict


def test_initial_ideal_contains_antidiagonals():
    # J_w is contained in the initial ideal by construction
    for w in [(2, 1, 4, 3), (1, 4, 3, 2)]:
        order = antidiag_revlex_nw(4)
        gens = [minor_polynomial(m, 4) for m in ideal.schubert_generators(w)]
        computed = {mono_cells(m, 4) for m in grobner.initial_ideal(gens, order)}
        assert computed == set(ideal.antidiagonal_ideal(w).generators)


def test_verify_theorem_b_s4():
    for w in perm.all_perms(4):
        assert grobner.verify_theorem_b(w, antidiag_revlex_nw(4))
        assert grobner.verify_theorem_b(w, antidiag_lex_ne(4))


def test_verify_theorem_b_s5():
    for w in perm.all_perms(5):
        assert grobner.verify_theorem_b(w, antidiag_revlex_nw(5))
        assert grobner.verify_theorem_b(w, antidiag_lex_ne(5))


def test_verify_theorem_b_s6_sample():
    # a seeded sixth of S6; all of it runs under --runslow (criterion 4)
    sample = random.Random(6).sample(list(perm.all_perms(6)), 120)
    for w in sample:
        assert grobner.verify_theorem_b(w, antidiag_revlex_nw(6), max_n=6)
        assert grobner.verify_theorem_b(w, antidiag_lex_ne(6), max_n=6)


def test_verify_theorem_b_165_minors():
    w = perm.parse("13865742")
    assert len(ideal.schubert_generators(w)) == 165
    for order in (antidiag_revlex_nw(8), antidiag_lex_ne(8)):
        assert grobner.verify_theorem_b(w, order, max_n=8)


def test_reduction_count_gate(monkeypatch):
    # S-pairs reduced, and pairs visited, for two instances under both
    # antidiagonal orders: a change that silently does more work fails here.
    # The loop visits only the pairs whose leading monomials share a
    # variable (one lcm each); normal selection and the chain criterion
    # leave 80 of 308 and 704 of 4291 to reduce (131 and 1463 when pairs
    # went in index order).
    counts = {"reduced": 0, "pairs": 0}
    top_reduce, lcm = grobner.top_reduce, grobner._Basis.lcm

    def counting_reduce(*args, **kwargs):
        counts["reduced"] += 1
        return top_reduce(*args, **kwargs)

    def counting_lcm(self, a, b):
        counts["pairs"] += 1
        return lcm(self, a, b)

    monkeypatch.setattr(grobner, "top_reduce", counting_reduce)
    monkeypatch.setattr(grobner._Basis, "lcm", counting_lcm)
    for word, reduced, pairs in (("136542", 80, 308), ("13865742", 704, 4291)):
        w = perm.parse(word)
        for order in (antidiag_revlex_nw(len(w)), antidiag_lex_ne(len(w))):
            counts.update(reduced=0, pairs=0)
            assert grobner.verify_theorem_b(w, order, max_n=len(w))
            assert counts == {"reduced": reduced, "pairs": pairs}, (word, order.name)


def test_verify_theorem_b_w0_trivial():
    assert grobner.verify_theorem_b(perm.long_element(3), antidiag_revlex_nw(3))


def test_verify_rejects_diagonal_order():
    with pytest.raises(ValueError):
        grobner.verify_theorem_b((2, 1, 4, 3), diag_lex(4))


def test_facet_count_matches_rp_when_verify_passes():
    # the counting shadow of the equal-multidegree argument
    for w in perm.all_perms(4):
        assert grobner.verify_theorem_b(w, antidiag_revlex_nw(4))
        facets = ideal.stanley_reisner_facets(ideal.antidiagonal_ideal(w))
        assert len(facets) == len(pipedream.rp_mitosis(w))


def test_s_polynomial_exactness():
    f = {(2, 0, 0, 0): 3, (0, 1, 1, 0): 1}
    g = {(1, 1, 0, 0): 2, (0, 0, 0, 1): 5}
    order = diag_lex(2)
    s = grobner.s_polynomial(f, g, order)
    assert all(isinstance(c, int) for c in s.values())
    # leading terms cancel
    assert (2, 1, 0, 0) not in s


def test_remainders_match_reference_s4():
    # exact remainders, not only their vanishing, under every order
    for w in perm.all_perms(4):
        gens = gens_of(w)
        for order in (antidiag_revlex_nw(4), antidiag_lex_ne(4), diag_lex(4)):
            for f, g in itertools.combinations(gens, 2):
                s = grobner.s_polynomial(f, g, order)
                assert s == _ref_s_polynomial(f, g, order)
                rem = grobner.top_reduce(s, gens, order)
                ref = _ref_remainder(s, gens, order)
                assert rem == grobner.strip_content(ref, order)


@pytest.mark.parametrize("n", [2, 3])
def test_remainders_match_reference_random(n):
    # exact remainders where a leading coefficient need not divide the
    # term's: the term is scaled by |gc| / gcd(hc, gc) before the element is
    # subtracted; the first step of some reductions is such a case
    rng = random.Random(18 + n)
    orders = [antidiag_revlex_nw(n), antidiag_lex_ne(n), diag_lex(n)]
    scaled = 0
    for _ in range(150):
        f, *gens = _random_polys(rng, n)
        for order in orders:
            rem = grobner.top_reduce(f, gens, order)
            ref = _ref_remainder(f, gens, order)
            assert grobner.strip_content(rem, order) == grobner.strip_content(ref, order), (f, gens)
            hm, hc = initial_term(f, order)
            leads = [initial_term(g, order) for g in gens]
            gc = next((gc for gm, gc in leads if mono_divides(gm, hm)), None)
            scaled += gc is not None and hc % gc != 0
    assert scaled > 0


def test_exponent_past_packing_limit():
    big = {(1 << 15, 0, 0, 0): 1}
    with pytest.raises(OverflowError):
        grobner.top_reduce(big, [{(1, 0, 0, 0): 1}], diag_lex(2))


def test_coefficient_guard(monkeypatch):
    f = {(1, 0, 0, 0): 10**6, (0, 0, 0, 1): 1}
    g = {(1, 0, 0, 0): 7, (0, 1, 0, 0): 10**6}
    monkeypatch.setattr(grobner, "MAX_COEFF", 10)
    with pytest.raises(grobner.CoefficientBlowup):
        grobner.top_reduce({(2, 0, 0, 0): 1, (0, 0, 1, 0): 1}, [f, g], diag_lex(2))
