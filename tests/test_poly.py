import functools
import json
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference_kernel import (
    loop_double_grothendieck_top,
    loop_double_schubert_top,
    loop_grothendieck_top,
    loop_xy_weight,
    poly_from_jsonable,
    ref_add,
    ref_canon,
    ref_degree,
    ref_demazure,
    ref_divided_difference,
    ref_lowest_degree_terms,
    ref_mul,
    ref_of,
    ref_one_minus_substitute,
    ref_pow,
    ref_subs_monomial,
    ref_subs_poly,
    ref_swap_x,
    swap_x,
)
from schubert import checks, hilbert, ideal, perm, pipedream, poly
from schubert.limits import SizeGuardError
from schubert.poly import LaurentPoly, ONE, TVAR, xvar, yvar, zvar


def x(i):
    return LaurentPoly.variable(xvar(i))


def mono(**kw):
    # mono(x1=2, x2=1) -> monomial x1^2 x2
    exps = {}
    for name, e in kw.items():
        block, idx = name[0], int(name[1:])
        exps[(block, idx)] = e
    return LaurentPoly.monomial(exps)


def one_minus(f, blocks=("x",)):
    """f with each variable v of the given blocks replaced by 1 - v."""
    return f.subs_poly({v: ONE - LaurentPoly.variable(v) for v in f.variables() if v[0] in blocks})


def random_poly(rng, nvars=3, terms=4, max_exp=3):
    out = poly.ZERO
    for _ in range(terms):
        exps = {xvar(i): rng.randrange(max_exp + 1) for i in range(1, nvars + 1)}
        out = out + LaurentPoly.monomial(exps, rng.randint(-4, 4))
    return out


def test_divided_difference_examples():
    assert poly.divided_difference(1, mono(x1=2, x2=1)) == mono(x1=1, x2=1)
    assert poly.divided_difference(2, mono(x1=1, x2=1)) == x(1)
    # symmetric input dies
    sym = mono(x1=1, x2=1) + mono(x1=2) + mono(x2=2)
    assert poly.divided_difference(1, sym).is_zero()


def test_demazure_fixes_symmetric():
    sym = mono(x1=1, x2=1) * LaurentPoly.const(3) + mono(x1=2) + mono(x2=2)
    assert poly.demazure(1, sym) == sym
    assert poly.demazure(2, ONE) == ONE


def test_demazure_formula_example():
    # dem2 dem1 dem3 dem2 applied to (1-x1)^3 (1-x2)^2 (1-x3) gives G_2143
    f = (ONE - x(1)) ** 3 * (ONE - x(2)) ** 2 * (ONE - x(3))
    for i in (2, 3, 1, 2):
        f = poly.demazure(i, f)
    expected = (ONE - x(1)) * (ONE - mono(x1=1, x2=1, x3=1))
    assert f == expected


def test_coxeter_relations_and_idempotence():
    rng = random.Random(7)
    for _ in range(12):
        f = random_poly(rng)
        d1 = lambda g: poly.divided_difference(1, g)
        d2 = lambda g: poly.divided_difference(2, g)
        assert d1(d2(d1(f))) == d2(d1(d2(f)))
        assert poly.divided_difference(1, d1(f)).is_zero()
        b1 = lambda g: poly.demazure(1, g)
        b2 = lambda g: poly.demazure(2, g)
        assert b1(b2(b1(f))) == b2(b1(b2(f)))
        assert poly.demazure(1, b1(f)) == b1(f)


def test_commuting_operators():
    rng = random.Random(11)
    for _ in range(6):
        f = random_poly(rng, nvars=4)
        a = poly.divided_difference(1, poly.divided_difference(3, f))
        b = poly.divided_difference(3, poly.divided_difference(1, f))
        assert a == b
        c = poly.demazure(1, poly.demazure(3, f))
        d = poly.demazure(3, poly.demazure(1, f))
        assert c == d


def test_schubert_s3_table():
    table = {
        (3, 2, 1): mono(x1=2, x2=1),
        (3, 1, 2): mono(x1=2),
        (2, 3, 1): mono(x1=1, x2=1),
        (1, 3, 2): x(1) + x(2),
        (2, 1, 3): x(1),
        (1, 2, 3): ONE,
    }
    for w, expected in table.items():
        assert poly.schubert(w) == expected


def test_schubert_2143():
    assert poly.schubert((2, 1, 4, 3)) == mono(x1=2) + mono(x1=1, x2=1) + mono(
        x1=1, x3=1
    )


def test_schubert_independent_of_reduced_word():
    # recompute along a different reduced word for w0 w: leftmost-descent greedy
    def schubert_via_left_greedy(w):
        n = len(w)
        u = list(perm.multiply(perm.long_element(n), w))
        word = []
        while True:
            i = next((i for i in range(1, n) if u.index(i) > u.index(i + 1)), None)
            if i is None:
                break
            word.append(i)
            a, b = u.index(i), u.index(i + 1)
            u[a], u[b] = u[b], u[a]
        f = poly.schubert_top(n)
        for i in word:
            f = poly.divided_difference(i, f)
        return f

    for w in perm.all_perms(4):
        assert schubert_via_left_greedy(w) == poly.schubert(w)


def test_double_schubert_s3():
    assert poly.double_schubert((2, 1, 3)) == x(1) - LaurentPoly.variable(yvar(1))
    y1, y2 = LaurentPoly.variable(yvar(1)), LaurentPoly.variable(yvar(2))
    assert poly.double_schubert((1, 3, 2)) == x(1) + x(2) - y1 - y2
    assert poly.double_schubert((2, 3, 1)) == (x(1) - y1) * (x(2) - y1)
    assert poly.double_schubert((3, 1, 2)) == (x(1) - y1) * (x(1) - y2)


def test_double_schubert_specializes_to_single():
    for w in perm.all_perms(3):
        specialized = poly.double_schubert(w).subs_poly(
            {yvar(j): poly.ZERO for j in (1, 2, 3)}
        )
        assert specialized == poly.schubert(w)


def test_grothendieck_2143():
    expected = (ONE - x(1)) * (ONE - mono(x1=1, x2=1, x3=1))
    assert poly.grothendieck((2, 1, 4, 3)) == expected


def test_grothendieck_top():
    assert poly.grothendieck((4, 3, 2, 1)) == poly.grothendieck_top(4)


def test_stability():
    for w in perm.all_perms(4):
        w5 = perm.embed(w, 5)
        assert poly.schubert(w5) == poly.schubert(w)
        assert poly.grothendieck(w5) == poly.grothendieck(w)


def test_one_minus_substitute_examples():
    # the reference expansion of K(1 - t), on polynomial input
    assert ref_one_minus_substitute(ref_of(ONE - x(1)), {"x"}, None) == ref_of(x(1))
    k = (ONE - LaurentPoly.variable(zvar(1, 1))) * (ONE - LaurentPoly.variable(zvar(2, 2)))
    assert ref_one_minus_substitute(ref_of(k), {"z"}, None) == ref_of(
        LaurentPoly.monomial({zvar(1, 1): 1, zvar(2, 2): 1})
    )


def test_one_minus_substitute_g2143():
    g = poly.grothendieck((2, 1, 4, 3))
    sub = one_minus(g)
    inner = (
        x(1) + x(2) + x(3)
        - mono(x1=1, x2=1) - mono(x2=1, x3=1) - mono(x1=1, x3=1)
        + mono(x1=1, x2=1, x3=1)
    )
    assert sub == x(1) * inner
    assert ref_one_minus_substitute(ref_of(g), {"x"}, None) == ref_of(sub)
    assert poly.lowest_degree_terms(sub) == poly.schubert((2, 1, 4, 3))


def test_lowest_degree_of_homogeneous_is_identity():
    f = mono(x1=1, x2=1) + mono(x1=2)
    assert poly.lowest_degree_terms(f) == f
    with pytest.raises(ValueError):
        poly.lowest_degree_terms(poly.ZERO)


def test_grothendieck_lowest_degree_gives_schubert_s4():
    for w in perm.all_perms(4):
        assert poly.lowest_degree_terms(one_minus(poly.grothendieck(w))) == poly.schubert(w)


def test_double_grothendieck_lowest_degree_s3():
    # G_w(x;y) is Laurent in y: the reference expands it as a series
    for w in perm.all_perms(3):
        g = ref_of(poly.double_grothendieck(w))
        sub = ref_one_minus_substitute(g, {"x", "y"}, perm.length(w) + 1)
        assert ref_lowest_degree_terms(sub) == ref_of(poly.double_schubert(w))


def test_family_cache_matches_recomputation():
    w = (3, 1, 4, 2)
    # a reduced word for w0*w: w = w0 s_{i_1} ... s_{i_k}
    word = pipedream.word_of(pipedream.top_pipe_dream(perm.multiply(perm.long_element(4), w)))
    f = poly.schubert_top(4)
    for i in word:
        f = poly.divided_difference(i, f)
    assert poly.schubert(w) == f


def test_poly_str_and_json_roundtrip():
    f = poly.schubert((2, 1, 4, 3))
    assert poly.poly_str(f) == "x1^2 + x1*x2 + x1*x3"
    g = poly.double_grothendieck((2, 1, 3))
    assert poly_from_jsonable(poly.poly_to_jsonable(g)) == g


def test_poly_str_signs():
    f = ONE - x(1) - LaurentPoly.const(2) * mono(x1=1, x2=1)
    assert poly.poly_str(f) == "-2*x1*x2 - x1 + 1"


# -- the packed kernel against the reference kernel (reference_kernel.py) -----------

KERNEL = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])

MAX_INDEX = 12  # shells above 9 and z10_3-style names

indices = st.integers(1, MAX_INDEX)
variables = st.one_of(
    st.builds(xvar, indices),
    st.builds(yvar, indices),
    st.builds(zvar, indices, indices),
    st.just(TVAR),
)


def raw_polys(lo=-3, hi=3, max_terms=5):
    exps = st.dictionaries(variables, st.integers(lo, hi), max_size=4)
    return st.lists(st.tuples(exps, st.integers(-5, 5)), max_size=max_terms)


def build(raw):
    out = poly.ZERO
    for exps, c in raw:
        out = out + LaurentPoly.monomial(exps, c)
    return out


def ref_build(raw):
    out = {}
    for exps, c in raw:
        out = ref_add(out, {ref_canon(exps): c})
    return out


@KERNEL
@given(raw_polys(), raw_polys(), st.integers(0, 3))
def test_ring_operations_match_reference(rf, rg, k):
    f, g = build(rf), build(rg)
    pf, pg = ref_build(rf), ref_build(rg)
    assert ref_of(f) == pf
    assert ref_of(f + g) == ref_add(pf, pg)
    assert ref_of(f - g) == ref_add(pf, pg, -1)
    assert ref_of(-f) == {m: -c for m, c in pf.items()}
    assert ref_of(f * g) == ref_mul(pf, pg)
    assert ref_of(f * 3) == ref_of(3 * f) == {m: 3 * c for m, c in pf.items()}
    assert ref_of(f ** k) == ref_pow(pf, k)
    assert (f == g) == (pf == pg)


@KERNEL
@given(raw_polys(), st.integers(1, MAX_INDEX - 1))
def test_x_operators_match_reference(rf, i):
    f, pf = build(rf), ref_build(rf)
    assert ref_of(swap_x(f, i)) == ref_swap_x(pf, i)
    assert ref_of(poly.divided_difference(i, f)) == ref_divided_difference(i, pf)
    assert ref_of(poly.demazure(i, f)) == ref_demazure(i, pf)


# monomials with every exponent and the degree in -1..1, as _times_binomial needs
unit_exps = st.dictionaries(variables, st.integers(-1, 1), max_size=3).filter(
    lambda exps: abs(sum(exps.values())) <= 1
)


def packed(exps):
    (m,) = LaurentPoly.monomial(exps).terms
    return m


def test_family_tops_match_the_product_loops():
    for n in range(1, 7):
        assert poly.schubert_top(n) == LaurentPoly.monomial({xvar(i): n - i for i in range(1, n)})
        assert poly.double_schubert_top(n) == loop_double_schubert_top(n)
        assert poly.grothendieck_top(n) == loop_grothendieck_top(n)
        assert poly.double_grothendieck_top(n) == loop_double_grothendieck_top(n)


def test_x_monomial_matches_the_counted_monomial():
    for w in perm.all_perms(5):
        for d in pipedream.rp_mitosis(w):
            expected = LaurentPoly.monomial(Counter(xvar(i) for i, _ in d.crosses))
            assert checks.x_monomial(d) == expected


def test_xy_weight_matches_the_product_loop():
    for w in perm.all_perms(4):
        for d in pipedream.rp_mitosis(w):
            assert checks.xy_weight(d) == loop_xy_weight(d)


@KERNEL
@given(
    raw_polys(),
    raw_polys(),
    st.integers(1, MAX_INDEX - 1),
    st.lists(st.tuples(unit_exps, unit_exps), max_size=4),
    raw_polys(lo=0),
)
def test_results_store_no_zero_coefficient(rf, rg, i, raw_pairs, rn):
    f, g, nonneg = build(rf), build(rg), build(rn)
    pairs = [(packed(a), packed(b)) for a, b in raw_pairs]
    results = [
        f + g, f - g, f + (-f), f - f, f * g, (f + g) * (f - g), f * 0, 0 * f, f * 3,
        poly.divided_difference(i, f), poly.demazure(i, f), swap_x(f, i),
        poly.divided_difference(i, f * swap_x(f, i)), poly.demazure(i, f + swap_x(f, i)),
        LaurentPoly.const(0), LaurentPoly.monomial({xvar(i): 1}, 0), LaurentPoly({1: 0, 2: 3}),
        functools.reduce(lambda h, pair: poly._times_binomial(h, *pair), pairs, ONE),
        nonneg.subs_poly({xvar(i): f - g}),
        # x_i -> x_{i+1} makes nonneg and s_i nonneg equal, so every term cancels
        (nonneg - swap_x(nonneg, i)).subs_poly({xvar(i): LaurentPoly.variable(xvar(i + 1))}),
    ]
    for h in results:
        assert 0 not in h.terms.values()
    assert (f - f).terms == (f * 0).terms == LaurentPoly.const(0).terms == {}


@KERNEL
@given(
    raw_polys(),
    st.dictionaries(variables, st.dictionaries(variables, st.integers(-2, 2), max_size=3), max_size=3),
)
def test_subs_monomial_matches_reference(rf, mapping):
    f = build(rf)
    assert ref_of(f.subs_monomial(mapping)) == ref_subs_monomial(ref_build(rf), mapping)


MAPPED = (xvar(1), yvar(3), zvar(2, 1))
unmapped = variables.filter(lambda v: v not in MAPPED)


@KERNEL
@given(
    st.lists(st.dictionaries(st.sampled_from(MAPPED), st.integers(-3, 3)), min_size=1, max_size=3),
    st.lists(st.dictionaries(unmapped, st.integers(-3, 3), max_size=3), min_size=1, max_size=4),
    unit_exps,
    st.dictionaries(
        st.sampled_from(MAPPED[1:]), st.dictionaries(variables, st.integers(-2, 2), max_size=3)
    ),
)
def test_subs_monomial_with_shared_mapped_digits(parts, others, image, mapping):
    # every mapped part under every other part, so many terms share their
    # mapped digits; x1^16400 moves past safe (safe <= (2^15 - 1 - reach) / 1
    # < 16400) and must take the exact route once per term
    mapping = {xvar(1): image, **mapping}
    far = [{xvar(1): 16400, **other} for other in others]
    raw = [({**part, **other}, k + 1) for part in parts for k, other in enumerate(others)]
    raw += [(exps, 1) for exps in far]
    f = build(raw)
    packs = []
    pack = poly._pack
    with mock.patch.object(poly, "_pack", lambda exps: packs.append(exps) or pack(exps)):
        got = f.subs_monomial(mapping)
    assert ref_of(got) == ref_subs_monomial(ref_build(raw), mapping)
    far_terms = {m for m in f.terms if dict(poly.exponents(m)).get(xvar(1)) == 16400}
    assert len(packs) == len(mapping) + len(far_terms)


def test_subs_monomial_keeps_no_exact_route():
    # two terms with the mapped part x1^16400: the first fits after the
    # substitution, the second reaches x2^32768, which the exact route catches
    fits = LaurentPoly.monomial({xvar(1): 16400, xvar(2): 16000, yvar(5): -1000})
    over = LaurentPoly.monomial({xvar(1): 16400, xvar(2): 16368, yvar(5): -1000})
    mapping = {xvar(1): {xvar(2): 1}}
    assert fits.subs_monomial(mapping) == LaurentPoly.monomial({xvar(2): 32400, yvar(5): -1000})
    with pytest.raises(OverflowError):
        (fits + over).subs_monomial(mapping)


@KERNEL
@given(raw_polys(), unit_exps, st.one_of(st.none(), unit_exps))
def test_times_binomial_matches_the_product(rf, a, b):
    f = build(rf)
    got = poly._times_binomial(f, packed(a), None if b is None else packed(b))
    factor = {ref_canon(a): 1} if b is None else ref_add({ref_canon(a): 1}, {ref_canon(b): 1}, -1)
    assert ref_of(got) == ref_mul(ref_build(rf), factor)
    assert 0 not in got.terms.values()
    assert got._reach == poly._reach(f) + 1


@KERNEL
@given(raw_polys(), raw_polys(), unit_exps)
def test_koszul_matches_the_product_and_sum(rp, rq, wt):
    p, q = build(rp), build(rq)
    got = poly._koszul(p, q, packed(wt))
    weight = {ref_canon(wt): 1}
    one_minus = ref_add({(): 1}, weight, -1)
    assert ref_of(got) == ref_add(ref_mul(one_minus, ref_build(rp)), ref_mul(weight, ref_build(rq)))
    assert 0 not in got.terms.values()
    assert got._reach == max(poly._reach(p), poly._reach(q)) + 1


def test_pivot_kernels_overflow_at_the_field_limit():
    top = 2**15 - 1
    big = LaurentPoly.monomial({xvar(1): top})
    x1, x2, y2 = (poly.unit(v) for v in (xvar(1), xvar(2), yvar(2)))
    for step in (
        lambda: poly._times_binomial(big, x1),  # the exponent of x1
        lambda: poly._times_binomial(big, 0, x2),  # the total degree
        lambda: poly._koszul(big, ONE, x1),  # (1 - x1) * big
        lambda: poly._koszul(ONE, big, x2),  # x2 * big
    ):
        with pytest.raises(OverflowError):
            step()
    # at reach 2^15 the bound is made exact, not refused: x2/y2 keeps the degree
    shifted = poly._times_binomial(big, 0, x2 - y2)
    assert shifted == big - LaurentPoly.monomial({xvar(1): top, xvar(2): 1, yvar(2): -1})
    assert shifted._reach == poly._koszul(big, big, x2 - y2)._reach == top


@KERNEL
@given(raw_polys(lo=0), st.dictionaries(variables, raw_polys(max_terms=3), max_size=3))
def test_subs_poly_matches_reference(rf, raw_mapping):
    f = build(rf)
    mapping = {v: build(r) for v, r in raw_mapping.items()}
    ref_mapping = {v: ref_build(r) for v, r in raw_mapping.items()}
    assert ref_of(f.subs_poly(mapping)) == ref_subs_poly(ref_build(rf), ref_mapping)


blocks = st.sets(st.sampled_from("xyzt"), min_size=1)


@KERNEL
@given(raw_polys(lo=0), blocks)
def test_one_minus_substitute_matches_reference(rf, bl):
    # the oracle's expansion against subs_poly
    expected = ref_one_minus_substitute(ref_build(rf), bl, None)
    assert ref_of(one_minus(build(rf), bl)) == expected


@KERNEL
@given(raw_polys(lo=0), blocks, st.integers(0, 6))
def test_truncated_one_minus_substitute_matches_reference(rf, bl, bound):
    # truncating the oracle's expansion keeps exactly the terms up to the bound
    full = ref_of(one_minus(build(rf), bl))
    expected = {m: c for m, c in full.items() if ref_degree(m) <= bound}
    assert ref_one_minus_substitute(ref_build(rf), bl, bound) == expected


@KERNEL
@given(raw_polys())
def test_queries_match_reference(rf):
    f, pf = build(rf), ref_build(rf)
    assert f.variables() == {v for m in pf for v, _ in m}
    if pf:
        low = min(map(ref_degree, pf))
        assert f.min_total_degree() == low
        assert ref_of(poly.lowest_degree_terms(f)) == ref_lowest_degree_terms(pf)


@KERNEL
@given(raw_polys())
def test_json_roundtrip(rf):
    f = build(rf)
    assert poly_from_jsonable(poly.poly_to_jsonable(f)) == f
    assert poly_from_jsonable(json.loads(poly.poly_to_json(f))) == f


def test_exponents_decode_every_block():
    f = LaurentPoly.monomial({zvar(10, 3): 2, zvar(3, 10): -1, yvar(12): -3, xvar(1): 1, TVAR: 4})
    (m,) = f.terms
    assert poly.exponents(m) == (
        (TVAR, 4), (xvar(1), 1), (yvar(12), -3), (zvar(3, 10), -1), (zvar(10, 3), 2)
    )
    assert poly.poly_str(f) == "x1*y12^-3*z3_10^-1*z10_3^2*t^4"


def test_not_a_variable():
    for v in [("x", 0), ("y", -1), ("z", 1), ("w", 1), ("z", 0, 2)]:
        with pytest.raises(ValueError):
            LaurentPoly.variable(v)


def test_equality_across_n():
    # the variable index does not depend on n: families of w and of w
    # embedded in a larger symmetric group are equal term by term
    for w in perm.all_perms(3):
        w5 = perm.embed(w, 5)
        for family in (poly.schubert, poly.grothendieck, poly.double_schubert, poly.double_grothendieck):
            assert family(w5) == family(w)
            assert family(w5).terms == family(w).terms
    k3 = hilbert.k_polynomial(ideal.antidiagonal_ideal((1, 3, 2)), "zn2")
    k4 = hilbert.k_polynomial(ideal.antidiagonal_ideal((1, 3, 2, 4)), "zn2")
    assert k3 == k4


def test_overflow_at_the_field_limit():
    top = 2**15 - 1
    big = LaurentPoly.monomial({xvar(1): top})
    assert poly.exponents(next(iter(big.terms))) == ((xvar(1), top),)
    assert x(1) ** top == big
    for exps in ({xvar(1): top + 1}, {yvar(2): -top - 1}, {xvar(1): 20000, xvar(2): 20000}):
        with pytest.raises(OverflowError):
            LaurentPoly.monomial(exps)
    with pytest.raises(OverflowError):
        big * x(1)  # the exponent of x1
    with pytest.raises(OverflowError):
        big * x(2)  # the total degree
    with pytest.raises(OverflowError):
        x(1) ** (top + 1)
    assert ref_of(big * LaurentPoly.monomial({yvar(1): -1})) == {((xvar(1), top), (yvar(1), -1)): 1}
    low = LaurentPoly.monomial({xvar(1): 1, yvar(1): -top, yvar(2): -1})
    with pytest.raises(OverflowError):
        poly.divided_difference(1, low)  # the degree drops to -2^15
    with pytest.raises(OverflowError):
        poly.demazure(1, LaurentPoly.monomial({xvar(2): top}))  # x2 * f, as the two-step route
    assert len(poly.demazure(1, LaurentPoly.monomial({xvar(2): top - 1})).terms) == top
    with pytest.raises(OverflowError):
        LaurentPoly.monomial({xvar(1): 2**13}).subs_monomial({xvar(1): {xvar(2): 4}})
    with pytest.raises(OverflowError):
        poly_from_jsonable([{"coeff": 1, "exps": {"x1": 2**15}}])


def test_subs_poly_error_paths():
    y1 = LaurentPoly.monomial({yvar(1): -1})
    with pytest.raises(ValueError, match="negative exponent"):
        y1.subs_poly({yvar(1): x(1)})
    assert y1.subs_poly({xvar(1): x(2)}) == y1  # an unmapped y1^-1 is kept
    x1x2 = {xvar(1): x(1) * x(2)}
    below = LaurentPoly.monomial({xvar(1): 2**14 - 1}).subs_poly(x1x2)
    assert below == LaurentPoly.monomial({xvar(1): 2**14 - 1, xvar(2): 2**14 - 1})
    with pytest.raises(OverflowError):
        LaurentPoly.monomial({xvar(1): 2**14}).subs_poly(x1x2)  # degree 2^15


def test_double_families_have_a_size_guard(monkeypatch):
    computed = []
    for name in ("_double_schubert", "_double_grothendieck"):
        monkeypatch.setattr(poly, name, computed.append)
    w7 = (2, 1, 4, 3, 6, 5, 7)
    poly.double_schubert(w7)
    poly.double_grothendieck(w7)
    assert computed == [w7, w7]  # n = 7 still reaches the expansion
    for family in (poly.double_schubert, poly.double_grothendieck):
        with pytest.raises(SizeGuardError):
            family(perm.embed(w7, 8))
    assert computed == [w7, w7]
