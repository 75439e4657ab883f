import random

import pytest

from reference_kernel import (
    coarsen,
    coarsen_multidegree,
    ref_lowest_degree_terms,
    ref_of,
    ref_one_minus_substitute,
)
from schubert import checks, hilbert, ideal, perm, pipedream, poly
from schubert.ideal import SquarefreeMonomialIdeal
from schubert.limits import InvariantError
from schubert.poly import LaurentPoly, ONE, TVAR, xvar, yvar, zvar


def reference_multidegree(k, grading, bound=None):
    """The definition: the lowest-degree part of K(1 - t), expanded by the
    reference kernel (up to total degree bound, which the Laurent K of the
    z2n grading needs)."""
    blocks = {v[0] for v in hilbert.exp_weight(grading, (1, 1))}
    return ref_lowest_degree_terms(ref_one_minus_substitute(ref_of(k), blocks, bound))


def two_by_two_diag_ideal():
    return SquarefreeMonomialIdeal(
        2, frozenset([frozenset([(1, 1)]), frozenset([(2, 2)])])
    )


def test_k_polynomial_subspace_example():
    j = two_by_two_diag_ideal()
    z11, z22 = LaurentPoly.variable(zvar(1, 1)), LaurentPoly.variable(zvar(2, 2))
    assert hilbert.k_polynomial(j, "zn2") == (ONE - z11) * (ONE - z22)
    expected = (ONE - LaurentPoly.monomial({xvar(1): 1, yvar(1): -1})) * (
        ONE - LaurentPoly.monomial({xvar(2): 1, yvar(2): -1})
    )
    assert hilbert.k_polynomial(j, "z2n") == expected


def test_k_polynomial_zero_ideal():
    j = SquarefreeMonomialIdeal(2, frozenset())
    for grading in hilbert.GRADINGS:
        assert hilbert.k_polynomial(j, grading) == ONE


def test_k_polynomial_rejects_float_cells_cold_and_warm():
    # (1.0, 2.0) == (1, 2) with equal hashes, so the K memo and the packed
    # weights would answer for the float cell once the int cell is warm; the
    # ideal type refuses it, so neither memo ever sees it
    def ideal_on(cell):
        return SquarefreeMonomialIdeal(2, frozenset([frozenset([cell])]))

    hilbert._K_CACHE.clear()
    hilbert._packed_weight.cache_clear()
    for _ in ("cold", "warm"):
        with pytest.raises(ValueError, match=r"^not a nonempty set of int cells in 1\.\.2: "):
            hilbert.k_polynomial(ideal_on((1.0, 2.0)))
        assert hilbert.k_polynomial(ideal_on((1, 2))) == ONE - LaurentPoly.variable(zvar(1, 2))
    assert hilbert._packed_weight.cache_info().currsize == 1


def test_k_polynomial_minimalizes_its_input():
    # z11 divides z11*z22, so the ideal is <z11>
    j = SquarefreeMonomialIdeal(
        2, frozenset([frozenset([(1, 1)]), frozenset([(1, 1), (2, 2)])])
    )
    z11 = LaurentPoly.variable(zvar(1, 1))
    assert hilbert.k_polynomial(j, "zn2") == ONE - z11


def test_k_polynomial_evaluates_to_euler_characteristic():
    for w in perm.all_perms(3):
        k = hilbert.k_polynomial(ideal.antidiagonal_ideal(w), "zn")
        assert sum(k.terms.values()) == (1 if perm.length(w) == 0 else 0)


def test_coarsen_chain():
    j = two_by_two_diag_ideal()
    fine = hilbert.k_polynomial(j, "zn2")
    for target in hilbert.GRADINGS:
        assert coarsen(fine, target) == hilbert.k_polynomial(j, target)
    with pytest.raises(ValueError):
        coarsen(fine, "zn3")
    with pytest.raises(ValueError):
        coarsen_multidegree(hilbert.multidegree_of_ideal(j, "zn2"), "zn3")
    for direct in (hilbert.k_polynomial, hilbert.multidegree_of_ideal):
        with pytest.raises(ValueError):
            direct(SquarefreeMonomialIdeal(2, frozenset()), "zn3")


def assert_direct_matches_coarsened(w, gradings):
    # the recursion run in each grading against the zn2 one, substituted
    gens = ideal.antidiagonal_ideal(w).generators
    codim, c_fine, k_fine = hilbert._k_of_gens(gens, "zn2")
    for grading in gradings:
        direct = hilbert._k_of_gens(gens, grading)
        coarsened = (codim, coarsen_multidegree(c_fine, grading), coarsen(k_fine, grading))
        assert direct == coarsened, (w, grading)


def test_coarsen_agrees_with_direct_computation_s4():
    for w in perm.all_perms(4):
        assert_direct_matches_coarsened(w, hilbert.GRADINGS)


def test_coarsen_agrees_with_direct_computation_s5():
    for w in perm.all_perms(5):
        assert_direct_matches_coarsened(w, ("zn", "z2n"))


def test_multidegree_subspace_example():
    j = two_by_two_diag_ideal()
    fine = hilbert.multidegree_of_ideal(j, "zn2")
    assert fine == LaurentPoly.monomial({zvar(1, 1): 1, zvar(2, 2): 1})
    x1, x2 = LaurentPoly.variable(xvar(1)), LaurentPoly.variable(xvar(2))
    y1, y2 = LaurentPoly.variable(yvar(1)), LaurentPoly.variable(yvar(2))
    assert hilbert.multidegree_of_ideal(j, "z2n") == (x1 - y1) * (x2 - y2)


def test_multidegree_truncated_series_route():
    # the z2n K-polynomial is Laurent in y; its codim-truncated expansion
    # gives the multidegree the recursion coarsens to
    j = two_by_two_diag_ideal()
    k = hilbert.k_polynomial(j, "z2n")
    direct = reference_multidegree(k, "z2n", bound=2)
    assert direct == ref_of(hilbert.multidegree_of_ideal(j, "z2n"))


def test_truncated_and_polynomial_routes_agree_on_jw():
    for w in perm.all_perms(3):
        jw = ideal.antidiagonal_ideal(w)
        k = hilbert.k_polynomial(jw, "z2n")
        truncated = reference_multidegree(k, "z2n", bound=perm.length(w))
        assert truncated == ref_of(hilbert.multidegree_of_ideal(jw, "z2n"))


def test_coarsened_multidegree_matches_direct_route_s4():
    # the definition, grading by grading: K in that grading, K(1 - t)
    # expanded by the reference kernel (truncated at l(w) in z2n, where K is
    # Laurent), its lowest-degree part against the coarsened recursion
    for w in perm.all_perms(4):
        jw = ideal.antidiagonal_ideal(w)
        for grading in hilbert.GRADINGS:
            bound = perm.length(w) if grading == "z2n" else None
            direct = reference_multidegree(hilbert.k_polynomial(jw, grading), grading, bound)
            assert direct == ref_of(hilbert.multidegree_of_ideal(jw, grading))


def test_multidegree_of_j2143():
    jw = ideal.antidiagonal_ideal((2, 1, 4, 3))
    assert hilbert.multidegree_of_ideal(jw, "zn") == poly.schubert((2, 1, 4, 3))


def test_multidegree_of_zero_ideal_is_one():
    j = SquarefreeMonomialIdeal(2, frozenset())
    assert hilbert.multidegree_of_ideal(j, "zn") == ONE


def test_multidegree_of_mixed_ideal_keeps_top_components():
    # <z11 z12, z11 z13> = <z11> cap <z12, z13>: J_w and its pivot ideals
    # are unmixed, so only here does a branch of higher codim get dropped
    j = SquarefreeMonomialIdeal(
        3, frozenset([frozenset([(1, 1), (1, 2)]), frozenset([(1, 1), (1, 3)])])
    )
    z11, z12, z13 = (LaurentPoly.variable(zvar(1, j)) for j in (1, 2, 3))
    assert hilbert.multidegree_of_ideal(j, "zn2") == z11
    assert hilbert.k_polynomial(j, "zn2") == ONE - z11 * z12 - z11 * z13 + z11 * z12 * z13


def test_random_ideals_match_the_definition():
    # squarefree ideals in a 3 x 3 grid, mixed ones among them, against the
    # lowest-degree part of K(1 - t) in every grading (truncated at the
    # codim in z2n, where K is Laurent)
    rng = random.Random(11)
    cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    for _ in range(40):
        gens = frozenset(
            frozenset(rng.sample(cells, rng.randint(1, 3))) for _ in range(rng.randint(1, 4))
        )
        j = SquarefreeMonomialIdeal(3, gens)
        for grading in hilbert.GRADINGS:
            k = hilbert.k_polynomial(j, grading)
            codim = hilbert._k_of_gens(ideal.minimalize(gens), grading)[0]
            direct = reference_multidegree(k, grading, codim if grading == "z2n" else None)
            assert direct == ref_of(hilbert.multidegree_of_ideal(j, grading)), (gens, grading)
            assert {sum(e for _, e in m) for m in direct} == {codim}


def test_multidegree_additive_2143():
    facets = ideal.stanley_reisner_facets(ideal.antidiagonal_ideal((2, 1, 4, 3)))
    complements = (ideal.grid(4) - f for f in facets)
    assert hilbert.multidegree_additive(complements, "zn") == poly.schubert((2, 1, 4, 3))


def test_multidegree_additive_over_rp_is_bjs_s4():
    # the sum over the crosses of RP(w) is the BJS formula, single and double
    for w in perm.all_perms(4):
        crosses = [d.crosses for d in pipedream.rp_mitosis(w)]
        assert hilbert.multidegree_additive(crosses, "zn") == poly.schubert(w), w
        assert hilbert.multidegree_additive(crosses, "z2n") == poly.double_schubert(w), w


def test_multidegree_additive_s3_linear_cases():
    # the paper's ex:s3deg up to its 231/312 label transposition
    x1, x2 = LaurentPoly.variable(xvar(1)), LaurentPoly.variable(xvar(2))
    y1, y2 = LaurentPoly.variable(yvar(1)), LaurentPoly.variable(yvar(2))
    cases = {
        (2, 3, 1): (x1 - y1) * (x2 - y1),
        (3, 1, 2): (x1 - y1) * (x1 - y2),
        (3, 2, 1): (x1 - y1) * (x1 - y2) * (x2 - y1),
    }
    for w, expected in cases.items():
        facets = ideal.stanley_reisner_facets(ideal.antidiagonal_ideal(w))
        complements = (ideal.grid(3) - f for f in facets)
        assert hilbert.multidegree_additive(complements, "z2n") == expected
        assert poly.double_schubert(w) == expected


def test_132_multidegree_two_degenerations():
    x1, x2 = LaurentPoly.variable(xvar(1)), LaurentPoly.variable(xvar(2))
    y1, y2 = LaurentPoly.variable(yvar(1)), LaurentPoly.variable(yvar(2))
    target = x1 + x2 - y1 - y2
    assert (x1 - y1) + (x2 - y2) == target
    assert (x1 - y2) + (x2 - y1) == target
    jw = ideal.antidiagonal_ideal((1, 3, 2))
    assert hilbert.multidegree_of_ideal(jw, "z2n") == target


def test_theorem_a_s4():
    for w in perm.all_perms(4):
        assert hilbert.theorem_a_check(w)


def test_theorem_a_w0_koszul():
    w0 = perm.long_element(4)
    k = hilbert.k_polynomial(ideal.antidiagonal_ideal(w0), "zn")
    assert k == poly.grothendieck_top(4)


def test_additive_equals_recursive_multidegree_s4():
    for w in perm.all_perms(4):
        jw = ideal.antidiagonal_ideal(w)
        complements = [ideal.grid(4) - f for f in ideal.stanley_reisner_facets(jw)]
        for grading in ("zn", "z2n"):
            assert hilbert.multidegree_additive(
                complements, grading
            ) == hilbert.multidegree_of_ideal(jw, grading)


def test_positivity_structurally():
    # the additive route writes every multidegree as a +1 combination of
    # products of ordinary weights; expanding in x and -y keeps signs
    for w in perm.all_perms(3):
        jw = ideal.antidiagonal_ideal(w)
        c = hilbert.multidegree_of_ideal(jw, "z2n")
        for mono, coeff in c.terms.items():
            ydeg = sum(e for v, e in poly.exponents(mono) if v[0] == "y")
            assert coeff * (-1) ** ydeg > 0


def test_dd_identity_examples():
    assert hilbert.divided_difference_identity_check((3, 2, 1), 1)
    # 2413 * s_2 = 2143, so d_2 carries the 2413 multidegree to the 2143 one
    assert hilbert.divided_difference_identity_check((2, 4, 1, 3), 2)
    with pytest.raises(ValueError):
        hilbert.divided_difference_identity_check((2, 1, 4, 3), 2)


def test_dd_identity_all_covering_pairs_s4():
    for w in perm.all_perms(4):
        for i in perm.descents(w):
            assert hilbert.divided_difference_identity_check(w, i)


def test_dd_kills_symmetric_schubert():
    # length(w s_i) > length(w) makes S_w symmetric in x_i, x_{i+1}
    for w in perm.all_perms(4):
        for i in range(1, 4):
            if i not in perm.descents(w):
                assert poly.divided_difference(i, poly.schubert(w)).is_zero()


def test_demazure_identity_on_k_polynomials_s4():
    # dem_i(K of J_w) = K of J_{w s_i}: the Hilbert-series Demazure recursion
    for w in perm.all_perms(4):
        for i in perm.descents(w):
            ws = perm.apply_right_transposition(w, i)
            for grading in ("zn", "z2n"):
                lhs = poly.demazure(
                    i, hilbert.k_polynomial(ideal.antidiagonal_ideal(w), grading)
                )
                rhs = hilbert.k_polynomial(ideal.antidiagonal_ideal(ws), grading)
                assert lhs == rhs


def test_exp_weight_table():
    assert hilbert.exp_weight("z", (2, 3)) == {TVAR: 1}
    assert hilbert.exp_weight("zn", (2, 3)) == {xvar(2): 1}
    assert hilbert.exp_weight("z2n", (2, 3)) == {xvar(2): 1, yvar(3): -1}
    assert hilbert.exp_weight("zn2", (2, 3)) == {zvar(2, 3): 1}


def test_truncated_multidegree_equals_exact_zn2():
    # against the definition on all of S4 and S5 up to length 5: the zn2
    # recursion gives the lowest-degree part of K(1 - z), which the expansion
    # truncated at l(w) or l(w) + 2 keeps intact, and J_w has codim l(w)
    ws = list(perm.all_perms(4)) + [w for w in perm.all_perms(5) if perm.length(w) <= 5]
    for w in ws:
        k = hilbert.k_polynomial(ideal.antidiagonal_ideal(w), "zn2")
        exact = reference_multidegree(k, "zn2")
        assert ref_of(hilbert.multidegree_of_ideal(ideal.antidiagonal_ideal(w), "zn2")) == exact
        assert reference_multidegree(k, "zn2", perm.length(w)) == exact
        assert reference_multidegree(k, "zn2", perm.length(w) + 2) == exact
        if perm.length(w):
            # a lowest degree above the bound leaves nothing
            sub = ref_one_minus_substitute(ref_of(k), {"z"}, perm.length(w) - 1)
            assert sub == {}


def test_theorem_a_codim_mismatch_raises(monkeypatch):
    # a J_w whose codim is not l(w) breaks the theory: a raise, not a False
    w = (2, 1, 4, 3)
    gens = ideal.antidiagonal_ideal(w).generators
    true = {grading: hilbert._k_of_gens(gens, grading) for grading in ("zn", "z2n")}
    monkeypatch.setattr(hilbert, "_k_of_gens", lambda gens, grading: (3, *true[grading][1:]))
    with pytest.raises(InvariantError):
        hilbert.theorem_a_check(w)


def test_theorem_a_s6_sample():
    rng = random.Random(6)
    for w in rng.sample(list(perm.all_perms(6)), 30):
        assert hilbert.theorem_a_check(w), w


@pytest.mark.slow
def test_theorem_a_s6():
    ok, detail = checks.theorem_a(6)
    assert ok, detail
