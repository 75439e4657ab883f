import itertools

import pytest

from schubert import bruhatlab, checks, ideal, perm, poly
from schubert.bruhatlab import ExponentArray
from schubert.poly import xvar


W8 = (1, 3, 8, 6, 5, 7, 4, 2)


def fig_mu_array():
    return ExponentArray.from_rows(checks.FIG_MU_START)


def all_arrays(n, max_entry):
    cells = n * n
    for values in itertools.product(range(max_entry + 1), repeat=cells):
        yield ExponentArray.from_rows(
            [values[r * n : (r + 1) * n] for r in range(n)]
        )


def standard_arrays(n, w, max_entry):
    return [b for b in all_arrays(n, max_entry) if bruhatlab.standard_test(b, w)]


def test_standard_test_examples():
    zero = ExponentArray.zero(4)
    for w in perm.all_perms(3):
        assert bruhatlab.standard_test(ExponentArray.zero(3), w)
    w = (2, 1, 4, 3)
    bad = ExponentArray.from_support(4, [(1, 3), (2, 2), (3, 1)])
    assert not bruhatlab.standard_test(bad, w)
    assert bruhatlab.standard_test(zero, w)
    # facet supports are standard
    for facet in ideal.stanley_reisner_facets(ideal.antidiagonal_ideal(w)):
        assert bruhatlab.standard_test(ExponentArray.from_support(4, facet), w)


def test_mutate_moves_single_coin():
    b = ExponentArray.from_support(3, [(2, 2)])
    out = bruhatlab.mutate(1, b)
    assert out.get(1, 2) == 1 and out.get(2, 2) == 0
    with pytest.raises(ValueError):
        bruhatlab.mutate(1, out)  # row 2 is now empty


def test_mutation_chain_reproduces_figure():
    b = fig_mu_array()
    chain = [b]
    for _ in range(6):
        chain.append(bruhatlab.mutate(3, chain[-1]))
    for arr, genes in zip(chain, checks.FIG_MU_GENES):
        assert (arr.rows[2], arr.rows[3]) == genes


def test_start_codon_figure():
    assert bruhatlab.start_codon(3, W8, fig_mu_array()) == 5


def test_start_codon_of_zero_array_for_w0():
    w0 = perm.long_element(4)
    b = ExponentArray.zero(4)
    # J_w0 is generated by the strict-staircase variables, so the first
    # column with (i, p) outside it is p = n - i + 1
    for i in range(1, 4):
        assert bruhatlab.start_codon(i, w0, b) == 4 - i + 1


def test_start_codon_of_nonstandard_is_zero():
    b = ExponentArray.from_support(4, [(1, 3), (2, 2), (3, 1)])
    assert bruhatlab.start_codon(3, (2, 1, 4, 3), b) == 0


def test_promoter_figure():
    assert bruhatlab.promoter_size(3, W8, fig_mu_array()) == 6


def test_promoter_zero_when_row_below_empty_west_of_start():
    b = ExponentArray.from_support(3, [(1, 1)])
    w = (1, 3, 2)  # J_w = <z12 z21>, so z^b is standard
    start = bruhatlab.start_codon(1, w, b)
    assert start == 1
    assert bruhatlab.promoter_size(1, w, b) == 0


def test_lifted_demazure_figure():
    chain = bruhatlab.lifted_demazure(3, W8, fig_mu_array())
    assert len(chain) == 7
    ws = perm.apply_right_transposition(W8, 3)
    for d, arr in enumerate(chain):
        assert bruhatlab.standard_test(arr, ws)
        if d > 0:
            assert not bruhatlab.standard_test(arr, W8)


def test_lifted_demazure_trivial_when_promoter_empty():
    w = (2, 1, 3)
    b = ExponentArray.zero(3)
    assert bruhatlab.promoter_size(1, w, b) == 0
    assert bruhatlab.lifted_demazure(1, w, b) == [b]


def test_lifted_demazure_preconditions():
    with pytest.raises(ValueError):
        bruhatlab.lifted_demazure(1, (1, 2, 3), ExponentArray.zero(3))


def test_lemma_outside_small():
    # intermediate mutations leave J_{w s_i} but stay inside J_w
    n = 3
    for w in perm.all_perms(n):
        for i in perm.descents(w):
            ws = perm.apply_right_transposition(w, i)
            for b in standard_arrays(n, w, 1):
                chain = bruhatlab.lifted_demazure(i, w, b)
                for arr in chain[1:]:
                    assert not bruhatlab.standard_test(arr, w)
                    assert bruhatlab.standard_test(arr, ws)


def test_lemma_unique_small():
    # distinct standard arrays have disjoint mutation fans
    n = 3
    for w in perm.all_perms(n):
        for i in perm.descents(w):
            seen = {}
            for b in standard_arrays(n, w, 1):
                for d, arr in enumerate(bruhatlab.lifted_demazure(i, w, b)):
                    if d == 0:
                        continue
                    assert arr not in seen
                    seen[arr] = b


def test_gene_dissection_figure():
    ok, detail = checks.figure_intron()
    assert ok, detail


def test_intron_mutation_fixed_point():
    # all introns row-balanced: a single column with equal entries
    w = (1, 3, 2)
    b = ExponentArray.from_support(3, [(2, 3), (3, 3)])
    assert bruhatlab.intron_mutation(2, w, b) == b


def test_intron_mutation_involution_exhaustive():
    ok, detail = checks.tau_involution(3, 2)
    assert ok, detail


def test_intron_mutation_x_weight_property():
    # writing the x-degree of z^b as x_{i+1}^l x^a with l = |prom|, the
    # x-degree of tau(b) is x_{i+1}^l s_i(x^a)
    n = 3
    for w in perm.all_perms(n):
        for i in perm.descents(w):
            for b in standard_arrays(n, w, 2):
                l = bruhatlab.promoter_size(i, w, b)
                tb = bruhatlab.intron_mutation(i, w, b)

                def xdeg(arr):
                    return poly.LaurentPoly.monomial(
                        {
                            xvar(r): sum(arr.rows[r - 1])
                            for r in range(1, n + 1)
                            if sum(arr.rows[r - 1])
                        }
                    )

                lhs = xdeg(tb)
                xa = xdeg(b) * poly.LaurentPoly.monomial({xvar(i + 1): -l})
                rhs = xa.swap_x(i) * poly.LaurentPoly.monomial({xvar(i + 1): l})
                assert lhs == rhs


def test_truncated_demazure_identity_on_generating_functions():
    # dem_i applied to the degree-truncated standard-monomial generating
    # function of J_w matches J_{w s_i} through one degree less
    n, dmax = 3, 4
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]

    def arrays_up_to(limit):
        for total in range(limit + 1):
            for combo in itertools.combinations_with_replacement(cells, total):
                rows = [[0] * n for _ in range(n)]
                for (i, j) in combo:
                    rows[i - 1][j - 1] += 1
                yield ExponentArray.from_rows(rows)

    universe = list(arrays_up_to(dmax))

    def truncated_series(w):
        total = poly.ZERO
        for b in universe:
            if bruhatlab.standard_test(b, w):
                total = total + poly.LaurentPoly.monomial(
                    {xvar(r): sum(b.rows[r - 1]) for r in range(1, n + 1)}
                )
        return total

    def truncate(f, limit):
        return poly.LaurentPoly(
            {m: c for m, c in f.terms.items() if sum(e for _, e in poly.exponents(m)) <= limit}
        )

    for w in perm.all_perms(n):
        for i in perm.descents(w):
            ws = perm.apply_right_transposition(w, i)
            lhs = truncate(poly.demazure(i, truncated_series(w)), dmax - 1)
            rhs = truncate(truncated_series(ws), dmax - 1)
            assert lhs == rhs


def test_thm_ev_truncated():
    ok, detail = checks.thm_ev_truncated(3, 4)
    assert ok, detail


def test_mitosis_facet_bridge_s4():
    ok, detail = checks.bridge_s4()
    assert ok, detail


def test_mitosis_facet_bridge_w0():
    # single facet, single offspring chain
    w0 = perm.long_element(3)
    for i in (1, 2):
        assert bruhatlab.mitosis_facet_bridge(w0, i)


def test_mitosis_correspondence_figure():
    ok, detail = checks.mitosis_correspondence_13865742()
    assert ok, detail


def test_exponent_array_validation():
    with pytest.raises(ValueError):
        ExponentArray.from_rows([[0, 1], [2]])
    with pytest.raises(ValueError):
        ExponentArray.from_rows([[0, -1], [0, 0]])
