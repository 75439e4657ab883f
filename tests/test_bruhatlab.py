import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference_kernel import ref_dissect_gene, swap_x
from schubert import bruhatlab, checks, ideal, perm, poly
from schubert.bruhatlab import ExponentArray
from schubert.limits import SizeGuardError
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
    assert out.rows[0][1] == 1 and out.rows[1][1] == 0
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
            for b in bruhatlab.standard_arrays(w, 1):
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
            for b in bruhatlab.standard_arrays(w, 1):
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


def test_intron_mutation_x_weight_property():
    # writing the x-degree of z^b as x_{i+1}^l x^a with l = |prom|, the
    # x-degree of tau(b) is x_{i+1}^l s_i(x^a)
    n = 3
    for w in perm.all_perms(n):
        for i in perm.descents(w):
            for b in bruhatlab.standard_arrays(w, 2):
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
                rhs = swap_x(xa, i) * poly.LaurentPoly.monomial({xvar(i + 1): l})
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
    for n in (3, 4):
        ok, detail = checks.thm_ev_truncated(n, 4)
        assert ok, detail


def test_tau_involution_s4_sample(monkeypatch):
    # the four properties of tau on a seeded draw of 3 of the 4 w of S4 of
    # length >= 5, at entries 0..1: 0.05-0.16 s each on a 2-core host, where
    # length 3 costs 0.45-1.3 s and 1234 about 4 s (all of S4 is --runslow)
    pool = [w for w in perm.all_perms(4) if perm.length(w) >= 5]
    sample = random.Random(4).sample(pool, 3)
    monkeypatch.setattr(checks.perm, "all_perms", lambda n: sample)
    ok, detail = checks.tau_involution(4, 1)
    assert ok, detail
    assert sample == [(4, 2, 3, 1), (4, 3, 2, 1), (3, 4, 2, 1)]
    assert detail == f"{6144 + 3072 + 6144} (w, i, b) triples"


@pytest.mark.slow
def test_tau_involution_s4():
    assert checks.tau_involution(4, 1) == (True, "1305600 (w, i, b) triples")


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


def test_support_reads_the_mask():
    b = ExponentArray.from_rows([[0, 2, 0], [1, 0, 0], [0, 0, 3]])
    assert b.support() == frozenset({(1, 2), (2, 1), (3, 3)})
    assert b._mask == 1 << 1 | 1 << 3 | 1 << 8


# -- standard arrays from the faces of the complex ---------------------------------


def test_standard_arrays_match_the_filter():
    # the filter: every array with entries 0..max_entry, kept when no
    # generator of J_w divides it
    counts = {}
    for n in (2, 3):
        for max_entry in (1, 2):
            universe = [(b, b.support()) for b in all_arrays(n, max_entry)]
            for w in perm.all_perms(n):
                jw = ideal.antidiagonal_ideal(w)
                arrays = list(bruhatlab.standard_arrays(w, max_entry))
                assert len(arrays) == len(set(arrays))
                assert set(arrays) == {
                    b for b, support in universe if not ideal.monomial_in_ideal(support, jw)
                }
                counts[w, max_entry] = len(arrays)
    s3 = [counts[w, 2] for w in perm.all_perms(3)]
    assert sum(s3) == 42282
    assert max(s3) == 3**9  # the identity: J_w = 0, every array is standard


def test_standard_arrays_check_their_input_at_the_call():
    # the iterator is lazy, but a bad w or a grid past the cap fails at once
    with pytest.raises(ValueError, match="not a permutation"):
        bruhatlab.standard_arrays((1, 1, 2), 1)
    with pytest.raises(SizeGuardError):
        bruhatlab.standard_arrays(perm.identity(5), 1)


# -- the gene-only kernel against the dissection ------------------------------------
#
# The reference locates the introns box by box with ref_dissect_gene and
# moves one unit at a time, as the paper describes intron mutation.


def assert_blocks_match_reference(top, bottom):
    for start in range(1, len(top) + 1):
        assert checks.gene_blocks(top, bottom, start) == ref_dissect_gene(top, bottom, start)


def test_scan_dissection_matches_reference_small():
    # every gene of a 2 x 2 or 3 x 3 array with entries 0..2, at every start
    # column: the dissection reads rows i and i+1 only
    for n in (2, 3):
        rows = list(itertools.product(range(3), repeat=n))
        for top, bottom in itertools.product(rows, repeat=2):
            assert_blocks_match_reference(top, bottom)


def test_scan_dissection_matches_reference_random():
    # seeded genes up to 8 columns wide, sparse and dense
    rng = random.Random(18)
    for _ in range(5000):
        n = rng.randint(2, 8)
        zeros = rng.random()
        top, bottom = (
            [0 if rng.random() < zeros else rng.randint(1, 3) for _ in range(n)] for _ in range(2)
        )
        assert_blocks_match_reference(top, bottom)


def reference_mutate_intron(top, bottom):
    c_top, c_bot = sum(top), sum(bottom)
    if c_top > c_bot:
        top, bottom = list(reversed(bottom)), list(reversed(top))
    for _ in range(abs(c_top - c_bot)):
        p = next(j for j, e in enumerate(bottom) if e)
        bottom[p] -= 1
        top[p] += 1
    if c_top > c_bot:
        top, bottom = list(reversed(bottom)), list(reversed(top))
    return top, bottom


def reference_intron_mutation_at(i, start, b):
    # the rows of the mutated array
    introns, _ = ref_dissect_gene(b.rows[i - 1], b.rows[i], start)
    rows = [list(r) for r in b.rows]
    rows[i - 1][start - 1] += 1
    rows[i][b.n - 1] += 1
    for (lo, hi) in introns:
        top, bottom = reference_mutate_intron(rows[i - 1][lo - 1 : hi], rows[i][lo - 1 : hi])
        rows[i - 1][lo - 1 : hi] = top
        rows[i][lo - 1 : hi] = bottom
    rows[i - 1][start - 1] -= 1
    rows[i][b.n - 1] -= 1
    return tuple(tuple(r) for r in rows)


def reference_start_codon(i, w, b):
    jw = ideal.antidiagonal_ideal(w)
    support = b.support()
    if ideal.monomial_in_ideal(support, jw):
        return 0
    return next(
        p for p in range(1, b.n + 1) if not ideal.monomial_in_ideal(support | {(i, p)}, jw)
    )


def assert_mutation_matches_reference(b):
    for i in range(1, b.n):
        for start in range(1, b.n + 1):
            out = bruhatlab.intron_mutation_at(i, start, b)
            assert out.rows == reference_intron_mutation_at(i, start, b)
            # the rows outside the gene are shared, not copied
            assert all(out.rows[r] is b.rows[r] for r in range(b.n) if r not in (i - 1, i))


def test_intron_mutation_matches_reference_s3():
    # intron_mutation_at does not read w, and the standard arrays of S3 with
    # entries 0..2 together are every 3 x 3 array (those of w = 123); the
    # reference reads and rewrites rows i and i+1 only, so it runs once per
    # gene
    arrays = set().union(*(bruhatlab.standard_arrays(w, 2) for w in perm.all_perms(3)))
    assert len(arrays) == 3**9
    genes = {}
    for b in arrays:
        for i in (1, 2):
            for start in (1, 2, 3):
                gene = (i, start, b.rows[i - 1], b.rows[i])
                if gene not in genes:
                    genes[gene] = reference_intron_mutation_at(i, start, b)[i - 1 : i + 1]
                expected = b.rows[: i - 1] + genes[gene] + b.rows[i + 1 :]
                assert bruhatlab.intron_mutation_at(i, start, b).rows == expected


KERNEL = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def perm_and_array(draw):
    w = draw(st.sampled_from(list(perm.all_perms(4)) + list(perm.all_perms(5))))
    n = len(w)
    entries = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    if draw(st.booleans()):  # keep only the cells of a facet, so z^b is standard
        facets = ideal.stanley_reisner_facets(ideal.antidiagonal_ideal(w))
        facet = draw(st.sampled_from(sorted(sorted(f) for f in facets)))
        entries = [e if (k // n + 1, k % n + 1) in facet else 0 for k, e in enumerate(entries)]
    return w, ExponentArray.from_rows([entries[r : r + n] for r in range(0, n * n, n)])


@KERNEL
@given(perm_and_array())
def test_bitmask_kernel_matches_reference(drawn):
    w, b = drawn
    assert_mutation_matches_reference(b)
    jw = ideal.antidiagonal_ideal(w)
    standard = not ideal.monomial_in_ideal(b.support(), jw)
    assert bruhatlab.standard_test(b, w) == standard
    for i in range(1, b.n):
        start = bruhatlab.start_codon(i, w, b)
        assert start == reference_start_codon(i, w, b)
        if standard:
            tb = bruhatlab.intron_mutation(i, w, b)
            assert bruhatlab.start_codon(i, w, tb) == start
            assert bruhatlab.intron_mutation(i, w, tb) == b


@pytest.mark.parametrize("bad", [(2.0, 1.0), (True, 2)])
def test_part3_entry_points_validate_w_cold_and_warm(bad):
    # the kernels behind these read memos keyed on the raw w, where (2.0, 1.0)
    # hashes like (2, 1) and (True, 2) like (1, 2); the entry points check w
    zero = ExponentArray.zero(2)
    entries = (
        lambda w: bruhatlab.lifted_demazure(1, w, zero),
        lambda w: bruhatlab.standard_arrays(w, 1),
        lambda w: bruhatlab.mitosis_facet_bridge(w, 1),
    )
    for memo in (bruhatlab._generator_masks, bruhatlab._start_codon, ideal._antidiagonal_ideal):
        memo.cache_clear()
    for _ in ("cold", "warm"):
        for entry in entries:
            with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.2: "):
                entry(bad)
        for w in ((2, 1), (1, 2)):
            assert bruhatlab.standard_test(zero, w)
            assert len(list(bruhatlab.standard_arrays(w, 1))) == 2 ** (4 - perm.length(w))
        assert bruhatlab.lifted_demazure(1, (2, 1), zero) == [zero]
        assert bruhatlab.mitosis_facet_bridge((2, 1), 1)
