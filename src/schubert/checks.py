"""The verification suite: one function per acceptance criterion, shared by
``schubert check-all`` and the test suite.

Every function returns (passed, detail).  Default sizes are the acceptance
sizes; check-all may shrink them for a quicker sweep.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import bruhatlab, grobner, hilbert, ideal, perm, pipedream, poly, subword
from .bruhatlab import ExponentArray
from .limits import SizeGuardError, size_guard
from .poly import LaurentPoly, ONE, xvar


def x_monomial(d: pipedream.PipeDream) -> LaurentPoly:
    return hilbert.weight_product(d.crosses, "zn")


def xy_weight(d: pipedream.PipeDream) -> LaurentPoly:
    """The product of x_i - y_j over the crosses (i, j) of d."""
    return hilbert.weight_product(d.crosses, "z2n")


# -- criterion 1: the S3 Schubert table ---------------------------------------

S3_TABLE = {
    "321": "x1^2*x2",
    "312": "x1^2",
    "231": "x1*x2",
    "132": "x1 + x2",
    "213": "x1",
    "123": "1",
}


def schubert_table_s3() -> tuple[bool, str]:
    for text, expected in S3_TABLE.items():
        if poly.poly_str(poly.schubert(perm.parse(text))) != expected:
            return False, f"schubert({text}) != {expected}"
    return True, "6 polynomials"


# -- criterion 2: the 2143 fixture ---------------------------------------------


def intro_fixture() -> tuple[bool, str]:
    w = perm.parse("2143")
    s = poly.schubert(w)
    if poly.poly_str(s) != "x1^2 + x1*x2 + x1*x3":
        return False, "schubert(2143)"
    g = poly.grothendieck(w)
    x123 = LaurentPoly.monomial({xvar(1): 1, xvar(2): 1, xvar(3): 1})
    if g != (ONE - LaurentPoly.variable(xvar(1))) * (ONE - x123):
        return False, "grothendieck(2143)"
    one_minus_x = {v: ONE - LaurentPoly.variable(v) for v in g.variables()}
    if poly.lowest_degree_terms(g.subs_poly(one_minus_x)) != s:
        return False, "lowest degree of G(1-x)"
    return True, ""


# -- criterion 3: BJS sums -------------------------------------------------------


def bjs_identity(n: int = 5, double_n: int = 4) -> tuple[bool, str]:
    for w in perm.all_perms(n):
        via_mitosis = pipedream.rp_mitosis(w)
        if via_mitosis != pipedream.rp_bruteforce(w):
            return False, f"RP enumeration mismatch at {w}"
        if sum(map(x_monomial, via_mitosis), poly.ZERO) != poly.schubert(w):
            return False, f"BJS sum mismatch at {w}"
    for w in perm.all_perms(double_n):
        if sum(map(xy_weight, pipedream.rp_mitosis(w)), poly.ZERO) != poly.double_schubert(w):
            return False, f"double BJS mismatch at {w}"
    return True, f"S{n} single, S{double_n} double"


# -- criterion 4: Groebner bases --------------------------------------------------


def theorem_b(n: int = 4) -> tuple[bool, str]:
    orders = [grobner.antidiag_revlex_nw(n), grobner.antidiag_lex_ne(n)]
    for w in perm.all_perms(n):
        for order in orders:
            if not grobner.verify_theorem_b(w, order):
                return False, f"{w} under {order.name}"
    # negative control: the diagonal order does not see a Groebner basis
    gens = [
        grobner.minor_polynomial(m, 4)
        for m in ideal.schubert_generators(perm.parse("2143"))
    ]
    if grobner.is_groebner_basis(gens, grobner.diag_lex(4)):
        return False, "diagonal order accepted 2143 minors"
    return True, f"S{n}, both antidiagonal orders, diagonal control"


def theorem_b_slow() -> tuple[bool, str]:
    orders = (grobner.antidiag_revlex_nw(6), grobner.antidiag_lex_ne(6))
    for w in perm.all_perms(6):
        for order in orders:
            if not grobner.verify_theorem_b(w, order, max_n=6):
                return False, f"{w} under {order.name}"
    big = perm.parse("13865742")
    minors = ideal.schubert_generators(big)
    if len(minors) != 165:
        return False, f"expected 165 minors, got {len(minors)}"
    for order in (grobner.antidiag_revlex_nw(8), grobner.antidiag_lex_ne(8)):
        if not grobner.verify_theorem_b(big, order, max_n=8):
            return False, f"13865742 under {order.name}"
    return True, "S6 + the 165-minor instance"


# -- criterion 5: prime decomposition and purity -----------------------------------


def prime_decomposition(n: int = 5) -> tuple[bool, str]:
    for w in perm.all_perms(n):
        # the facets, once per w, as their complements D_L = [n]^2 - L
        dreams = ideal.facet_complement_dreams(w)
        # pure: every facet has n^2 - l(w) cells, so every D_L has l(w) crosses;
        # tested first, as RP(w) holds only dreams of l(w) crosses
        size = perm.length(w)
        if any(len(d.crosses) != size for d in dreams):
            return False, f"purity fails at {w}"
        if dreams != pipedream.rp_bruteforce(w):
            return False, f"facet complements != RP at {w}"
    ok, detail = pentagon_structure_1432()
    if not ok:
        return False, detail
    return True, f"S{n} + the 1432 pentagon"


def pentagon_structure_1432() -> tuple[bool, str]:
    w = perm.parse("1432")
    facets = ideal.stanley_reisner_facets(ideal.antidiagonal_ideal(w))
    if len(facets) != 5 or any(len(f) != 13 for f in facets):
        return False, "1432 facet shape"
    cone = frozenset.intersection(*facets)
    loose = sorted(frozenset.union(*facets) - cone)
    if len(cone) != 11 or len(loose) != 5:
        return False, "1432 cone split"
    # each facet is the cone plus the two ends of one skeleton edge
    edges = {f - cone for f in facets}
    if len(edges) != 5:
        return False, "1432 skeleton edge count"
    degree = Counter(v for e in edges for v in e)
    if any(degree[v] != 2 for v in loose):
        return False, "1432 skeleton degrees"
    # 5 edges, all degrees 2: a 5-cycle iff connected
    reach = {loose[0]}
    for _ in loose:
        reach |= {v for e in edges if e & reach for v in e}
    if reach != set(loose):
        return False, "1432 skeleton disconnected"
    return True, ""


# -- criterion 6: Theorem A -----------------------------------------------------


def theorem_a(n: int = 4) -> tuple[bool, str]:
    for w in perm.all_perms(n):
        if not hilbert.theorem_a_check(w):
            return False, f"theorem A fails at {w}"
        jw = ideal.antidiagonal_ideal(w)
        facets = ideal.stanley_reisner_facets(jw)
        for grading in ("zn", "z2n"):
            additive = hilbert.multidegree_additive(facets, n, grading)
            if additive != hilbert.multidegree_of_ideal(jw, grading):
                return False, f"additive route differs at {w} ({grading})"
    return True, f"S{n}, both gradings, both routes"


def theorem_a_slow() -> tuple[bool, str]:
    for w in perm.all_perms(6):
        if not hilbert.theorem_a_check(w):
            return False, f"theorem A fails at {w}"
    return True, "all 720 w in S6"


# -- criterion 7: the divided-difference identity ----------------------------------


def dd_identity(n: int = 4) -> tuple[bool, str]:
    pairs = 0
    for w in perm.all_perms(n):
        for i in perm.descents(w):
            if not hilbert.divided_difference_identity_check(w, i):
                return False, f"identity fails at {w}, i={i}"
            pairs += 1
    return True, f"{pairs} covering pairs in S{n}"


# -- criterion 8: subword complexes -------------------------------------------------


def subword_checks(n: int = 4) -> tuple[bool, str]:
    cox4 = subword.symmetric_group(4)
    pentagon = subword.subword_complex((3, 2, 3, 2, 3), perm.parse("1432"), cox4)
    expected = frozenset(
        frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    )
    if pentagon.facets != expected:
        return False, "pentagon facets"
    # vertex_decompose raises InvariantError unless its order is a shelling
    subword.vertex_decompose(pentagon)
    word = subword.square_word(n)
    cox2n = subword.symmetric_group(2 * n)
    for count, w in enumerate(perm.all_perms(n), 1):
        delta = subword.subword_complex(word, perm.embed(w, 2 * n), cox2n)
        dreams = frozenset(
            pipedream.PipeDream(
                n,
                frozenset(
                    subword.grid_position_cell(n, p) for p in delta.vertices - f
                ),
            )
            for f in delta.facets
        )
        if dreams != pipedream.rp_mitosis(w):
            return False, f"square-word facets differ from RP at {w}"
        subword.vertex_decompose(delta)
    return True, f"pentagon + {count} square-word complexes"


# -- criterion 9: the Part-3 suites ---------------------------------------------------


def tau_involution(n: int = 3, max_entry: int = 2) -> tuple[bool, str]:
    checked = 0
    for w in perm.all_perms(n):
        for b in bruhatlab.standard_arrays(w, max_entry):
            for i in range(1, n):
                tb = bruhatlab.intron_mutation(i, w, b)
                if bruhatlab.intron_mutation(i, w, tb) != b:
                    return False, f"tau^2 != id at {w}, i={i}"
                if tb.column_sums() != b.column_sums():
                    return False, f"column sums change at {w}, i={i}"
                if bruhatlab.start_codon(i, w, tb) != bruhatlab.start_codon(i, w, b):
                    return False, f"start codon moves at {w}, i={i}"
                if bruhatlab.promoter_size(i, w, tb) != bruhatlab.promoter_size(
                    i, w, b
                ):
                    return False, f"promoter changes at {w}, i={i}"
                checked += 1
    return True, f"{checked} (w, i, b) triples"


def thm_ev_truncated(n: int = 3, max_degree: int = 4) -> tuple[bool, str]:
    """Lifted Demazure operators map standard monomials of J_w bijectively
    onto standard monomials of J_{w s_i}, degree by degree."""
    cells = sorted(ideal.grid(n))

    def arrays_up_to(limit):
        for total in range(limit + 1):
            for combo in itertools.combinations_with_replacement(cells, total):
                rows = [[0] * n for _ in range(n)]
                for (i, j) in combo:
                    rows[i - 1][j - 1] += 1
                yield ExponentArray.from_rows(rows)

    universe = list(arrays_up_to(max_degree))
    for w in perm.all_perms(n):
        for i in perm.descents(w):
            ws = perm.apply_right_transposition(w, i)
            image: list[ExponentArray] = []
            for b in universe:
                if bruhatlab.standard_test(b, w):
                    image.extend(bruhatlab.lifted_demazure(i, w, b))
            expected = [b for b in universe if bruhatlab.standard_test(b, ws)]
            if len(image) != len(set(image)):
                return False, f"repeats at {w}, i={i}"
            if set(image) != set(expected):
                return False, f"image mismatch at {w}, i={i}"
    return True, f"n={n}, degree <= {max_degree}"


def bridge_s4() -> tuple[bool, str]:
    pairs = 0
    for w in perm.all_perms(4):
        for i in perm.descents(w):
            if not bruhatlab.mitosis_facet_bridge(w, i):
                return False, f"bridge fails at {w}, i={i}"
            pairs += 1
    return True, f"{pairs} covering pairs"


# the left array of the mutation figure (n=8; unspecified entries taken as 0)
FIG_MU_START = (
    (1, 0, 1, 0, 0, 1, 1, 0),
    (1, 0, 1, 1, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (2, 2, 0, 2, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0),
)

# rows 3 and 4 after each successive mutation (all other rows are unchanged)
FIG_MU_GENES = [
    ((0, 0, 0, 0, 1, 0, 0, 0), (2, 2, 0, 2, 0, 0, 0, 0)),
    ((1, 0, 0, 0, 1, 0, 0, 0), (1, 2, 0, 2, 0, 0, 0, 0)),
    ((2, 0, 0, 0, 1, 0, 0, 0), (0, 2, 0, 2, 0, 0, 0, 0)),
    ((2, 1, 0, 0, 1, 0, 0, 0), (0, 1, 0, 2, 0, 0, 0, 0)),
    ((2, 2, 0, 0, 1, 0, 0, 0), (0, 0, 0, 2, 0, 0, 0, 0)),
    ((2, 2, 0, 1, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0)),
    ((2, 2, 0, 2, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0)),
]


def figure_mu() -> tuple[bool, str]:
    w = perm.parse("13865742")
    b = ExponentArray.from_rows(FIG_MU_START)
    if bruhatlab.start_codon(3, w, b) != 5:
        return False, "start codon"
    if bruhatlab.promoter_size(3, w, b) != 6:
        return False, "promoter size"
    chain = bruhatlab.lifted_demazure(3, w, b)
    if len(chain) != 7:
        return False, f"chain length {len(chain)}"
    for arr, genes in zip(chain, FIG_MU_GENES):
        if (arr.rows[2], arr.rows[3]) != genes:
            return False, "gene mismatch in the chain"
        if arr.rows[:2] + arr.rows[4:] != b.rows[:2] + b.rows[4:]:
            return False, "mutation left the gene"
    return True, "7 arrays"


# the intron-mutation figure: a 2 x 20 gene with start codon in column 4
FIG_INTRON_ROW_I = (0, 0, 0, 6, 0, 0, 0, 0, 4, 0, 3, 8, 6, 0, 2, 0, 0, 0, 0, 5)
FIG_INTRON_ROW_I1 = (2, 0, 3, 1, 4, 0, 5, 3, 7, 0, 0, 0, 0, 0, 5, 1, 4, 0, 0, 0)
FIG_INTRON_OUT_I = (0, 0, 0, 7, 4, 0, 1, 0, 7, 0, 3, 7, 0, 0, 0, 0, 0, 0, 0, 1)
FIG_INTRON_OUT_I1 = (2, 0, 3, 0, 0, 0, 4, 3, 4, 0, 0, 1, 6, 0, 7, 1, 4, 0, 0, 4)


def gene_blocks(top, bottom, start: int) -> tuple[tuple, tuple]:
    """The (first, last) columns of each intron and boxes of each exon of a
    gene, read off the scan that intron mutation runs: exon k is the bridge
    from box 2(hi_k - start) + 2 to box 2(lo_{k+1} - start) + 1."""
    top, bottom = list(top), list(bottom)
    top[start - 1] += 1
    bottom[-1] += 1
    introns = tuple((lo + 1, hi + 1) for lo, hi, _ in bruhatlab._introns(top, bottom, start))
    bridges = zip(introns, introns[1:])
    exons = tuple((2 * (hi - start) + 2, 2 * (lo - start) + 1) for (_, hi), (lo, _) in bridges)
    return introns, exons


def figure_intron() -> tuple[bool, str]:
    b = ExponentArray.from_rows((FIG_INTRON_ROW_I, FIG_INTRON_ROW_I1) + ((0,) * 20,) * 18)
    introns, exons = gene_blocks(FIG_INTRON_ROW_I, FIG_INTRON_ROW_I1, 4)
    if introns != ((4, 8), (9, 9), (11, 17), (20, 20)):
        return False, f"introns {introns}"
    if exons != ((10, 11), (12, 15), (28, 33)):
        return False, f"exons {exons}"
    out = bruhatlab.intron_mutation_at(1, 4, b)
    if out.rows[0] != FIG_INTRON_OUT_I or out.rows[1] != FIG_INTRON_OUT_I1:
        return False, "mutated gene differs from the figure"
    back = bruhatlab.intron_mutation_at(1, 4, out)
    if back != b:
        return False, "not an involution on the figure"
    return True, "dissection + mutation reproduced"


def part3_suites() -> tuple[bool, str]:
    for fn in (tau_involution, thm_ev_truncated, bridge_s4, figure_mu, figure_intron):
        ok, detail = fn()
        if not ok:
            return False, f"{fn.__name__}: {detail}"
    ok, detail = mitosis_correspondence_13865742()
    if not ok:
        return False, detail
    return True, "tau, thm-ev, bridge, figures"


def mitosis_correspondence_13865742() -> tuple[bool, str]:
    """Blank-for-cross makeover of the mutation figure matches the mitosis
    offspring of the figure's pipe dream (above the antidiagonal)."""
    w = perm.parse("13865742")
    n = 8
    b = ExponentArray.from_rows(FIG_MU_START)
    chain = bruhatlab.lifted_demazure(3, w, b)

    def above(d: pipedream.PipeDream) -> frozenset:
        return frozenset(c for c in d.crosses if c[0] + c[1] <= n)

    makeovers = {above(bruhatlab.dream_of(chain[d])) for d in (1, 3, 5)}
    parent = pipedream.PipeDream(n, above(bruhatlab.dream_of(b)))
    offspring = {above(d) for d in pipedream.mitosis(3, parent)}
    if makeovers != offspring:
        return False, "makeover offspring mismatch"
    return True, ""


# -- criterion 10: stability ------------------------------------------------------


def stability(n: int = 3, big: int = 5) -> tuple[bool, str]:
    for w in perm.all_perms(n):
        if poly.schubert(perm.embed(w, big)) != poly.schubert(w):
            return False, f"schubert stability fails at {w}"
        if poly.grothendieck(perm.embed(w, big)) != poly.grothendieck(w):
            return False, f"grothendieck stability fails at {w}"
    return True, f"S{n} inside S{big}"


# -- driver -------------------------------------------------------------------------


def run_all(n: int = 4, slow: bool = False) -> list[tuple[str, bool, str]]:
    # past n = 6, criteria 3 and 5 take hours of brute-force RP(w)
    size_guard(n, 6, "check-all")
    n_small = min(n, 4)
    results = []

    def run(name, fn, *args, **kwargs):
        try:
            ok, detail = fn(*args, **kwargs)
        except SizeGuardError:  # bad input: the CLI exits 2
            raise
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))

    run("schubert-table-s3", schubert_table_s3)
    run("intro-fixture-2143", intro_fixture)
    run(f"bjs-identity-s{n}", bjs_identity, n, n_small)
    run(f"theorem-b-s{n_small}", theorem_b, n_small)
    run(f"prime-decomposition-s{n}", prime_decomposition, n)
    run(f"theorem-a-s{n_small}", theorem_a, n_small)
    run(f"dd-identity-s{n_small}", dd_identity, n_small)
    run(f"subword-s{n_small}", subword_checks, n_small)
    run("part3-suites", part3_suites)
    run("stability", stability)
    if slow:
        run("theorem-b-slow", theorem_b_slow)
        run("theorem-a-s6", theorem_a_slow)
    return results
