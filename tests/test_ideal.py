import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from reference_kernel import ref_schubert_generators
from schubert import checks, ideal, perm, pipedream
from schubert.ideal import Minor
from schubert.limits import SizeGuardError


def cells(*pairs):
    return frozenset(pairs)


def test_schubert_generators_2143():
    gens = ideal.schubert_generators((2, 1, 4, 3))
    assert gens == frozenset(
        [Minor((1,), (1,)), Minor((1, 2, 3), (1, 2, 3))]
    )


def test_schubert_generators_w0():
    gens = ideal.schubert_generators(perm.long_element(4))
    assert {(m.rows[0], m.cols[0]) for m in gens} == {
        (i, j) for i in range(1, 5) for j in range(1, 5) if i + j <= 4
    }
    assert all(m.size == 1 for m in gens)


def test_schubert_generators_13865742():
    gens = ideal.schubert_generators((1, 3, 8, 6, 5, 7, 4, 2))
    by_size = Counter(m.size for m in gens)
    assert by_size == {2: 21, 3: 144}


def test_schubert_generators_match_every_position_s1_to_s6():
    # maximal rank positions give the minors of every position at an
    # essential rank level, a subset of the minors of every position
    for n in range(1, 7):
        for w in perm.all_perms(n):
            gens = ideal.schubert_generators(w)
            assert gens == ref_schubert_generators(w)
            assert gens <= ref_schubert_generators(w, pruned=False)


@settings(max_examples=40)
@given(st.sampled_from([7, 8]).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_schubert_generators_match_every_position_s7_s8(w):
    w = tuple(w)
    gens = ideal.schubert_generators(w)
    assert gens == ref_schubert_generators(w)
    assert gens <= ref_schubert_generators(w, pruned=False)


def test_minor_antidiagonal():
    m = Minor((1, 2, 3), (1, 2, 3))
    assert m.antidiagonal() == cells((1, 3), (2, 2), (3, 1))


def test_antidiagonal_ideal_2143():
    jw = ideal.antidiagonal_ideal((2, 1, 4, 3))
    assert jw.generators == frozenset(
        [cells((1, 1)), cells((1, 3), (2, 2), (3, 1))]
    )


def test_antidiagonal_ideal_1432():
    jw = ideal.antidiagonal_ideal((1, 4, 3, 2))
    assert jw.generators == frozenset(
        [
            cells((1, 2), (2, 1)),
            cells((1, 3), (2, 1)),
            cells((1, 3), (2, 2)),
            cells((1, 2), (3, 1)),
            cells((2, 2), (3, 1)),
        ]
    )


def test_antidiagonal_ideal_identity():
    assert ideal.antidiagonal_ideal((1, 2, 3)).generators == frozenset()


def test_pruned_and_unpruned_generators_give_same_ideal():
    for n in (3, 4):
        for w in perm.all_perms(n):
            pruned = ideal.minimalize(
                m.antidiagonal() for m in ideal.schubert_generators(w)
            )
            full = ideal.minimalize(
                m.antidiagonal() for m in ref_schubert_generators(w, pruned=False)
            )
            assert pruned == full


def test_stanley_reisner_facets_1432():
    jw = ideal.antidiagonal_ideal((1, 4, 3, 2))
    facets = ideal.stanley_reisner_facets(jw)
    assert len(facets) == 5
    assert all(len(f) == 13 for f in facets)
    complements = {
        frozenset({(i, j) for i in range(1, 5) for j in range(1, 5)} - f)
        for f in facets
    }
    assert complements == {
        cells((1, 2), (1, 3), (2, 2)),
        cells((1, 2), (2, 1), (2, 2)),
        cells((2, 1), (2, 2), (3, 1)),
        cells((1, 3), (2, 1), (3, 1)),
        cells((1, 2), (1, 3), (3, 1)),
    }


def test_stanley_reisner_facets_2143():
    dreams = ideal.facet_complement_dreams((2, 1, 4, 3))
    expected = {
        pipedream.make(4, [(1, 1), (1, 3)]),
        pipedream.make(4, [(1, 1), (2, 2)]),
        pipedream.make(4, [(1, 1), (3, 1)]),
    }
    assert dreams == expected


def test_stanley_reisner_facets_empty_ideal():
    jw = ideal.antidiagonal_ideal((1, 2, 3))
    facets = ideal.stanley_reisner_facets(jw)
    assert facets == frozenset(
        [frozenset((i, j) for i in range(1, 4) for j in range(1, 4))]
    )


def test_prime_decomposition_s4():
    for w in perm.all_perms(4):
        assert ideal.facet_complement_dreams(w) == pipedream.rp_bruteforce(w)


def test_facet_complements_are_rp_by_mitosis_s6():
    # Theorem B's prime decomposition on all of S6, against RP(w) by mitosis
    for w in perm.all_perms(6):
        assert ideal.facet_complement_dreams(w) == pipedream.rp_mitosis(w), w


def test_purity_s4():
    for w in perm.all_perms(4):
        facets = ideal.stanley_reisner_facets(ideal.antidiagonal_ideal(w))
        assert all(len(f) == 16 - perm.length(w) for f in facets)


def extra_dream(monkeypatch, crosses_over_length: int) -> None:
    """Add to each w's facet complements the dream of the first cells in row
    order, l(w) + crosses_over_length of them."""
    complements = ideal.facet_complement_dreams

    def with_extra(w):
        n = len(w)
        cells = sorted(ideal.grid(n))[: perm.length(w) + crosses_over_length]
        return complements(w) | {pipedream.PipeDream(n, frozenset(cells))}

    monkeypatch.setattr(ideal, "facet_complement_dreams", with_extra)


def test_prime_decomposition_check_finds_an_impure_complex(monkeypatch):
    extra_dream(monkeypatch, 1)
    ok, detail = checks.prime_decomposition(3)
    assert not ok and detail.startswith("purity fails at")


def test_prime_decomposition_check_finds_a_wrong_facet(monkeypatch):
    # w = 123 gains the empty dream it already has; w = 132 gains {(1, 1)},
    # which has l(w) crosses but is not in RP(132) = {{(1, 2)}, {(2, 1)}}
    extra_dream(monkeypatch, 0)
    ok, detail = checks.prime_decomposition(3)
    assert not ok and detail.startswith("facet complements != RP at")


def test_minimal_poisoning():
    # every antidiagonal meets every reduced pipe dream, minimally on both sides
    for n in (3, 4):
        for w in perm.all_perms(n):
            gens = ideal.antidiagonal_ideal(w).generators
            dreams = [d.crosses for d in pipedream.rp_bruteforce(w)]
            for g in gens:
                assert all(g & d for d in dreams)
                for cell in g:
                    assert any(not ((g - {cell}) & d) for d in dreams)
            for d in dreams:
                for cell in d:
                    assert any(not (g & (d - {cell})) for g in gens)


def test_facet_complements_closed_under_chutes():
    for w in perm.all_perms(4):
        dreams = ideal.facet_complement_dreams(w)
        for d in dreams:
            for moved in pipedream.all_chute_moves(d):
                assert moved in dreams


def test_minimal_covers_rejects_empty_generator():
    with pytest.raises(ValueError):
        ideal.minimal_covers([frozenset()])


def test_minimal_covers_match_brute_force():
    # every vertex subset that hits each set, kept if no proper subset does
    rng = random.Random(15)
    for trial in range(300):
        vertices = range(rng.randint(1, 7))
        family = [
            frozenset(rng.sample(vertices, rng.randint(1, len(vertices))))
            for _ in range(trial % 6)
        ]
        subsets = [
            frozenset(s)
            for k in range(len(vertices) + 1)
            for s in itertools.combinations(vertices, k)
        ]
        hitting = [s for s in subsets if all(s & g for g in family)]
        brute = {s for s in hitting if not any(h < s for h in hitting)}
        assert ideal.minimal_covers(family) == brute
    assert ideal.minimal_covers([]) == {frozenset()}


def test_facets_guard():
    big = ideal.SquarefreeMonomialIdeal(7, frozenset([cells((1, 1))]))
    with pytest.raises(ValueError):
        ideal.stanley_reisner_facets(big)


def test_ideal_keeps_only_its_minimal_generators():
    # z11 divides z11*z22 and z11*z12*z21; z12*z21 divides the last
    gens = frozenset(
        [cells((1, 1)), cells((1, 1), (2, 2)), cells((1, 2), (2, 1)), cells((1, 1), (1, 2), (2, 1))]
    )
    j = ideal.SquarefreeMonomialIdeal(2, gens)
    assert j.generators == frozenset([cells((1, 1)), cells((1, 2), (2, 1))])
    rng = random.Random(25)
    grid = sorted(ideal.grid(3))
    for _ in range(200):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(0, 8))]
        gens = frozenset(frozenset(rng.sample(grid, k)) for k in sizes)
        brute = frozenset(g for g in gens if not any(h < g for h in gens))
        assert ideal.SquarefreeMonomialIdeal(3, gens).generators == ideal.minimalize(gens) == brute


def test_facet_complement_dreams_guards_before_the_grid(monkeypatch):
    # building the grid first, S1500 took 1.4 s and 218 MB to reach the guard
    def no_grid(n):
        raise AssertionError(f"grid({n}) built before the guard")

    monkeypatch.setattr(ideal, "grid", no_grid)
    with pytest.raises(SizeGuardError):
        ideal.facet_complement_dreams(perm.identity(1500))


@pytest.mark.parametrize("bad", [(2.0, 1.0), (True, 2)])
def test_antidiagonal_ideal_validates_cold_and_warm(bad):
    # (2.0, 1.0) == (2, 1) and (True, 2) == (1, 2) with equal hashes: a memo
    # that validated inside returned J_21 for (2.0, 1.0) once (2, 1) was cached
    ideal._antidiagonal_ideal.cache_clear()
    for _ in ("cold", "warm"):
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.2"):
            ideal.antidiagonal_ideal(bad)
        for w in ((2, 1), (1, 2)):
            ideal.antidiagonal_ideal(w)


def test_antidiagonal_ideal_is_the_one_memo_in_ideal():
    memos = [name for name, value in vars(ideal).items() if hasattr(value, "cache_clear")]
    assert memos == ["_antidiagonal_ideal"]


@pytest.mark.parametrize(
    "generator",
    [cells((1.0, 2.0)), cells((True, 1)), cells((5, 7)), cells((1, 1), (2, 3)),
     frozenset([(1, 1, 1)]), frozenset(["ab"]), frozenset()],
    ids=["float", "bool", "outside", "one-outside", "triple", "string", "empty"],
)
def test_ideal_takes_only_nonempty_sets_of_grid_cells(generator):
    with pytest.raises(ValueError, match=r"^not a nonempty set of int cells in 1\.\.2: "):
        ideal.SquarefreeMonomialIdeal(2, frozenset([generator]))


def test_facet_complement_dreams_reads_the_covers(monkeypatch):
    # the dreams are Berge's covers as they stand: no grid, no facets, no
    # complement taken twice
    def unused(*args):
        raise AssertionError("the covers are the dreams")

    monkeypatch.setattr(ideal, "grid", unused)
    monkeypatch.setattr(ideal, "stanley_reisner_facets", unused)
    assert ideal.facet_complement_dreams((2, 1, 4, 3)) == {
        pipedream.make(4, [(1, 1), (1, 3)]),
        pipedream.make(4, [(1, 1), (2, 2)]),
        pipedream.make(4, [(1, 1), (3, 1)]),
    }
    with pytest.raises(ValueError, match="not a permutation"):
        ideal.facet_complement_dreams((2.0, 1.0))
