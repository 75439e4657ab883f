import itertools
import re

import pytest

from reference_kernel import mitosis_via_chutes
from schubert import perm, pipedream, poly
from schubert.limits import SizeGuardError
from schubert.pipedream import PipeDream, make


FIG_PIPE = make(
    8,
    [
        (1, 2), (1, 4), (1, 5),
        (2, 2), (2, 6),
        (3, 1), (3, 2), (3, 3), (3, 4),
        (4, 3),
        (5, 1),
        (6, 1), (6, 2),
        (7, 1),
    ],
)

INTRO_2143 = [
    make(4, [(1, 1), (1, 3)]),
    make(4, [(1, 1), (2, 2)]),
    make(4, [(1, 1), (3, 1)]),
]


def test_word_of_d0():
    assert pipedream.word_of(pipedream.d0(4)) == (3, 2, 1, 3, 2, 3)


def test_word_of_example_dreams():
    # the displayed n=5 dream: row 1 cols 1,3,4 and row 3 cols 1,2
    d = make(5, [(1, 1), (1, 3), (1, 4), (3, 1), (3, 2)])
    assert pipedream.word_of(d) == (4, 3, 1, 4, 3)
    # the variant with row 3 cols 2,3 (the prose reading of the same example)
    d2 = make(5, [(1, 1), (1, 3), (1, 4), (3, 2), (3, 3)])
    assert pipedream.word_of(d2) == (4, 3, 1, 5, 4)


def test_word_of_empty():
    assert pipedream.word_of(make(3, [])) == ()


def test_permutation_of():
    assert pipedream.permutation_of(pipedream.d0(5)) == perm.long_element(5)
    assert pipedream.permutation_of(FIG_PIPE) == (1, 3, 8, 6, 5, 7, 4, 2)
    assert pipedream.permutation_of(make(4, [])) == perm.identity(4)


def test_is_reduced():
    assert pipedream.is_reduced(pipedream.d0(6))
    # two pipes crossing twice
    assert not pipedream.is_reduced(make(3, [(1, 2), (2, 1)]))
    for d in INTRO_2143:
        assert pipedream.is_reduced(d)
        assert pipedream.permutation_of(d) == (2, 1, 4, 3)


def test_cross_count_at_least_length():
    cells = sorted(pipedream.d0(4).crosses)
    for k in range(len(cells) + 1):
        for combo in itertools.combinations(cells, k):
            d = make(4, combo)
            assert len(d.crosses) >= perm.length(pipedream.permutation_of(d))


def test_start_row():
    d = make(8, [(3, j) for j in range(1, 5)])
    assert pipedream.start_row(3, d) == 5
    assert pipedream.start_row(1, make(4, [])) == 1
    full = make(3, [(1, 1), (1, 2), (1, 3)])
    assert pipedream.start_row(1, full) == 4


def test_mitosis_figure_offspring():
    offspring = pipedream.mitosis(3, FIG_PIPE)
    assert pipedream.mitosis_columns(3, FIG_PIPE) == [1, 2, 4]
    base = FIG_PIPE.crosses - {(3, 1), (3, 2), (3, 3), (3, 4), (4, 3)}
    expected = {
        make(8, base | {(3, 2), (3, 3), (3, 4), (4, 3)}),
        make(8, base | {(3, 3), (3, 4), (4, 1), (4, 3)}),
        make(8, base | {(3, 3), (4, 1), (4, 2), (4, 3)}),
    }
    assert offspring == expected
    assert mitosis_via_chutes(3, FIG_PIPE) == expected


def test_mitosis_empty_when_no_columns():
    d = make(3, [(2, 1)])  # start_1 = 1, so J_1 is empty
    assert pipedream.mitosis(1, d) == frozenset()


def test_mitosis_offspring_are_reduced_for_ws_i():
    for w in perm.all_perms(4):
        for i in perm.descents(w):
            ws = perm.apply_right_transposition(w, i)
            for d in pipedream.rp_mitosis(w):
                for child in pipedream.mitosis(i, d):
                    assert pipedream.is_reduced(child)
                    assert pipedream.permutation_of(child) == ws


def test_mitosis_disjoint_across_parents():
    for w in perm.all_perms(4):
        for i in perm.descents(w):
            seen = set()
            for d in pipedream.rp_mitosis(w):
                children = pipedream.mitosis(i, d)
                assert not (seen & children)
                seen |= children


def test_mitosis_agrees_with_chute_procedure():
    for w in perm.all_perms(4):
        for d in pipedream.rp_mitosis(w):
            for i in range(1, 4):
                assert pipedream.mitosis(i, d) == mitosis_via_chutes(i, d)


def test_chute_minimal_case():
    d = make(4, [(1, 2)])
    out = pipedream.chute(d, ((1, 2), (2, 1)))
    assert out.crosses == frozenset([(2, 1)])
    with pytest.raises(ValueError):
        pipedream.chute(out, ((1, 2), (2, 1)))


def test_chute_preserves_permutation_and_reducedness():
    for w in perm.all_perms(4):
        for d in pipedream.rp_mitosis(w):
            for moved in pipedream.all_chute_moves(d):
                assert pipedream.permutation_of(moved) == w
                assert pipedream.is_reduced(moved)


def test_top_pipe_dream():
    assert pipedream.top_pipe_dream(perm.long_element(4)) == pipedream.d0(4)
    assert pipedream.top_pipe_dream(perm.identity(4)).crosses == frozenset()
    assert pipedream.top_pipe_dream((2, 1, 4, 3)).crosses == frozenset(
        [(1, 1), (1, 3)]
    )


def test_top_pipe_dream_is_unique_due_north_element():
    def due_north(d):
        return all(i == 1 or (i - 1, j) in d.crosses for (i, j) in d.crosses)

    for w in perm.all_perms(4):
        tops = [d for d in pipedream.rp_bruteforce(w) if due_north(d)]
        assert tops == [pipedream.top_pipe_dream(w)]


def test_all_reduced_dreams_reachable_from_top_by_chutes():
    for w in perm.all_perms(4):
        frontier = [pipedream.top_pipe_dream(w)]
        seen = set(frontier)
        while frontier:
            d = frontier.pop()
            for moved in pipedream.all_chute_moves(d):
                if moved not in seen:
                    seen.add(moved)
                    frontier.append(moved)
        assert seen == set(pipedream.rp_bruteforce(w))


def test_rp_mitosis_w0_and_2143():
    assert pipedream.rp_mitosis(perm.long_element(4)) == frozenset([pipedream.d0(4)])
    assert pipedream.rp_mitosis((2, 1, 4, 3)) == frozenset(INTRO_2143)


def test_rp_mitosis_counts_match_schubert_at_one():
    for w in perm.all_perms(4):
        assert len(pipedream.rp_mitosis(w)) == sum(poly.schubert(w).terms.values())


def test_rp_bruteforce_agrees_with_mitosis_s4():
    for w in perm.all_perms(4):
        assert pipedream.rp_bruteforce(w) == pipedream.rp_mitosis(w)


def test_rp_bruteforce_guard(monkeypatch):
    past = "rp_bruteforce: n=8 exceeds cap 7 (set SCHUBERT_MAX_N to override)"
    with pytest.raises(SizeGuardError, match=re.escape(past)):
        pipedream.rp_bruteforce(perm.identity(8))
    monkeypatch.setenv("SCHUBERT_MAX_N", "8")
    assert pipedream.rp_bruteforce(perm.identity(8)) == frozenset(
        [pipedream.make(8, [])]
    )
    # a value below the table's cap leaves it in force
    monkeypatch.setenv("SCHUBERT_MAX_N", "3")
    assert pipedream.rp_bruteforce(perm.identity(4)) == frozenset([pipedream.make(4, [])])
    with pytest.raises(SizeGuardError, match=re.escape(past)):
        pipedream.rp_bruteforce(perm.identity(8))


def test_rp_mitosis_guard(monkeypatch):
    # cap 8, one above rp_bruteforce; w0 is the one w whose mitosis is free
    past = "rp_mitosis: n=9 exceeds cap 8 (set SCHUBERT_MAX_N to override)"
    assert pipedream.rp_mitosis(perm.long_element(8)) == frozenset([pipedream.d0(8)])
    with pytest.raises(SizeGuardError, match=re.escape(past)):
        pipedream.rp_mitosis(perm.long_element(9))
    monkeypatch.setenv("SCHUBERT_MAX_N", "9")
    assert pipedream.rp_mitosis(perm.long_element(9)) == frozenset([pipedream.d0(9)])
    # a value below the table's cap leaves it in force
    monkeypatch.setenv("SCHUBERT_MAX_N", "3")
    assert pipedream.rp_mitosis(perm.identity(4)) == frozenset([pipedream.make(4, [])])
    with pytest.raises(SizeGuardError, match=re.escape(past)):
        pipedream.rp_mitosis(perm.long_element(9))


def test_library_dreams_stay_above_antidiagonal():
    for w in perm.all_perms(4):
        for d in pipedream.rp_mitosis(w):
            assert all(i + j <= 4 for (i, j) in d.crosses)


def test_json_roundtrip_and_render():
    d = INTRO_2143[0]
    assert PipeDream.from_json(d.to_json()) == d
    assert d.render().splitlines()[0] == "+ . + ."
