import collections
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_kernel import (
    contains_bruteforce,
    ref_decompose,
    ref_is_shelling,
    subword_facets_by_prefix,
)
from schubert import perm, pipedream, subword
from schubert.subword import (
    EMPTY_LEAF,
    contains,
    demazure_product,
    subword_complex,
    symmetric_group,
)


COX4 = symmetric_group(4)


def fs(*items):
    return frozenset(items)


def test_demazure_product_of_reduced_word():
    for w in perm.all_perms(4):
        w0w = perm.multiply(perm.long_element(4), w)
        word = pipedream.word_of(pipedream.top_pipe_dream(w0w))
        assert demazure_product(word, COX4) == w0w


def test_demazure_product_idempotent_letter():
    assert demazure_product((1, 1), COX4) == (2, 1, 3, 4)


def test_demazure_product_of_pipe_dream_word():
    d = pipedream.make(
        8,
        [
            (1, 2), (1, 4), (1, 5), (2, 2), (2, 6), (3, 1), (3, 2), (3, 3),
            (3, 4), (4, 3), (5, 1), (6, 1), (6, 2), (7, 1),
        ],
    )
    cox = symmetric_group(8)
    assert demazure_product(pipedream.word_of(d), cox) == (1, 3, 8, 6, 5, 7, 4, 2)


def test_contains_matches_bruteforce():
    rng = random.Random(3)
    cox = symmetric_group(4)
    perms = list(perm.all_perms(4))
    for _ in range(120):
        word = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(7)))
        pi = perms[rng.randrange(len(perms))]
        assert contains(word, pi, cox) == contains_bruteforce(word, pi, cox)


def test_pentagon_complex():
    delta = subword_complex((3, 2, 3, 2, 3), (1, 4, 3, 2), COX4)
    assert delta.facets == fs(fs(0, 1), fs(1, 2), fs(2, 3), fs(3, 4), fs(0, 4))


def test_full_simplex_for_identity():
    delta = subword_complex((1, 2, 1), perm.identity(3), symmetric_group(3))
    assert delta.facets == fs(fs(0, 1, 2))


def test_void_versus_empty():
    cox = symmetric_group(3)
    void = subword_complex((1,), (3, 2, 1), cox)
    assert void.is_void()
    empty = subword_complex((1, 2, 1), (3, 2, 1), cox)
    assert empty.facets == fs(fs())


def test_purity():
    cox = symmetric_group(4)
    for w in perm.all_perms(4):
        word = pipedream.word_of(pipedream.d0(4)) + (1, 2, 1)
        delta = subword_complex(word, w, cox)
        size = len(word) - perm.length(w)
        for f in delta.facets:
            assert len(f) == size


def test_link_and_deletion_match_subword_recursion():
    cox = symmetric_group(4)
    word = (3, 2, 3, 2, 3)
    pi = (1, 4, 3, 2)
    delta = subword_complex(word, pi, cox)

    def shift(facets):
        return frozenset(frozenset(p + 1 for p in f) for f in facets)

    link0 = subword.link([0], delta.facets)
    assert link0 == shift(subword_complex(word[1:], pi, cox).facets)
    # sigma pi is shorter here, so the deletion shortens pi
    spi = perm.multiply(perm.permutation_from_word(4, word[:1]), pi)
    assert perm.length(spi) < perm.length(pi)
    del0 = subword.deletion([0], delta.facets)
    assert del0 == shift(subword_complex(word[1:], spi, cox).facets)


def test_link_of_cone_vertex_equals_deletion():
    facets = fs(fs(0, 1), fs(0, 2))
    assert subword.link([0], facets) == subword.deletion([0], facets)
    with pytest.raises(ValueError):
        subword.link([3], facets)


def test_vertex_decompose_pentagon():
    delta = subword_complex((3, 2, 3, 2, 3), (1, 4, 3, 2), COX4)
    tree, order = subword.vertex_decompose(delta)
    assert order == subword.shelling_from_decomposition(tree)
    assert set(order) == delta.facets
    assert subword.is_shelling(order, delta.facets)


def test_vertex_decompose_full_simplex():
    delta = subword_complex((1, 2), perm.identity(3), symmetric_group(3))
    tree, order = subword.vertex_decompose(delta)
    # single chain of cone vertices down to the empty complex
    assert tree.cone and tree.link.cone and tree.link.link == EMPTY_LEAF
    assert order == [fs(0, 1)]


def test_square_word_and_rp_bijection_2143():
    word = subword.square_word(4)
    assert word == tuple([4, 3, 2, 1, 5, 4, 3, 2, 6, 5, 4, 3, 7, 6, 5, 4])
    cox = symmetric_group(8)
    delta = subword_complex(word, perm.embed((2, 1, 4, 3), 8), cox)
    dreams = frozenset(
        pipedream.PipeDream(
            4,
            frozenset(
                subword.grid_position_cell(4, p) for p in delta.vertices - f
            ),
        )
        for f in delta.facets
    )
    assert dreams == pipedream.rp_mitosis((2, 1, 4, 3))
    _, order = subword.vertex_decompose(delta)
    assert len(set(order)) == 3


def test_pentagon_shellings_exhaustively():
    delta = subword_complex((3, 2, 3, 2, 3), (1, 4, 3, 2), COX4)
    facets = sorted(delta.facets, key=sorted)
    good = 0
    for order in itertools.permutations(facets):
        if subword.is_shelling(list(order), delta.facets):
            good += 1
    # every prefix must stay a contiguous arc: 5 starts, then 2 choices thrice
    assert good == 40


def test_is_shelling_rejects_disconnected_order():
    facets = fs(fs(0, 1), fs(1, 2), fs(2, 3), fs(3, 4), fs(0, 4))
    bad = [fs(0, 1), fs(2, 3), fs(1, 2), fs(3, 4), fs(0, 4)]
    assert not subword.is_shelling(bad, facets)
    assert not subword.is_shelling([fs(0, 1)], facets)  # must cover all facets


def test_is_shelling_rejects_meets_in_separate_points():
    # the last triangle meets the earlier ones in the points 0, 4 and 4: its
    # meet complex is two points, not pure of dimension 1
    order = [fs(0, 1, 3), fs(1, 3, 4), fs(3, 4, 5), fs(0, 2, 4)]
    assert subword.is_shelling(order[:3], order[:3])
    assert not subword.is_shelling(order, order)
    assert not ref_is_shelling(order, order)


def random_antichain(rng, n_vertices, n_sets):
    sets = {
        frozenset(v for v in range(n_vertices) if rng.random() < 0.5) for _ in range(n_sets)
    }
    return [s for s in sets if not any(s < t for t in sets)]


def test_is_shelling_matches_brute_force():
    # random antichains, pure and not, in random order, on 3 to 7 vertices
    rng = random.Random(16)
    answers = collections.Counter()
    for _ in range(3000):
        facets = random_antichain(rng, rng.randrange(3, 8), rng.randrange(2, 9))
        rng.shuffle(facets)
        expected = ref_is_shelling(facets, facets)
        assert subword.is_shelling(facets, frozenset(facets)) == expected, facets
        answers[len(facets) > 1, expected] += 1
    assert min(answers[True, False], answers[True, True]) > 500  # both answers occur


def test_single_facet_complex_trivially_shellable():
    assert subword.is_shelling([fs(0, 1, 2)], fs(fs(0, 1, 2)))
    assert subword.is_shelling([fs()], fs(fs()))


def test_decomposition_json():
    delta = subword_complex((1, 2, 1), (2, 1, 3), symmetric_group(3))
    tree, _ = subword.vertex_decompose(delta)
    data = subword.decomposition_to_jsonable(tree)
    assert isinstance(data, (dict, str))


# -- the descent peel against the left-to-right weak-prefix search --------------


def staircase_word(n):
    return tuple(i + j - 1 for i in range(1, n + 1) for j in range(n - i, 0, -1))


def assert_search_matches_reference(word, pi, cox):
    assert subword_complex(word, pi, cox).facets == subword_facets_by_prefix(word, pi, cox), (word, pi)


def test_facets_match_reference_staircase():
    for n in range(2, 6):
        cox = symmetric_group(n)
        for w in perm.all_perms(n):
            assert_search_matches_reference(staircase_word(n), w, cox)


def test_facets_match_reference_square_words():
    for n in (2, 3):
        cox = symmetric_group(2 * n)
        for w in perm.all_perms(2 * n):
            assert_search_matches_reference(subword.square_word(n), w, cox)


def test_facets_match_reference_pentagon():
    assert_search_matches_reference((3, 2, 3, 2, 3), perm.parse("1432"), COX4)


PERMS4 = list(perm.all_perms(4))


@settings(max_examples=300)
@given(st.lists(st.integers(1, 3), max_size=10), st.sampled_from(PERMS4))
@example([], (1, 2, 3, 4))  # the empty word, whose complex is {empty face}
@example([], (2, 1, 3, 4))  # void: no letters at all
@example([1, 1, 2], (1, 3, 2, 4))  # non-reduced word
@example([2, 1, 2, 1, 2, 1], (3, 2, 1, 4))  # two full reduced words and more
def test_facets_match_reference_random_words(word, pi):
    assert_search_matches_reference(word, pi, COX4)
    delta = subword_complex(word, pi, COX4)
    if not delta.is_void():
        tree, _ = subword.vertex_decompose(delta)
        labels = tuple(range(len(word)))
        assert tree == ref_decompose(tuple(word), pi, perm.length(pi), labels, COX4)


def test_descent_rejects_out_of_range_letters():
    for letter in (0, 4):
        with pytest.raises(ValueError):
            COX4.descent(perm.identity(4), letter)
        with pytest.raises(ValueError):
            subword_complex((1, letter), (2, 1, 3, 4), COX4)
