import pytest
from hypothesis import given, settings, strategies as st

from reference_kernel import permutation_from_rank_matrix, ref_rank_matrix
from schubert import perm, poly


def brute_length(w):
    # independent double-loop inversion count
    n = len(w)
    return sum(w[i] > w[j] for i in range(n) for j in range(i + 1, n))


def test_length_examples():
    assert perm.length((1, 2, 3, 4)) == 0
    assert perm.length((4, 3, 2, 1)) == 6
    assert perm.length((2, 1, 4, 3)) == 2 == brute_length((2, 1, 4, 3))


def test_length_matches_brute_force_on_s4():
    for w in perm.all_perms(4):
        assert perm.length(w) == brute_length(w)


def test_validate_rejects_non_permutations():
    for bad in [(1, 1, 2), (0, 1, 2), (2, 3, 4)]:
        try:
            perm.validate(bad)
        except ValueError:
            continue
        raise AssertionError(f"{bad} accepted")


def test_validate_rejects_entries_that_are_not_ints():
    # schubert((2.0, 1.0)) printed x1, and the bool True passed as 1
    for bad in [(2.0, 1.0), (True, 2), (1, "a"), ([1],)]:
        with pytest.raises(ValueError, match="not a permutation"):
            perm.validate(bad)
    with pytest.raises(ValueError):
        poly.schubert((2.0, 1.0))


def test_parse_forms():
    assert perm.parse("2143") == perm.parse(" [2, 1, 4, 3] ") == (2, 1, 4, 3)
    for bad in ["21x3", "2140", "[2,1", '[1,"a"]', "[[1]]", "[1.0]", ""]:
        try:
            perm.parse(bad)
        except ValueError:
            continue
        raise AssertionError(f"{bad!r} accepted")


def test_rank_matrix_2143():
    r = perm.rank_matrix((2, 1, 4, 3))
    assert r[0][0] == 0  # upper-left entry of X_2143 is zero
    assert r[2][2] == 2  # 3x3 block rank at most two
    assert r[3][3] == 4


def test_rank_matrix_identity():
    r = perm.rank_matrix((1, 2, 3, 4))
    for q in range(1, 5):
        for p in range(1, 5):
            assert r[q - 1][p - 1] == min(q, p)


def test_rank_matrix_monotone_and_invertible():
    for w in perm.all_perms(4):
        r = perm.rank_matrix(w)
        for q in range(4):
            for p in range(4):
                if p:
                    assert r[q][p] - r[q][p - 1] in (0, 1)
                if q:
                    assert r[q][p] - r[q - 1][p] in (0, 1)
        assert r[3][3] == 4
        assert permutation_from_rank_matrix(r) == w


def test_rank_matrix_matches_reference_s1_to_s6():
    for n in range(1, 7):
        for w in perm.all_perms(n):
            assert perm.rank_matrix(w) == ref_rank_matrix(w)


@settings(max_examples=40)
@given(st.sampled_from([7, 8]).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_rank_matrix_matches_reference_s7_s8(w):
    assert perm.rank_matrix(tuple(w)) == ref_rank_matrix(tuple(w))


def test_apply_right_transposition():
    assert perm.apply_right_transposition((2, 1, 4, 3), 1) == (1, 2, 4, 3)
    w0 = perm.long_element(4)
    for i in range(1, 4):
        assert perm.length(perm.apply_right_transposition(w0, i)) == 5
    assert perm.apply_right_transposition(
        (1, 3, 8, 6, 5, 7, 4, 2), 3
    ) == (1, 3, 6, 8, 5, 7, 4, 2)


def test_length_changes_by_one():
    for w in perm.all_perms(4):
        for i in range(1, 4):
            assert abs(perm.length(perm.apply_right_transposition(w, i)) - perm.length(w)) == 1


# A family that records its steps builds, at w, the word i_1..i_k with
# w = w0 s_{i_1} ... s_{i_k}: a reduced word for w0*w, read off the same
# weak-order induction the polynomial families run on.
reduced_word_to_w0 = perm.weak_order_family(lambda n: (), lambda i, above: above + (i,))


def test_reduced_word_to_w0_at_w0():
    assert reduced_word_to_w0(perm.long_element(4)) == ()


def test_reduced_word_for_2143():
    # the recursion G_2143 = dem2 dem1 dem3 dem2 G_w0 reads the word right to left
    assert reduced_word_to_w0((2, 1, 4, 3)) == (2, 3, 1, 2)


def test_reduced_word_multiplies_to_w0w():
    for n in (3, 4):
        w0 = perm.long_element(n)
        for w in perm.all_perms(n):
            word = reduced_word_to_w0(w)
            assert len(word) == perm.length(w0) - perm.length(w)
            assert perm.permutation_from_word(n, word) == perm.multiply(w0, w)


def test_multiply_inverse():
    for w in perm.all_perms(4):
        assert perm.multiply(w, perm.inverse(w)) == perm.identity(4)
        assert perm.multiply(perm.inverse(w), w) == perm.identity(4)


def test_lehmer_code_sums_to_length():
    for w in perm.all_perms(4):
        assert sum(perm.lehmer_code(w)) == perm.length(w)


def test_embed():
    assert perm.embed((2, 1), 4) == (2, 1, 3, 4)
