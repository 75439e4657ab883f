import ast
from pathlib import Path

import pytest

import schubert
from schubert import bruhatlab, checks, cli, grobner, hilbert, ideal, perm, pipedream, poly, subword
from schubert.bruhatlab import ExponentArray
from schubert.limits import InvariantError, SizeGuardError

SRC = Path(schubert.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements; invariants must raise InvariantError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_invariant_error_is_not_a_usage_error():
    assert not issubclass(InvariantError, ValueError)


def test_broken_replay_raises_invariant_error(monkeypatch, capsys):
    monkeypatch.setattr(subword, "shelling_from_decomposition", lambda tree: [])
    delta = subword.subword_complex(
        (3, 2, 3, 2, 3), (1, 4, 3, 2), subword.symmetric_group(4)
    )
    with pytest.raises(InvariantError):
        subword.vertex_decompose(delta)
    code = cli.main(["subword", "--word", "3,2,3,2,3", "--perm", "1432", "--decompose"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_repeated_facet_in_the_shelling_raises_invariant_error(monkeypatch):
    # the repeat has the right facet set, so only the count can see it
    delta = subword.subword_complex(
        (3, 2, 3, 2, 3), (1, 4, 3, 2), subword.symmetric_group(4)
    )
    _, order = subword.vertex_decompose(delta)
    assert len(order) == 5
    monkeypatch.setattr(subword, "shelling_from_decomposition", lambda tree: order + order[:1])
    with pytest.raises(InvariantError, match="does not replay to the facets"):
        subword.vertex_decompose(delta)


def test_overlapping_mitosis_offspring_raise_invariant_error(monkeypatch, capsys):
    # RP(2143) comes from the two dreams of RP(2413), 2413 = 2143 * s_2 with
    # 2 the first ascent of 2143; a mitosis that gives each of them all of
    # RP(2143) has the right union, but not a disjoint one
    w, rp = (2, 1, 4, 3), pipedream.rp_bruteforce((2, 1, 4, 3))
    pipedream._rp.cache_clear()
    assert len(pipedream.rp_mitosis((2, 4, 1, 3))) == 2
    monkeypatch.setattr(pipedream, "mitosis", lambda i, d: rp)
    with pytest.raises(InvariantError, match="overlap at row 2"):
        pipedream.rp_mitosis(w)
    code = cli.main(["rp", "2143"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # the failure is not memoised
    monkeypatch.undo()
    assert pipedream.rp_mitosis(w) == rp


# input the library refuses, with the exact error of each refusal
NONSTANDARD_21 = ExponentArray.from_rows([[1, 0], [0, 0]])  # z11 generates J_21
BAD_INPUT = {
    "transposition-past-n": (
        lambda: perm.apply_right_transposition((1, 2, 3), 3),
        "reflection index 3 out of range for n=3",
    ),
    "embed-into-smaller": (lambda: perm.embed((1, 2, 3), 2), "cannot embed S_3 into S_2"),
    "cross-outside-grid": (
        lambda: pipedream.PipeDream(2, frozenset([(3, 1)])),
        "cross (3, 1) outside the 2x2 grid",
    ),
    "minor-unequal": (
        lambda: ideal.Minor((1, 2), (1,)),
        "a minor needs equal, nonempty row and column sets",
    ),
    "minor-empty": (
        lambda: ideal.Minor((), ()),
        "a minor needs equal, nonempty row and column sets",
    ),
    "order-for-another-n": (
        lambda: grobner.verify_theorem_b((2, 1, 3), grobner.antidiag_revlex_nw(4)),
        "term order built for a different grid size",
    ),
    "unknown-grading": (lambda: hilbert.exp_weight("zn3", (1, 1)), "unknown grading 'zn3'"),
    "decompose-void": (
        lambda: subword.vertex_decompose(
            subword.subword_complex((1,), (1, 3, 2), subword.symmetric_group(3))
        ),
        "cannot decompose the void complex",
    ),
    "ragged-row": (
        lambda: ExponentArray(2, ((0, 0), (0,))),
        "entries must form an n x n array",
    ),
    "promoter-of-nonstandard": (
        lambda: bruhatlab.promoter_size(1, (2, 1), NONSTANDARD_21),
        "z^b lies in J_w; the promoter is undefined",
    ),
    "intron-mutation-of-nonstandard": (
        lambda: bruhatlab.intron_mutation(1, (2, 1), NONSTANDARD_21),
        "z^b must be standard for J_w",
    ),
    "negative-power": (
        lambda: poly.LaurentPoly.variable(poly.xvar(1)) ** -1,
        "negative power of a polynomial",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_raises_value_error(case):
    call, message = BAD_INPUT[case]
    with pytest.raises(ValueError) as raised:
        call()
    assert (raised.type, str(raised.value)) == (ValueError, message)


def test_zero_polynomial_prints_as_0():
    assert poly.poly_str(poly.ZERO) == "0"


def test_run_all_reports_a_crashing_check_as_a_failure(monkeypatch):
    def crash():
        raise KeyError("cell")

    monkeypatch.setattr(checks, "part3_suites", crash)
    results = checks.run_all(1)
    assert ("part3-suites", False, "KeyError: 'cell'") in results
    assert results[-1] == ("stability", True, "S3 inside S5")
    assert sum(not ok for _, ok, _ in results) == 1


def test_run_all_lets_a_size_guard_error_through(monkeypatch):
    # the CLI exits 2 on it, as bad input, instead of printing a FAIL line
    def too_big():
        raise SizeGuardError("stability: n=9 exceeds cap 6")

    monkeypatch.setattr(checks, "part3_suites", lambda: (True, ""))
    monkeypatch.setattr(checks, "stability", too_big)
    with pytest.raises(SizeGuardError, match="^stability: n=9 exceeds cap 6$"):
        checks.run_all(1)
