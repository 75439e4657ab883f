import ast
from pathlib import Path

import pytest

import schubert
from schubert import cli, pipedream, subword
from schubert.limits import InvariantError

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
