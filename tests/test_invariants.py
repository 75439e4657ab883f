import ast
from pathlib import Path

import pytest

import schubert
from schubert import cli, subword
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
    monkeypatch.setattr(subword, "replay", lambda tree: frozenset())
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
