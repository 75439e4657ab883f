import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schubert
from schubert import cli, grobner, hilbert, pipedream
from schubert.limits import InvariantError
from test_golden_cli import cases as golden_cases


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_schubert_verb(capsys):
    code, out, _ = run(capsys, "schubert", "2143")
    assert code == 0
    assert out.strip() == "x1^2 + x1*x2 + x1*x3"


def test_schubert_json_permutation_form(capsys):
    code, out, _ = run(capsys, "schubert", "[2,1,4,3]", "--json")
    assert code == 0
    data = json.loads(out)
    assert {"coeff": 1, "exps": {"x1": 2}} in data


def test_grothendieck_verb(capsys):
    code, out, _ = run(capsys, "grothendieck", "2143")
    assert code == 0
    assert out.strip() == "x1^2*x2*x3 - x1*x2*x3 - x1 + 1"


def test_rp_render(capsys):
    code, out, _ = run(capsys, "rp", "2143", "--render")
    assert code == 0
    blocks = [b for b in out.strip().split("\n\n") if b]
    assert len(blocks) == 3
    assert blocks[0].splitlines()[0] == "+ . + ."


def test_rp_methods_agree(capsys):
    _, out1, _ = run(capsys, "rp", "2143", "--json")
    _, out2, _ = run(capsys, "rp", "2143", "--method", "brute", "--json")
    assert json.loads(out1) == json.loads(out2)


def test_mitosis_verb(capsys):
    dream = json.dumps({"n": 4, "crosses": [[1, 1], [1, 2], [1, 3], [2, 1], [2, 2], [3, 1]]})
    code, out, _ = run(capsys, "mitosis", "--row", "3", "--dream", dream, "--json")
    assert code == 0
    offspring = json.loads(out)
    assert len(offspring) == 1


@pytest.mark.parametrize(
    "dream",
    [
        '{"n":4}',
        "[1]",
        '{"n":4,"crosses":[[1]]}',
        "{",
        # a JSON integer only: no float, bool or string, and n >= 0
        '{"n":2,"crosses":[[1.5,1]]}',
        '{"n":2.5,"crosses":[]}',
        '{"n":true,"crosses":[]}',
        '{"n":2,"crosses":[["1","1"]]}',
        '{"n":-3,"crosses":[]}',
    ],
)
def test_malformed_dream_is_usage_error(capsys, dream):
    code, out, err = run(capsys, "mitosis", "--row", "1", "--dream", dream)
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed pipe dream")
    assert "Traceback" not in err


def test_empty_dream_round_trips(capsys):
    code, out, _ = run(capsys, "rp", "[]", "--json")
    assert (code, out) == (0, '[{"n": 0, "crosses": []}]\n')
    (data,) = json.loads(out)
    assert pipedream.PipeDream.from_jsonable(data) == pipedream.PipeDream(0, frozenset())


@pytest.mark.parametrize("row", ["0", "9", "-1"])
def test_mitosis_row_out_of_range_is_usage_error(capsys, row):
    dream = '{"n":4,"crosses":[[1,1],[1,2],[2,1]]}'
    code, out, err = run(capsys, "mitosis", "--row", row, "--dream", dream)
    assert (code, out) == (2, "")
    assert err.startswith("error: --row")
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["schubert", "grothendieck"])
def test_double_family_past_size_guard_exits_2(capsys, verb):
    code, out, err = run(capsys, verb, "21436587", "--double")
    assert (code, out) == (2, "")
    assert err.startswith("error: double_")
    assert "Traceback" not in err


def test_ideal_verb(capsys):
    code, out, _ = run(capsys, "ideal", "2143", "--json")
    assert code == 0
    data = json.loads(out)
    assert {"rows": [1], "cols": [1]} in data["minors"]
    assert [[1, 1]] in data["antidiagonal_ideal"]


def test_gb_verify_single(capsys):
    code, out, _ = run(capsys, "gb-verify", "2143")
    assert code == 0
    assert out.count("PASS") == 1
    code, out, _ = run(capsys, "gb-verify", "2143", "--order", "antidiag-lex")
    assert code == 0
    assert out.count("PASS") == 1


def test_gb_verify_all_s4(capsys):
    code, out, _ = run(capsys, "gb-verify", "--all-s4")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 24
    assert all(l.startswith("PASS") for l in lines)


def test_gb_verify_permutation_and_all_s4_is_usage_error(capsys):
    code, out, err = run(capsys, "gb-verify", "21", "--all-s4")
    assert (code, out) == (2, "")
    assert err.startswith("error: gb-verify needs exactly one")
    code, out, err = run(capsys, "gb-verify")
    assert (code, out) == (2, "")
    assert err.startswith("error: gb-verify needs exactly one")


def test_coefficient_blowup_exits_1(capsys, monkeypatch):
    def blowup(*args, **kwargs):
        raise grobner.CoefficientBlowup("coefficient bound 10 exceeded")

    monkeypatch.setattr(grobner, "verify_theorem_b", blowup)
    code, out, err = run(capsys, "gb-verify", "2143")
    assert (code, out) == (1, "")
    assert err == "error: coefficient bound 10 exceeded\n"


def test_gb_verify_diag_order_is_usage_error(capsys):
    # the verification statement presumes an antidiagonal order
    code, _, err = run(capsys, "gb-verify", "2143", "--order", "diag")
    assert code == 2
    assert "antidiagonal" in err


def test_kpoly_verb(capsys):
    code, out, _ = run(capsys, "kpoly", "2143")
    assert code == 0
    assert out.strip() == "x1^2*x2*x3 - x1*x2*x3 - x1 + 1"


def test_multidegree_verb(capsys):
    code, out, _ = run(capsys, "multidegree", "2143", "--grading", "zn")
    assert code == 0
    assert out.strip() == "x1^2 + x1*x2 + x1*x3"


KPOLY_2143 = {
    "zn2": "z11*z13*z22*z31 - z13*z22*z31 - z11 + 1",
    "z2n": "1 + x1^2*x2*x3*y1^-2*y2^-1*y3^-1 - x1*x2*x3*y1^-1*y2^-1*y3^-1 - x1*y1^-1",
    "zn": "x1^2*x2*x3 - x1*x2*x3 - x1 + 1",
    "z": "t^4 - t^3 - t + 1",
}

MULTIDEGREE_2143 = {
    "zn2": "z11*z13 + z11*z22 + z11*z31",
    "z2n": "x1^2 + x1*x2 + x1*x3 - 2*x1*y1 - x1*y2 - x1*y3 - x2*y1 - x3*y1"
    " + y1^2 + y1*y2 + y1*y3",
    "zn": "x1^2 + x1*x2 + x1*x3",
    "z": "3*t^2",
}


@pytest.mark.parametrize("grading", sorted(KPOLY_2143))
def test_kpoly_and_multidegree_2143_every_grading(capsys, grading):
    code, out, _ = run(capsys, "kpoly", "2143", "--grading", grading)
    assert code == 0
    assert out == KPOLY_2143[grading] + "\n"
    code, out, _ = run(capsys, "multidegree", "2143", "--grading", grading)
    assert code == 0
    assert out == MULTIDEGREE_2143[grading] + "\n"


def test_subword_verb(capsys):
    code, out, _ = run(capsys, "subword", "--word", "3,2,3,2,3", "--perm", "1432", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["facets"]) == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]


def test_subword_decompose(capsys):
    code, out, _ = run(
        capsys, "subword", "--word", "3,2,3,2,3", "--perm", "1432", "--decompose", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["is_shelling"] is True
    assert len(data["shelling"]) == 5


def test_malformed_permutation_is_usage_error(capsys):
    code, _, err = run(capsys, "schubert", "21x3")
    assert code == 2
    assert "malformed permutation" in err
    for bad in ("2140", "[2,1", '[1,"a"]'):
        code, _, err = run(capsys, "schubert", bad)
        assert code == 2
        assert err.startswith("error: malformed permutation")


def test_unknown_verb_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_size_guard_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("SCHUBERT_MAX_N", raising=False)
    code, _, err = run(capsys, "rp", "[1,2,3,4,5,6,7,8]", "--method", "brute")
    assert code == 2
    assert "exceeds cap" in err


def test_rp_mitosis_past_size_guard_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("SCHUBERT_MAX_N", raising=False)
    code, out, err = run(capsys, "rp", "123456789", "--method", "mitosis")
    assert (code, out) == (2, "")
    assert err == "error: rp_mitosis: n=9 exceeds cap 8 (set SCHUBERT_MAX_N to override)\n"


def test_grothendieck_past_size_guard_exits_2(capsys, monkeypatch):
    # unguarded, the family from w0 took 3.8 s at n = 9 and 52 s at n = 10
    monkeypatch.delenv("SCHUBERT_MAX_N", raising=False)
    code, out, err = run(capsys, "grothendieck", "123456789")
    assert (code, out) == (2, "")
    assert err == "error: grothendieck: n=9 exceeds cap 8 (set SCHUBERT_MAX_N to override)\n"


@pytest.mark.parametrize("n", [12, 50])
def test_schubert_past_size_guard_exits_2(capsys, monkeypatch, n):
    # unguarded, seeded random w took 3.3 s at n = 12 and 33 s at n = 13, and
    # the identity of S50 overran the recursion limit
    w = "[" + ",".join(map(str, range(1, n + 1))) + "]"
    monkeypatch.delenv("SCHUBERT_MAX_N", raising=False)
    code, out, err = run(capsys, "schubert", w)
    assert (code, out) == (2, "")
    assert err == f"error: schubert: n={n} exceeds cap 11 (set SCHUBERT_MAX_N to override)\n"


def test_subword_rank_past_size_guard_exits_2(capsys, monkeypatch):
    # the rank is the largest letter + 1; unguarded, this word built a
    # 10^8-entry identity permutation
    monkeypatch.delenv("SCHUBERT_MAX_N", raising=False)
    code, out, err = run(capsys, "subword", "--word", "99999999", "--perm", "1")
    assert (code, out) == (2, "")
    assert err == "error: subword: n=100000000 exceeds cap 10 (set SCHUBERT_MAX_N to override)\n"


@pytest.mark.parametrize("value", ["abc", "", "4.5"])
def test_malformed_max_n_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("SCHUBERT_MAX_N", value)
    code, out, err = run(capsys, "rp", "2143")
    assert (code, out) == (2, "")
    assert err == f"error: SCHUBERT_MAX_N={value!r} is not an integer\n"


def test_check_all_past_size_guard_exits_2(capsys, monkeypatch):
    # the sweep is capped before any check runs: at n = 7 every per-call cap
    # passed, and criteria 3 and 5 took about 1.8 s of brute-force RP(w) per w
    monkeypatch.delenv("SCHUBERT_MAX_N", raising=False)
    for n in (7, 8):
        code, out, err = run(capsys, "check-all", "--n", str(n))
        assert (code, out) == (2, "")
        assert err == f"error: check-all: n={n} exceeds cap 6 (set SCHUBERT_MAX_N to override)\n"


def test_check_all_deterministic(capsys):
    code, out1, _ = run(capsys, "check-all", "--n", "3")
    assert code == 0
    lines = [l for l in out1.splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    assert any("bjs-identity" in l for l in lines)
    assert list(golden_cases("check-all")) == [["3", hashlib.sha256(out1.encode()).hexdigest()]]
    # again in a fresh process, with its own hash seed and with asserts
    # stripped: no check may depend on either
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    src = str(Path(schubert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    fresh = subprocess.run(
        [sys.executable, "-O", "-m", "schubert.cli", "check-all", "--n", "3"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert fresh.stdout == out1


@pytest.mark.parametrize("n", ["0", "-2"])
def test_check_all_n_below_1_is_usage_error(capsys, n):
    code, out, err = run(capsys, "check-all", "--n", n)
    assert (code, out) == (2, "")
    assert err == f"error: --n {n} is not a positive integer\n"


@pytest.mark.parametrize("word", ["a,b", "3,x", "3,0,3", "3,-1", "2.5"])
def test_malformed_word_is_usage_error(capsys, word):
    code, out, err = run(capsys, "subword", "--word", word, "--perm", "1432")
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed word")
    assert "Traceback" not in err


def test_multidegree_past_size_guard_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("SCHUBERT_MAX_N", raising=False)
    code, out, err = run(capsys, "multidegree", "2143657")
    assert (code, out) == (2, "")
    assert err.startswith("error: multidegree_of_ideal: n=7 exceeds cap 6")


@pytest.mark.parametrize(
    "exc, line",
    [
        (ValueError("library defect"), "error: ValueError: library defect\n"),
        (KeyError("cell"), "error: KeyError: 'cell'\n"),
        (InvariantError("J_w lost its codimension"), "error: J_w lost its codimension\n"),
    ],
    ids=["ValueError", "KeyError", "InvariantError"],
)
def test_library_errors_exit_1(capsys, monkeypatch, exc, line):
    # an error raised inside the library is a defect, not bad input
    def broken(*args):
        raise exc

    monkeypatch.setattr(hilbert, "multidegree_of_ideal", broken)
    code, out, err = run(capsys, "multidegree", "2143")
    assert (code, out, err) == (1, "", line)
