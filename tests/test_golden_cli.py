"""CLI output pinned byte for byte by sha256 digests: the kpoly and multidegree
verbs print the same bytes as the zn2-then-coarsen code did (all of S4 in the
four gradings, all of S5 in zn2 and z2n); rp and ideal --json over S1-S5, the
two subword decompositions and check-all --n 3 print what they printed before
the second copies of the grid, the facet complement, the mutation chain and
the tree walk left the package; the schubert and grothendieck verbs print what
they printed before the family tops became staircase folds; the text forms
of rp, ideal and subword and check-all --n 3 --json print what they printed
before the BJS and additive sums became one call of multidegree_additive."""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from schubert import cli

DIGESTS = Path(__file__).with_name("golden_cli_digests.txt")


def cases(verb):
    for line in DIGESTS.read_text().splitlines():
        if line and not line.startswith("#"):
            fields = line.split()
            if fields[0] == verb:
                yield fields[1:]


def digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("verb", ["kpoly", "multidegree"])
def test_cli_output_matches_golden_digests(verb):
    checked, differ = 0, []
    for grading, w, expected in cases(verb):
        if digest([verb, w, "--grading", grading, "--json"]) != expected:
            differ.append((grading, w))
        checked += 1
    assert checked == 24 * 4 + 120 * 2
    assert differ == []


@pytest.mark.parametrize("verb", ["rp", "ideal"])
def test_json_over_s1_to_s5_matches_golden_digests(verb):
    checked, differ = 0, []
    for w, expected in cases(verb):
        if digest([verb, w, "--json"]) != expected:
            differ.append(w)
        checked += 1
    assert checked == 1 + 2 + 6 + 24 + 120
    assert differ == []


def test_subword_decompositions_match_golden_digests():
    checked = list(cases("subword"))
    assert [(word, p) for word, p, _ in checked] == [
        ("3,2,3,2,3", "1432"),
        ("4,3,2,1,5,4,3,2,6,5,4,3,7,6,5,4", "2143"),
    ]
    for word, p, expected in checked:
        assert digest(["subword", "--word", word, "--perm", p, "--decompose", "--json"]) == expected


@pytest.mark.parametrize("verb", ["schubert", "grothendieck"])
def test_family_verbs_match_golden_digests(verb):
    checked, differ = 0, []
    for kind, w, expected in cases(verb):
        if digest([verb, w, "--json"] + (["--double"] if kind == "double" else [])) != expected:
            differ.append((kind, w))
        checked += 1
    assert checked == 2 * (1 + 2 + 6 + 24) + 120
    assert differ == []


@pytest.mark.parametrize("verb", ["rp", "ideal"])
def test_text_over_s1_to_s4_matches_golden_digests(verb):
    checked, differ = 0, []
    for w, expected in cases(f"{verb}-text"):
        if digest([verb, w]) != expected:
            differ.append(w)
        checked += 1
    assert checked == 1 + 2 + 6 + 24
    assert differ == []


def test_subword_text_matches_golden_digests():
    checked = list(cases("subword-text"))
    assert len(checked) == 6
    for word, p, kind, expected in checked:
        flags = ["--decompose"] if kind == "decompose" else []
        assert digest(["subword", "--word", word, "--perm", p] + flags) == expected, (word, kind)


def test_check_all_json_matches_golden_digest():
    [(n, expected)] = cases("check-all-json")
    assert n == "3"
    assert digest(["check-all", "--n", n, "--json"]) == expected
