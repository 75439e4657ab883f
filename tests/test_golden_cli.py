"""The kpoly and multidegree verbs print the same bytes as the zn2-then-coarsen
code did: all of S4 in the four gradings and all of S5 in zn2 and z2n."""

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


@pytest.mark.parametrize("verb", ["kpoly", "multidegree"])
def test_cli_output_matches_golden_digests(verb):
    checked, differ = 0, []
    for grading, w, digest in cases(verb):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([verb, w, "--grading", grading, "--json"]) == 0
        if hashlib.sha256(out.getvalue().encode()).hexdigest() != digest:
            differ.append((grading, w))
        checked += 1
    assert checked == 24 * 4 + 120 * 2
    assert differ == []
