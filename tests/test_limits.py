"""The size-cap table: every cap trips at its entry point, SCHUBERT_MAX_N and a
per-call cap only raise it, every guard names a table entry, and README's
table is the table."""

import ast
import pathlib
import re

import pytest

import schubert
from schubert import (
    bruhatlab, checks, cli, grobner, hilbert, ideal, limits, perm, pipedream, poly, subword,
)
from schubert.limits import CAPS, SizeGuardError

SRC = pathlib.Path(schubert.__file__).parent
README = pathlib.Path(__file__).parent.parent / "README.md"
FAMILIES = ("schubert", "double_schubert", "grothendieck", "double_grothendieck")


def empty_ideal(n):
    return ideal.SquarefreeMonomialIdeal(n, frozenset())


def run_verb(*argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


# operation -> a call of its entry point on an input of size n that trips the
# guard before any work
ENTRIES = {
    **{name: lambda n, f=getattr(poly, name): f(perm.identity(n)) for name in FAMILIES},
    "schubert_generators": lambda n: ideal.schubert_generators(perm.identity(n)),
    "stanley_reisner_facets": lambda n: ideal.stanley_reisner_facets(empty_ideal(n)),
    "k_polynomial": lambda n: hilbert.k_polynomial(empty_ideal(n)),
    "multidegree_of_ideal": lambda n: hilbert.multidegree_of_ideal(empty_ideal(n)),
    "theorem_a_check": lambda n: hilbert.theorem_a_check(perm.identity(n)),
    "rp_mitosis": lambda n: pipedream.rp_mitosis(perm.identity(n)),
    "rp_bruteforce": lambda n: pipedream.rp_bruteforce(perm.identity(n)),
    "verify_theorem_b": lambda n: grobner.verify_theorem_b(
        perm.identity(n), grobner.antidiag_revlex_nw(n)
    ),
    "standard_arrays": lambda n: bruhatlab.standard_arrays(perm.identity(n), 1),
    "mitosis_facet_bridge": lambda n: bruhatlab.mitosis_facet_bridge(perm.identity(n), 1),
    "check-all": lambda n: checks.run_all(n),
    # the rank is the largest letter + 1
    "subword": lambda n: run_verb("subword", "--word", str(n - 1), "--perm", "1"),
    "subword word": lambda n: subword.subword_complex(
        (1,) * n, perm.identity(2), subword.symmetric_group(2)
    ),
    "mitosis": lambda n: run_verb(
        "mitosis", "--row", "1", "--dream", f'{{"n":{n},"crosses":[]}}'
    ),
}


@pytest.mark.parametrize("operation", sorted(CAPS))
def test_every_cap_trips_at_its_entry(operation):
    cap = CAPS[operation]
    limits.size_guard(cap, operation)
    expected = f"{operation}: n={cap + 1} exceeds cap {cap} (set SCHUBERT_MAX_N to override)"
    with pytest.raises(SizeGuardError) as info:
        ENTRIES[operation](cap + 1)
    assert str(info.value) == expected


def test_theorem_a_cap_is_within_the_family_caps():
    # theorem_a_check reads the family memos without their guards
    assert all(CAPS["theorem_a_check"] <= CAPS[name] for name in FAMILIES)


@pytest.mark.parametrize("value, cap", [("7", 7), ("+7", 7), ("007", 7), ("-1", 4)])
def test_max_n_takes_a_sign_and_ascii_digits(monkeypatch, value, cap):
    # standard_arrays has cap 4, so -1 leaves it there
    monkeypatch.setenv(limits.ENV_VAR, value)
    limits.size_guard(cap, "standard_arrays")
    with pytest.raises(SizeGuardError, match=f"exceeds cap {cap} "):
        limits.size_guard(cap + 1, "standard_arrays")


@pytest.mark.parametrize("operation", sorted(CAPS))
def test_cap_is_the_largest_of_table_call_and_max_n(monkeypatch, operation):
    # a per-call cap and SCHUBERT_MAX_N each raise the table's cap, and lower none
    table = CAPS[operation]
    for call in (None, table - 2, table + 2):
        for env in (None, table - 1, table + 1, table + 4):
            if env is None:
                monkeypatch.delenv(limits.ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(limits.ENV_VAR, str(env))
            cap = max(c for c in (table, call, env) if c is not None)
            limits.size_guard(cap, operation, call)
            with pytest.raises(SizeGuardError) as info:
                limits.size_guard(cap + 1, operation, call)
            assert str(info.value) == (
                f"{operation}: n={cap + 1} exceeds cap {cap} (set SCHUBERT_MAX_N to override)"
            )


# -- the table is the only source ---------------------------------------------------


def guard_calls():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "size_guard":
                    yield path.name, node


def test_every_guard_names_a_table_entry():
    used = set()
    for where, call in guard_calls():
        assert len(call.args) >= 2, where
        operation = call.args[1]
        assert isinstance(operation, ast.Constant), (where, call.lineno)
        assert operation.value in CAPS, (where, call.lineno, operation.value)
        used.add(operation.value)
        for arg in [*call.args, *(k.value for k in call.keywords)]:
            literal = isinstance(arg, ast.Constant) and isinstance(arg.value, int)
            assert not literal, (where, call.lineno, "integer literal")
    assert used == set(CAPS)


def readme_caps() -> dict:
    rows = re.findall(r"^\| `([^`]+)` \| (\d+) \|", README.read_text(), re.MULTILINE)
    assert len(rows) == len(set(op for op, _ in rows)), "an operation listed twice"
    return {op: int(cap) for op, cap in rows}


def test_readme_table_is_the_table():
    assert readme_caps() == CAPS
