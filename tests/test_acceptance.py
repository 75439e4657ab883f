"""Acceptance gate: every criterion at its stated size, exact arithmetic.

Each test prints one PASS line (visible with -s or in the captured output);
the suite is the authoritative exit criterion for the build.
"""

import pytest

from schubert import checks


def report(name, result):
    ok, detail = result
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_schubert_table_s3():
    report("criterion-01 schubert-table-s3", checks.schubert_table_s3())


def test_criterion_02_intro_fixture():
    report("criterion-02 intro-fixture-2143", checks.intro_fixture())


def test_criterion_03_bjs_identity_s5():
    report("criterion-03 bjs-identity-s5-double-s4", checks.bjs_identity(5, 4))


def test_criterion_04_theorem_b_s4():
    report("criterion-04 theorem-b-s4", checks.theorem_b(4))


@pytest.mark.slow
def test_criterion_04_theorem_b_slow():
    report("criterion-04-slow theorem-b-s6-and-13865742", checks.theorem_b_slow())


def test_criterion_05_prime_decomposition_s5():
    report("criterion-05 prime-decomposition-s5", checks.prime_decomposition(5))


def test_criterion_06_theorem_a_s5():
    report("criterion-06 theorem-a-s5", checks.theorem_a(5))


def test_criterion_07_dd_identity_s4():
    report("criterion-07 dd-identity-s4", checks.dd_identity(4))


def test_criterion_08_subword_s4():
    report("criterion-08 subword-s4", checks.subword_checks(4))


def test_criterion_09_part3_suites():
    report("criterion-09 part3-suites", checks.part3_suites())


def test_criterion_10_stability():
    report("criterion-10 stability", checks.stability())
