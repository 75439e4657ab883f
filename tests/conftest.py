import pytest
from hypothesis import settings

# every @given test draws the same examples on every run and keeps no
# example database; a test's own settings add only its example count and
# the health checks it suppresses
settings.register_profile("schubert", derandomize=True, deadline=None, database=None)
settings.load_profile("schubert")


@pytest.fixture(autouse=True)
def _no_cap_override(monkeypatch):
    # every test starts at the table's caps, whatever SCHUBERT_MAX_N the
    # caller exported; a test that needs a value sets it itself
    monkeypatch.delenv("SCHUBERT_MAX_N", raising=False)


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the slow sweeps (Groebner verification of all of S6 and the 165-minor "
        "instance, Theorem A on all of S6, tau_involution(4, 1) on all of S4)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
