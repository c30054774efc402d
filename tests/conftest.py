import random

import pytest

from etenon.algebra import get_suite
from etenon.tenon import load_stopwords

# Filled in by the acceptance tests; rendered once capture is released
# so the verdict lines survive any capture mode.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture
def mock():
    return get_suite("mock")


@pytest.fixture(scope="session")
def bn256():
    return get_suite("bn256")


@pytest.fixture
def final_exp_calls(monkeypatch):
    """One entry per call of the bn256 final exponentiation, counted
    through its module attribute as the pairing suite calls it."""
    from etenon import _bn256

    calls = []
    final_exp = _bn256.final_exp
    monkeypatch.setattr(_bn256, "final_exp", lambda f: calls.append(1) or final_exp(f))
    return calls


@pytest.fixture
def rng():
    return random.Random(0xE7E)


@pytest.fixture(scope="session")
def stopwords():
    return load_stopwords()
