"""Shared strategies, fixtures, and the acceptance summary hook."""

import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import oracles as orc

DATA_DIR = Path(__file__).parent / "data"

settings.register_profile(
    "f2aut",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=int(os.environ.get("F2AUT_HYP_EXAMPLES", "100")),
)
settings.load_profile("f2aut")

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}


@st.composite
def reduced_words(draw, min_size=0, max_size=12):
    """Uniformly shaped freely reduced words."""
    n = draw(st.integers(min_size, max_size))
    letters = []
    for _ in range(n):
        choices = [c for c in "abAB" if not letters or c != _INV[letters[-1]]]
        letters.append(draw(st.sampled_from(choices)))
    return "".join(letters)


@st.composite
def cyclic_reduced_words(draw, min_size=0, max_size=12):
    """Cyclically reduced words: freely reduced, last letter not inverse of first."""
    n = draw(st.integers(min_size, max_size))
    if n == 0:
        return ""
    if n == 1:
        return draw(st.sampled_from("abAB"))
    letters = [draw(st.sampled_from("abAB"))]
    for _ in range(n - 2):
        letters.append(
            draw(st.sampled_from([c for c in "abAB" if c != _INV[letters[-1]]]))
        )
    last = draw(
        st.sampled_from(
            [c for c in "abAB" if c != _INV[letters[-1]] and c != _INV[letters[0]]]
        )
    )
    return "".join(letters) + last


@st.composite
def run_heavy_words(draw):
    """Cyclic words with long runs: x^k u with k up to 300, or a power of a short word."""
    if draw(st.booleans()):
        x = draw(st.sampled_from("abAB"))
        w = x * draw(st.integers(1, 300)) + draw(reduced_words(max_size=12))
        return orc.o_cyclic_core(w)
    u = draw(cyclic_reduced_words(min_size=1, max_size=6))
    return u * draw(st.integers(1, 300 // len(u)))


def raw_words(max_size=16):
    """Arbitrary strings over the alphabet, not necessarily reduced."""
    return st.text(alphabet="abAB", max_size=max_size)


@pytest.fixture(scope="session")
def golden_classes():
    with open(DATA_DIR / "golden_classes.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def golden_type_counts():
    with open(DATA_DIR / "type_counts.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def golden_size_histograms():
    with open(DATA_DIR / "size_histograms.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def worker_count():
    return min(8, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def census14(worker_count):
    """(tables, records_by_length) over lengths 0..14; records kept for n <= 12."""
    from f2aut.enumeration import _record, census

    store = {}

    def keep(n, lines):
        if n <= 12:
            store[n] = [_record(line) for line in lines]

    tables = census(range(15), workers=worker_count, lines=keep)
    return tables, store


@pytest.fixture(scope="session")
def acceptance_log(request):
    log = []
    request.config._acceptance_log = log
    return log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    log = getattr(config, "_acceptance_log", None)
    if log:
        terminalreporter.section("acceptance criteria")
        for line in log:
            terminalreporter.write_line(line)
