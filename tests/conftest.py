"""Shared fixtures: the full classification run and the seeded scan survey
are computed once per session because several test modules assert against
them."""

from __future__ import annotations

import pytest

from nodalcodes.classify import classify_quartic_codes
from nodalcodes.symmetroid import random_symmetroid_matrix, scan_nodes_fp

SCAN_PRIME = 101
SCAN_SEEDS = range(20)


def pytest_addoption(parser):
    parser.addoption("--slow", action="store_true", help="also run the tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: takes seconds to minutes; runs only with --slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def classification_tables():
    return {mu: classify_quartic_codes(mu) for mu in range(6, 17)}


@pytest.fixture(scope="session")
def audited_classification_tables():
    """The same run with ``audit=True``: dimension-excluded codes included."""
    return {mu: classify_quartic_codes(mu, audit=True) for mu in range(6, 17)}


@pytest.fixture(scope="session")
def scan_survey():
    """(seed, matrix, scan result) for twenty seeded symmetroid matrices."""
    survey = []
    for seed in SCAN_SEEDS:
        matrix = random_symmetroid_matrix(SCAN_PRIME, seed)
        survey.append((seed, matrix, scan_nodes_fp(matrix)))
    return survey
