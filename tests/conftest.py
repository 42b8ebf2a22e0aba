from __future__ import annotations

import pytest

from omcert import (
    alternating_chirotope,
    build_contradiction_certificate,
    build_search_instance,
    enumerate_survivors,
    pair_swap_chirotope,
    topes_of,
)


@pytest.fixture(scope="session")
def alt64():
    return topes_of(alternating_chirotope(6, 4))


@pytest.fixture(scope="session")
def swap6():
    return topes_of(pair_swap_chirotope(6))


@pytest.fixture(scope="session")
def alt84():
    return topes_of(alternating_chirotope(8, 4))


@pytest.fixture(scope="session")
def swap8():
    return topes_of(pair_swap_chirotope(8))


@pytest.fixture(scope="session")
def search_instance():
    return build_search_instance()


@pytest.fixture(scope="session")
def search_certificate(search_instance):
    return enumerate_survivors(search_instance)


@pytest.fixture(scope="session")
def contradiction_certificate(search_certificate):
    return build_contradiction_certificate(search_cert=search_certificate)
