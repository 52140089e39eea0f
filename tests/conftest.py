import pytest

from sgp.core import enumerate_genus_range


@pytest.fixture(scope="session")
def by_genus():
    """Memoized exhaustive enumeration, shared across the suite."""
    cache: dict[int, list] = {}

    def get(g: int) -> list:
        if g not in cache:
            cache[g] = list(enumerate_genus_range(g, g))
        return cache[g]

    return get
