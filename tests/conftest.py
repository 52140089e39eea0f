import pytest

from sgp.core import NumericalSemigroup, enumerate_genus_range


@pytest.fixture(scope="session")
def by_genus():
    """Memoized exhaustive enumeration, shared across the suite."""
    cache: dict[int, list] = {}

    def get(g: int) -> list:
        if g not in cache:
            cache[g] = list(enumerate_genus_range(g, g))
        return cache[g]

    return get


@pytest.fixture
def gap_reads(monkeypatch):
    """The semigroups whose gap tuple is read from here on, one entry a read."""
    reads = []
    decode = NumericalSemigroup.gaps.fget

    def counted(H):
        reads.append(H)
        return decode(H)

    monkeypatch.setattr(NumericalSemigroup, "gaps", property(counted))
    return reads
