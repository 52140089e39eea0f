"""Type-(N, gamma) verdicts, forced-structure checks, symmetry, projection."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgp.classify
from sgp.classify import (TypeVerdict, arithmetic_cover_criterion,
                          exclusive_types, is_prime, is_type_by_genus,
                          is_type_by_tail, leading_gcd, natural_gamma_fit,
                          project_by_n, symmetry_profile, tail_structure,
                          type_test, type_verdict)
from sgp.core import NumericalSemigroup, from_gaps, from_generators, natural_gamma
from sgp.errors import ClaimFailed, GenusZero, NotPrime, PreconditionViolated

BUCHWEITZ_GAPS = tuple(range(1, 13)) + (19, 21, 24, 25)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_type_verdict_examples():
    assert type_verdict(from_generators([2, 11]), 2, 0).is_type
    v = type_verdict(from_generators([4, 6, 17]), 2, 1)
    assert (v.cond_a, v.cond_b, v.cond_c, v.is_type) == (True, True, True, True)
    v = type_verdict(from_generators([4, 7]), 2, 1)
    assert not v.is_type
    assert not v.cond_c  # 6 is not an element
    assert v.cond_a and v.cond_b


def test_type_verdict_consistency(by_genus):
    # a positive verdict forces the gamma-th element and the gap count
    for g in range(11):
        for H in by_genus(g):
            for n in (2, 3, 5):
                for gamma in range(4):
                    v = type_verdict(H, n, gamma)
                    if v.is_type:
                        assert H.element_at(gamma) == 2 * n * gamma
                        assert natural_gamma(H, n) == gamma


def conditions_by_definition(H, N, gamma):
    """The literal definition, one membership test per multiple of N."""
    multiples = sum(1 for k in range(1, 2 * gamma + 1) if k * N in H)
    return (multiples == gamma, H.element_at(gamma) == 2 * N * gamma,
            (2 * gamma + 1) * N in H)


def verdict_by_definition(H, N, gamma):
    cond_a, cond_b, cond_c = conditions_by_definition(H, N, gamma)
    return TypeVerdict(N, gamma, cond_a, cond_b, cond_c,
                       cond_a and cond_b and cond_c, natural_gamma(H, N))


def test_type_conditions_match_definition_exhaustive(by_genus):
    # gamma runs past the genus, so (b) and (c) are also read above the
    # conductor; each condition is compared on its own
    tests = {(N, gamma): type_test(N, gamma)
             for N in range(1, 13) for gamma in range(9)}
    matched = 0
    for g in range(14):
        for H in by_genus(g):
            gamma_n = {N: natural_gamma(H, N) for N in range(1, 13)}
            for (N, gamma), is_type in tests.items():
                want = conditions_by_definition(H, N, gamma)
                v = type_verdict(H, N, gamma)
                assert (v.cond_a, v.cond_b, v.cond_c) == want, (H.gaps, N, gamma)
                assert v.is_type == is_type(H) == all(want), (H.gaps, N, gamma)
                assert (v.N, v.gamma, v.gamma_n) == (N, gamma, gamma_n[N])
                matched += v.is_type
    assert matched > 0


@st.composite
def type_cases(draw):
    gens = draw(st.lists(st.integers(2, 60), min_size=1, max_size=4))
    if math.gcd(*gens) != 1:
        gens.append(draw(st.sampled_from(gens)) + 1)
    H = from_generators(gens)
    N = draw(st.integers(1, 12))
    # (2*gamma + 1) * N within a few multiples of N of the conductor
    gamma = max(0, (H.conductor // N - 1) // 2 + draw(st.integers(-2, 2)))
    return H, N, gamma


@given(type_cases())
@settings(max_examples=200, deadline=None)
def test_type_conditions_match_definition_generated(case):
    H, N, gamma = case
    want = verdict_by_definition(H, N, gamma)
    assert type_verdict(H, N, gamma) == want
    assert type_test(N, gamma)(H) == want.is_type


def test_type_test_widens_its_mask():
    # elements 0, 42, 44, ..., 80 and everything from 81 on: type (2, 20),
    # conductor 80, past the initial 64-bit mask; without 80 (b) fails
    H = from_generators([*range(42, 81, 2), *range(81, 123)])
    near = from_generators([*range(42, 80, 2), *range(81, 123)])
    small = from_generators([2, 41])
    is_type = type_test(2, 20)
    assert [is_type(K) for K in (small, H, near, small)] == [False, True, False, False]
    for K in (small, H, near):
        assert is_type(K) == verdict_by_definition(K, 2, 20).is_type
    with pytest.raises(ValueError):
        type_test(0, 1)
    with pytest.raises(ValueError):
        type_test(2, -1)


def test_tail_structure():
    assert tail_structure(from_generators([4, 6, 17]), 2, 1)
    assert tail_structure(from_generators([1]), 3, 0)
    assert tail_structure(from_generators([2, 5]), 2, 0)
    with pytest.raises(PreconditionViolated):
        tail_structure(from_generators([4, 7]), 2, 1)  # cond_c fails


def test_natural_gamma_fit_examples():
    assert natural_gamma_fit(from_generators([4, 7]), 2) == (3, True, True, True)
    assert natural_gamma_fit(from_generators([2, 3]), 5) == (0, True, True, True)
    assert natural_gamma_fit(from_generators([3, 5]), 3) == (0, True, True, True)


def test_exclusive_types():
    assert exclusive_types(2, 1, 2, 1) is True
    assert exclusive_types(100, 0, 1, 1) is False
    with pytest.raises(ValueError):
        exclusive_types(2, 1, 2, 0)


def test_exclusive_types_exhaustive(by_genus):
    for g in range(13):
        for H in by_genus(g):
            for n in (2, 3, 5):
                for gamma in range(3):
                    if not type_verdict(H, n, gamma).is_type:
                        continue
                    for m in (2, 3, 5):
                        for r in (1, 2, 3):
                            if exclusive_types(n, gamma, m, r):
                                assert not type_verdict(H, m, gamma + r).is_type


def test_is_type_by_tail():
    assert is_type_by_tail(from_generators([4, 6, 17]), 2) is True
    assert is_type_by_tail(from_generators([4, 7]), 2) is False
    assert is_type_by_tail(from_generators([1]), 3) is True


def test_is_type_by_genus():
    assert is_type_by_genus(from_generators([2, 21]), 2) is True
    assert is_type_by_genus(from_generators([4, 6, 17]), 2) is True
    assert is_type_by_genus(from_generators([4, 7]), 2) is False
    with pytest.raises(NotPrime):
        is_type_by_genus(from_generators([4, 7]), 4)


def test_is_type_by_genus_exhaustive(by_genus):
    # the implication check inside the call must never raise ClaimFailed
    for g in range(10):
        for H in by_genus(g):
            for n in (2, 3, 5, 7):
                is_type_by_tail(H, n)
                is_type_by_genus(H, n)


def test_leading_gcd():
    H = from_generators([4, 6, 17])
    assert leading_gcd(H, 2, 3) == 2
    assert leading_gcd(H, 2, 4) == 2
    assert leading_gcd(from_generators([2, 9]), 2, 2) == 2
    with pytest.raises(PreconditionViolated):
        leading_gcd(from_generators([4, 7]), 2, 3)  # not of type (2, gamma_2)
    with pytest.raises(PreconditionViolated):
        leading_gcd(H, 2, 20)  # genus too small for this A


def test_symmetry_profile_examples():
    p = symmetry_profile(from_generators([2, 5]))
    assert (p.kind, p.i, p.exceptional_gaps, p.irregular) == ("symmetric", 1, (), False)
    p = symmetry_profile(from_gaps(BUCHWEITZ_GAPS))
    assert (p.kind, p.i, p.exceptional_gaps) == ("general", 4, (24, 21, 19))
    assert not p.irregular
    p = symmetry_profile(from_generators([3, 4, 5]))
    assert (p.kind, p.i, p.exceptional_gaps) == ("quasi_symmetric", 1, (1,))
    with pytest.raises(GenusZero):
        symmetry_profile(from_generators([1]))


def test_symmetry_profile_excludes_paired_window_gaps():
    # 4 is a window gap but its mirror 7 - 4 = 3 is an element, so only 5
    # (mirror 2, a gap) breaks the pairing
    p = symmetry_profile(from_gaps([1, 2, 4, 5, 7]))
    assert p.i == 2 and p.exceptional_gaps == (5,) and not p.irregular
    # window gaps {9, 10, 11, 13}: the mirror of 9 is the element 8
    p = symmetry_profile(from_gaps([1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 17]))
    assert p.i == 4 and p.exceptional_gaps == (13, 11, 10) and not p.irregular


def test_symmetry_kinds_exhaustive(by_genus):
    for g in range(1, 13):
        for H in by_genus(g):
            p = symmetry_profile(H)  # symmetric case re-verifies the pairing
            # closure forces exactly i-1 broken pairs, so never irregular
            assert not p.irregular
            if H.frobenius == 2 * g - 1:
                assert p.kind == "symmetric" and p.i == 1 and p.exceptional_gaps == ()
            elif H.frobenius == 2 * g - 2:
                assert p.kind == "quasi_symmetric" and p.i == 1
                assert p.exceptional_gaps == (g - 1,)
            else:
                assert p.kind == "general" and p.i > 1


def test_arithmetic_cover_criterion():
    assert arithmetic_cover_criterion(from_generators([4, 6, 17]), 2, 1) is True
    assert arithmetic_cover_criterion(from_generators([2, 21]), 2, 0) is True
    assert arithmetic_cover_criterion(from_generators([3, 17]), 2, 1) is False
    with pytest.raises(PreconditionViolated):
        arithmetic_cover_criterion(from_generators([4, 7]), 2, 1)  # genus 9 = rho3


def test_project_by_n():
    assert project_by_n(from_generators([4, 6, 17]), 2, 1) == from_generators([2, 3])
    assert project_by_n(from_generators([2, 21]), 2, 0) == from_generators([1])
    with pytest.raises(PreconditionViolated):
        project_by_n(from_generators([4, 7]), 2, 1)


def test_project_preserves_genus(by_genus):
    for g in range(10):
        for H in by_genus(g):
            for n in (2, 3):
                gamma = natural_gamma(H, n)
                if type_verdict(H, n, gamma).is_type:
                    assert project_by_n(H, n, gamma).genus == gamma


# The theorem checks raise ClaimFailed rather than assert, so that they
# still run under python -O; each test below forces one of them to fail.

def _type_verdict_says(monkeypatch, is_type):
    def verdict(H, N, gamma):
        return TypeVerdict(N, gamma, is_type, is_type, is_type, is_type, gamma)
    monkeypatch.setattr(sgp.classify, "type_verdict", verdict)


def test_is_type_by_tail_claim_failed(monkeypatch):
    _type_verdict_says(monkeypatch, False)
    with pytest.raises(ClaimFailed, match="is_type_by_tail"):
        is_type_by_tail(from_generators([4, 6, 17]), 2)


def test_is_type_by_genus_claim_failed(monkeypatch):
    _type_verdict_says(monkeypatch, False)
    with pytest.raises(ClaimFailed, match="is_type_by_genus"):
        is_type_by_genus(from_generators([4, 6, 17]), 2)


def test_leading_gcd_claim_failed(monkeypatch):
    # <3, 4, 5> passes the faked preconditions, but its first element is 3
    _type_verdict_says(monkeypatch, True)
    monkeypatch.setattr(sgp.classify, "rho1", lambda A, N, gamma: -1)
    with pytest.raises(ClaimFailed, match="leading_gcd: expected 2, got 3"):
        leading_gcd(from_generators([3, 4, 5]), 2, 2)


def test_symmetry_profile_pairing_claim_failed(monkeypatch):
    monkeypatch.setattr(NumericalSemigroup, "_check_closure", lambda self, bits: None)
    H = NumericalSemigroup((2, 3, 5))  # last gap 2g - 1, yet 1 and 4 are in H
    with pytest.raises(ClaimFailed, match="1 and 4 are both elements"):
        symmetry_profile(H)


def test_symmetry_profile_half_gap_claim_failed(monkeypatch):
    monkeypatch.setattr(NumericalSemigroup, "_check_closure", lambda self, bits: None)
    H = NumericalSemigroup((1, 3, 4))  # last gap 4, yet 2 is in H
    with pytest.raises(ClaimFailed, match="half the last gap, 2"):
        symmetry_profile(H)


def test_project_by_n_claim_failed(monkeypatch):
    # m_1 = 8 and m_2 = 10 project to 4 and 5, which leaves genus 3, not 2
    _type_verdict_says(monkeypatch, True)
    with pytest.raises(ClaimFailed, match="expected genus 2, got 3"):
        project_by_n(from_generators([8, 10, 11, 13]), 2, 2)
