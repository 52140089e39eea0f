"""Type-(N, gamma) verdicts, forced-structure checks, symmetry, projection."""

import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgp.bounds import rho1, rho3
from sgp.classify import (PRIME_CAP, TypeVerdict, arithmetic_cover_criterion,
                          exclusive_types, is_prime, is_type_by_genus,
                          is_type_by_tail, leading_gcd, project_by_n,
                          symmetry_profile, type_test, type_verdict)
from sgp.core import (NumericalSemigroup, _bit_positions, _exceptional_bits, descendants,
                      enumerate_genus_range, from_gaps, from_generators, natural_gamma)
from sgp.errors import CapExceeded, GenusZero, NotPrime, PreconditionViolated

BUCHWEITZ_GAPS = tuple(range(1, 13)) + (19, 21, 24, 25)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert all(is_prime(n) == _is_prime_by_trial_division(n) for n in range(-3, 10**5))
    # a Carmichael number, then the least strong pseudoprimes to the prime
    # bases 2 .. 7, 2 .. 23 (3.8 * 10^18) and 2 .. 37 (3.2 * 10^23)
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)
    assert not is_prime(PRIME_CAP - 1)
    for n in (PRIME_CAP, 10**25):
        with pytest.raises(CapExceeded, match="exceeds the primality cap"):
            is_prime(n)


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


def test_type_test_matches_verdict_exhaustive(by_genus):
    # the benchmark's pairs, and N = 1, where every element up to T counts
    pairs = [(2, 1), (5, 2), (7, 2), (11, 1)] + [(1, gamma) for gamma in range(17)]
    tests = {pair: type_test(*pair) for pair in pairs}
    matched = Counter()
    for g in range(16):
        for H in by_genus(g):
            for (N, gamma), is_type in tests.items():
                want = type_verdict(H, N, gamma).is_type
                assert is_type(H) == want, (H.gaps, N, gamma)
                matched[N, gamma] += want
    assert matched[2, 1] > 0 and matched[1, 8] > 0


def test_type_test_huge_predicates_stay_small(by_genus):
    # masks as wide as T + N would need terabytes; gamma = 0 needs none,
    # and T >= 2c answers False before any mask is built
    semigroups = [H for g in range(9) for H in by_genus(g)]
    tracemalloc.start()
    try:
        all_n = type_test(10**12, 0)
        no_gamma = type_test(2, 10**12)
        answers = (all(all_n(H) for H in semigroups),
                   any(no_gamma(H) for H in semigroups))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == (True, False)
    assert peak < 64 * 1024, peak


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


def is_type_by_tail_by_membership(H, N):
    """Reference: the tail condition tested integer by integer."""
    gamma = natural_gamma(H, N)
    return all(h % N == 0 for h in range(1, 2 * N * gamma + 1) if h in H)


def test_is_type_by_tail_matches_membership_reference_exhaustive(by_genus):
    held = 0
    for g in range(15):
        for H in by_genus(g):
            for N in range(1, 12):
                want = is_type_by_tail_by_membership(H, N)
                assert is_type_by_tail(H, N) is want, (H.gaps, N)
                held += want and N > 1 and natural_gamma(H, N) > 0
    assert held > 0


def test_is_type_by_genus():
    assert is_type_by_genus(from_generators([2, 21]), 2) is True
    assert is_type_by_genus(from_generators([4, 6, 17]), 2) is True
    assert is_type_by_genus(from_generators([4, 7]), 2) is False
    with pytest.raises(NotPrime):
        is_type_by_genus(from_generators([4, 7]), 4)


def test_is_type_by_genus_exhaustive(by_genus):
    # either sufficient condition makes H of type (n, gamma_n)
    held = 0
    for g in range(15):
        for H in by_genus(g):
            for n in (2, 3, 5, 7):
                if is_type_by_tail(H, n) or is_type_by_genus(H, n):
                    assert type_verdict(H, n, natural_gamma(H, n)).is_type, (H.gaps, n)
                    held += 1
    assert held > 0


def test_leading_gcd():
    H = from_generators([4, 6, 17])
    assert leading_gcd(H, 2, 3) == 2
    assert leading_gcd(H, 2, 4) == 2
    assert leading_gcd(from_generators([2, 9]), 2, 2) == 2
    with pytest.raises(PreconditionViolated):
        leading_gcd(from_generators([4, 7]), 2, 3)  # not of type (2, gamma_2)
    with pytest.raises(PreconditionViolated):
        leading_gcd(H, 2, 20)  # genus too small for this A
    # type (2, 4) and genus 13 > rho1(5, 2, 4) = 12, but A - gamma = 1 reads
    # only the multiplicity 10
    H = from_generators([10, 12, 14, 16, 18, 19, 21, 23, 25, 27])
    with pytest.raises(PreconditionViolated, match="need A >= 2"):
        leading_gcd(H, 2, 5)


def test_leading_gcd_exhaustive(by_genus):
    # every admissible A gives gcd N; the A below 2*gamma + 1 are refused
    calls = 0
    for g in range(15):
        for H in by_genus(g):
            for n in (2, 3, 5, 7):
                gamma = natural_gamma(H, n)
                if not type_verdict(H, n, gamma).is_type:
                    continue
                for A in range(gamma + 1, 2 * gamma + 1):
                    with pytest.raises(PreconditionViolated):
                        leading_gcd(H, n, A)
                A = 2 * gamma + 1
                while g > rho1(A, n, gamma):
                    assert leading_gcd(H, n, A) == n, (H.gaps, n, A)
                    calls += 1
                    A += 1
    assert calls > 0


def test_symmetry_profile_examples():
    p = symmetry_profile(from_generators([2, 5]))
    assert (p.kind, p.i, p.exceptional_gaps) == ("symmetric", 1, ())
    p = symmetry_profile(from_gaps(BUCHWEITZ_GAPS))
    assert (p.kind, p.i, p.exceptional_gaps) == ("general", 4, (24, 21, 19))
    p = symmetry_profile(from_generators([3, 4, 5]))
    assert (p.kind, p.i, p.exceptional_gaps) == ("quasi_symmetric", 1, (1,))
    with pytest.raises(GenusZero):
        symmetry_profile(from_generators([1]))


def test_symmetry_profile_excludes_paired_window_gaps():
    # 4 is a window gap but its mirror 7 - 4 = 3 is an element, so only 5
    # (mirror 2, a gap) breaks the pairing
    p = symmetry_profile(from_gaps([1, 2, 4, 5, 7]))
    assert p.i == 2 and p.exceptional_gaps == (5,)
    # window gaps {9, 10, 11, 13}: the mirror of 9 is the element 8
    p = symmetry_profile(from_gaps([1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 17]))
    assert p.i == 4 and p.exceptional_gaps == (13, 11, 10)


def exceptional_gaps_by_window(H):
    """Reference: the gaps h with F/2 <= h < F and F - h a gap, descending,
    tested integer by integer over the window."""
    ell = H.frobenius
    return tuple(h for h in range(ell - 1, (ell - 1) // 2, -1)
                 if h not in H and ell - h not in H)


def test_exceptional_bits_match_window_reference_exhaustive():
    for H in descendants(NumericalSemigroup(), 15):
        if H.genus:
            want = exceptional_gaps_by_window(H)
            assert _bit_positions(_exceptional_bits(H))[::-1] == want, H.gaps
            assert symmetry_profile(H).exceptional_gaps == want, H.gaps


def test_symmetry_kinds_exhaustive(by_genus):
    for g in range(1, 15):
        for H in by_genus(g):
            p = symmetry_profile(H)
            ell = H.frobenius
            # the gaps h in (g - i, ell) with ell - h a gap, then ell/2
            window = tuple(h for h in range(ell - 1, g - p.i, -1)
                           if h not in H and ell - h not in H)
            assert p.exceptional_gaps == window + ((g - p.i,) if ell % 2 == 0 else ()), H.gaps
            # closure forces exactly i-1 broken pairs, and an even last gap
            # has its half as a gap
            assert len(p.exceptional_gaps) == p.i - 1 + (ell % 2 == 0), H.gaps
            if ell % 2 == 0:
                assert ell // 2 not in H and p.exceptional_gaps[-1] == ell // 2
            if p.kind == "symmetric":
                # h is an element iff ell - h is a gap
                assert all((h in H) != (ell - h in H) for h in range(ell + 1)), H.gaps
            if H.frobenius == 2 * g - 1:
                assert p.kind == "symmetric" and p.i == 1 and p.exceptional_gaps == ()
            elif H.frobenius == 2 * g - 2:
                assert p.kind == "quasi_symmetric" and p.i == 1
                assert p.exceptional_gaps == (g - 1,)
            else:
                assert p.kind == "general" and p.i > 1


def test_readers_leave_tree_children_undecoded(gap_reads):
    # natural_gamma, type_verdict and symmetry_profile read the membership
    # bitset, so a tree child they inspect never decodes its gap tuple
    for H in descendants(NumericalSemigroup(), 13):
        if H.genus == 0:
            continue
        type_verdict(H, 2, natural_gamma(H, 2))
        symmetry_profile(H)
        assert gap_reads == [], H.frobenius


def test_arithmetic_cover_criterion():
    assert arithmetic_cover_criterion(from_generators([4, 6, 17]), 2, 1) is True
    assert arithmetic_cover_criterion(from_generators([2, 21]), 2, 0) is True
    assert arithmetic_cover_criterion(from_generators([3, 17]), 2, 1) is False
    with pytest.raises(PreconditionViolated):
        arithmetic_cover_criterion(from_generators([4, 7]), 2, 1)  # genus 9 = rho3


def test_arithmetic_cover_criterion_census():
    # (type_verdict, criterion) over every semigroup of genus rho3 < g <= 19,
    # for each prime N <= 7 and gamma <= 3 with that range not empty (for
    # N = 5 and 7, rho3 >= 36); the criterion misses all 51 of type (3, 0)
    pairs = [(N, gamma) for N in (2, 3, 5, 7) for gamma in range(4) if rho3(N, gamma) < 19]
    counts = {pair: Counter() for pair in pairs}
    for H in enumerate_genus_range(min(rho3(*pair) for pair in pairs) + 1, 19):
        for N, gamma in pairs:
            if H.genus > rho3(N, gamma):
                counts[N, gamma][type_verdict(H, N, gamma).is_type,
                                 arithmetic_cover_criterion(H, N, gamma)] += 1
    assert counts == {
        (2, 0): {(True, True): 16, (False, False): 55_722},
        (2, 1): {(True, True): 20, (False, False): 55_452},
        (2, 2): {(True, True): 28, (False, False): 48_754},
        (3, 0): {(True, False): 51, (False, False): 55_217},
    }


def test_arithmetic_cover_criterion_census_seeded():
    # (type_verdict, criterion) for (3, 1), (5, 0) and (7, 0), whose rho3
    # (25, 36, 78) leaves few or no semigroups of genus <= 19, over a seeded
    # sample of generator sets: a multiplicity m < 13 and one to three more
    # generators below 8m, genus up to about 500; the criterion's range of A
    # is empty after divisor_condition, so it misses every semigroup of type
    rng = random.Random(2026)
    pairs = [(3, 1), (5, 0), (7, 0)]
    counts = {pair: Counter() for pair in pairs}
    for _ in range(4000):
        m = rng.randrange(3, 13)
        gens = [m] + rng.sample(range(m + 1, 8 * m), rng.randrange(1, 4))
        if math.gcd(*gens) != 1:
            continue
        H = from_generators(gens)
        for N, gamma in pairs:
            if H.genus > rho3(N, gamma):
                counts[N, gamma][type_verdict(H, N, gamma).is_type,
                                 arithmetic_cover_criterion(H, N, gamma)] += 1
    assert counts == {
        (3, 1): {(True, False): 7, (False, False): 2_292},
        (5, 0): {(True, False): 102, (False, False): 1_875},
        (7, 0): {(True, False): 98, (False, False): 925},
    }


def test_project_by_n():
    assert project_by_n(from_generators([4, 6, 17]), 2, 1) == from_generators([2, 3])
    assert project_by_n(from_generators([2, 21]), 2, 0) == from_generators([1])
    with pytest.raises(PreconditionViolated):
        project_by_n(from_generators([4, 7]), 2, 1)


def test_project_preserves_genus(by_genus):
    # for every gamma where H is of type (n, gamma), the first gamma
    # elements are multiples of n and their quotients leave gamma gaps
    projected = 0
    for g in range(16):
        for H in by_genus(g):
            for n in (1, 2, 3, 5, 7):
                for gamma in range(9):
                    if not type_verdict(H, n, gamma).is_type:
                        continue
                    head = [H.element_at(i) for i in range(1, gamma + 1)]
                    assert all(m % n == 0 for m in head), (H.gaps, n, gamma)
                    K = project_by_n(H, n, gamma)
                    assert K.genus == gamma, (H.gaps, n, gamma)
                    assert [K.element_at(i) for i in range(1, gamma + 1)] == \
                        [m // n for m in head]
                    projected += 1
    assert projected > 0
