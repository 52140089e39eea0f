"""Closed-form bounds: point values, algebraic identities, theorem scans."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgp.bounds import (castelnuovo_c, compositum_bound, coprime_lower_bound,
                        divisor_condition, evaluate, jenkins_bound, rho1, rho2,
                        rho3, rho4, rho4_u, rho5, total_ramification_threshold)
from sgp.core import from_generators
from sgp.errors import DegenerateDenominator, NotCoprime, PreconditionViolated

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def test_rho_point_values():
    assert rho1(2 * 2, 3, 2) == 3 * 3 * 2 - 3 + 1 == 16
    assert rho3(2, 1) == 9
    assert rho3(3, 2) == 40
    assert rho4(2 * 2 + 2, 3 - 1, 3, 2) == rho3(3, 2) == 40
    assert rho2(2, 1) == 2
    assert rho5(2, 1) == 5
    assert evaluate("rho1", (3, 2, 1)).value == rho1(3, 2, 1) == 4
    with pytest.raises(ValueError):
        evaluate("rho6", (1,))
    with pytest.raises(ValueError):
        evaluate("rho3", (1, 2, 3))


def test_rho1_collapses_to_square_form():
    for n in PRIMES:
        for gamma in range(0, 21):
            assert rho1(2 * gamma, n, gamma) == n * n * gamma - n + 1


def test_rho4_with_top_u_is_rho3():
    for n in PRIMES:
        for gamma in range(0, 21):
            assert rho4(2 * gamma + 2, n - 1, n, gamma) == rho3(n, gamma)


def test_castelnuovo_values():
    assert castelnuovo_c(8, 3) == 9 == rho3(2, 1)
    for d in (2, 3, 5, 9):
        assert castelnuovo_c(d, d) == 0
    assert castelnuovo_c(12, 4) == 15 == rho4(6, rho4_u(6, 2, 2), 2, 2)
    with pytest.raises(ValueError):
        castelnuovo_c(8, 1)
    with pytest.raises(ValueError, match="d >= 1"):
        castelnuovo_c(0, 3)


def test_castelnuovo_equals_rho4_on_grid():
    for gamma in range(1, 21):
        for n in PRIMES:
            for a in range(gamma + 2, 4 * gamma + 9):
                u = rho4_u(a, n, gamma)
                assert castelnuovo_c(a * n, a - gamma) == rho4(a, u, n, gamma)


def test_compositum():
    assert compositum_bound(1, 0, 1, 0) == 0
    assert compositum_bound(2, 1, 3, 0) == 4
    for n in PRIMES:
        for gamma in range(0, 10):
            assert compositum_bound(n, gamma, n, gamma) == rho5(n, gamma)


def test_rho3_dominates_rho5():
    for n in PRIMES:
        for gamma in range(1, 21):
            assert rho3(n, gamma) >= rho5(n, gamma)


def test_coprime_lower_bound_values():
    assert coprime_lower_bound(from_generators([2, 11]), 2) == 11
    H = from_generators([4, 6, 17])
    assert coprime_lower_bound(H, 2) == 17
    assert 17 in H
    H35 = from_generators([3, 5])
    assert coprime_lower_bound(H35, 5) == 3
    assert 3 in H35 and math.gcd(3, 5) == 1
    with pytest.raises(ValueError):
        coprime_lower_bound(H, 1)


def test_coprime_lower_bound_exhaustive(by_genus):
    # the least element coprime to n clears the bound; it lies in
    # [1, conductor + n], which holds a number congruent to 1 mod n
    attained = 0
    for g in range(15):
        for H in by_genus(g):
            for n in (2, 3, 5, 7):
                bound = coprime_lower_bound(H, n)
                least = min(h for h in range(1, H.conductor + n + 1)
                            if h in H and math.gcd(h, n) == 1)
                assert least >= bound, (H.gaps, n)
                attained += least == bound
    assert attained > 0


def test_jenkins():
    assert jenkins_bound(3, 5) == 4 == from_generators([3, 5]).genus
    assert jenkins_bound(2, 3) == 1
    assert jenkins_bound(4, 7) == 9 == from_generators([4, 7]).genus
    with pytest.raises(NotCoprime):
        jenkins_bound(4, 6)
    with pytest.raises(ValueError):
        jenkins_bound(5, 3)


def test_jenkins_exhaustive(by_genus):
    for g in range(2, 13):
        for H in by_genus(g):
            els = [n for n in range(1, 2 * g + 3) if n in H]
            for i, m in enumerate(els):
                for n in els[i + 1:]:
                    if math.gcd(m, n) == 1:
                        assert g <= jenkins_bound(m, n)


def test_rho4_u():
    assert rho4_u(4, 2, 1) == 1
    assert rho4_u(8, 3, 2) == 1
    for n in PRIMES:
        for gamma in range(0, 15):
            assert rho4_u(2 * gamma + 2, n, gamma) == n - 1
    with pytest.raises(DegenerateDenominator):
        rho4_u(3, 2, 2)


def test_divisor_condition():
    assert divisor_condition(4, 2, 1) is True
    assert divisor_condition(6, 2, 2) is False  # t = 3 divides 6
    assert divisor_condition(3, 2, 1) is False  # t = 3 <= 6/2 divides 3
    with pytest.raises(ValueError):
        divisor_condition(2, 3, 2)


def test_total_ramification_threshold():
    assert total_ramification_threshold(4, 2, 1, 10) is True
    assert total_ramification_threshold(17, 2, 1, 10) is False
    # strict at equality: (n-1)h == g - n*gamma + n - 1
    assert total_ramification_threshold(9, 2, 1, 10) is False


def test_evaluate_reports():
    report = evaluate("rho3", [2, 1])
    assert (report.name, report.arguments, report.value) == ("rho3", (2, 1), 9)
    assert report.hypothesis_met is None
    with pytest.raises(ValueError):
        evaluate("nope", [1])
    with pytest.raises(ValueError):
        evaluate("rho3", [1, 2, 3])
    # below the domain: degrees N >= 1, genera gamma, g >= 0, rho4's u >= 0
    for name, args in (("rho3", [-1, -5]), ("rho3", [2, -1]), ("rho1", [3, 0, 1]),
                       ("rho2", [0, 1]), ("rho5", [2, -1]), ("rho4", [5, -1, 5, 0]),
                       ("compositum", [0, 0, 1, 0]), ("compositum", [1, 0, 1, -1])):
        with pytest.raises(PreconditionViolated, match=f"^{name} needs "):
            evaluate(name, args)
    # a bound function's own ValueError, which its direct callers still get
    # re-raised with the bound's name and the arguments it got
    for m, n in ((3, 2), (0, 2)):
        with pytest.raises(PreconditionViolated,
                           match=rf"^jenkins: need 0 < m < n \(got m={m}, n={n}\)$"):
            evaluate("jenkins", [m, n])
    # the least arguments of each domain still evaluate
    assert evaluate("compositum", [1, 0, 1, 0]).value == 0
    assert evaluate("rho3", [1, 0]).value == 0
    assert evaluate("rho4", [1, 0, 1, 0]).value == rho4(1, 0, 1, 0) == 0


@given(st.integers(-50, 50), st.integers(-10, 10), st.integers(-20, 20),
       st.integers(-20, 20))
def test_rho4_always_integral(a, u, n, gamma):
    # (n-u-1) and the bracket can never both be odd, so halving is exact
    num = (n - u - 1) * ((a - gamma - 1) * (n + u) - 2 * (n * gamma + n - 1))
    assert num % 2 == 0
    rho4(a, u, n, gamma)


@given(st.integers(2, 12), st.integers(3, 25))
@settings(deadline=None)
def test_jenkins_vs_sieve(m, n):
    if not (m < n and math.gcd(m, n) == 1):
        return
    assert from_generators([m, n]).genus == jenkins_bound(m, n)
