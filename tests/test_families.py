"""Family constructors: every instance re-checks its own claims."""

import subprocess
import sys
import time

import pytest

from sgp.bounds import rho3
from sgp.classify import project_by_n, type_verdict
from sgp.core import from_gaps, from_generators, natural_gamma
from sgp.errors import (CapExceeded, ClaimFailed, NotPrime, ParityViolation,
                        PreconditionViolated, RangeViolation)
from sgp.families import (buchweitz_family, cover_family,
                          superelliptic_extremal, superelliptic_sharp,
                          superelliptic_spurious)
from sgp.obstruction import gap_sum_profile

BUCHWEITZ_GAPS = tuple(range(1, 13)) + (19, 21, 24, 25)


def claims_hold(result):
    return all(c.holds for c in result.claims)


class TestBuchweitzFamily:
    def test_classic_instance(self):
        r = buchweitz_family(16, 4)
        assert r.semigroup.gaps == BUCHWEITZ_GAPS
        assert claims_hold(r)
        assert r.diagnostics["excess"] == 6
        assert r.diagnostics["fails_pair_sum_bound"]

    def test_next_instance(self):
        r = buchweitz_family(18, 4)
        assert r.semigroup.gaps == tuple(range(1, 15)) + (22, 24, 27, 29)
        assert r.semigroup.genus == 18
        assert claims_hold(r)
        # collision instance: the sum chain loses one member to the
        # baseline, so the direct pairwise count does not exceed the bound
        assert r.diagnostics["excess"] == 5
        assert not r.diagnostics["fails_pair_sum_bound"]
        assert not r.diagnostics["excess_consistent"]

    def test_wider_instance(self):
        r = buchweitz_family(25, 5)
        assert r.semigroup.genus == 25
        assert r.semigroup.frobenius == 41
        assert r.diagnostics["excess"] >= 2 * 5 - 2
        assert r.diagnostics["fails_pair_sum_bound"]

    def test_custom_a(self):
        r = buchweitz_family(20, 4, a=5)
        assert r.semigroup.genus == 20
        assert claims_hold(r)

    def test_guards(self):
        with pytest.raises(ParityViolation):
            buchweitz_family(15, 4)
        with pytest.raises(RangeViolation):
            buchweitz_family(16, 3)
        with pytest.raises(RangeViolation):
            buchweitz_family(16, 4, a=2)
        with pytest.raises(RangeViolation):
            buchweitz_family(14, 4)

    def test_grid_fails_bound_off_collision(self):
        # the pairwise bound fails for every instance except the known
        # collision lines (g = 9i-18 and g = 13i+4w-40 for some window w)
        for i in (4, 5, 6):
            g0 = 9 * i - 20
            for g in range(g0, g0 + 24):
                if (3 * g + 5 * i - 20) % 2:
                    continue
                r = buchweitz_family(g, i)
                assert claims_hold(r)
                if r.diagnostics["fails_pair_sum_bound"]:
                    assert r.diagnostics["excess"] >= 2 * i - 2
                else:
                    assert r.diagnostics["excess"] < 2 * i - 2


class TestCoverFamily:
    def test_small_instance(self):
        Ht = from_generators([2, 3])
        r = cover_family(Ht, 2, 20, 1)
        H = r.semigroup
        assert r.family == "cover_h1"
        assert (H.genus, H.frobenius) == (20, 39)
        assert type_verdict(H, 2, 1).is_type
        assert project_by_n(H, 2, 1) == Ht
        assert r.diagnostics["U"] + r.diagnostics["V"] == 20

    def test_buchweitz_lift(self):
        Ht = from_gaps(BUCHWEITZ_GAPS)
        r = cover_family(Ht, 2, 100, 1)
        H = r.semigroup
        assert (H.genus, H.frobenius) == (100, 199)
        assert type_verdict(H, 2, 16).is_type
        assert project_by_n(H, 2, 16) == Ht

    def test_second_branch(self):
        Ht = from_generators([2, 3])
        r = cover_family(Ht, 3, 26, 2)
        assert r.family == "cover_h2"
        assert r.semigroup.genus == 26
        assert r.semigroup.frobenius == 50
        assert r.diagnostics["removed"] == 25

    def test_edge_n2_odd_genus_stays_first_branch(self):
        # 2u = N here; the reflected set already has exactly g elements,
        # so nothing may be removed despite the closed-interval reading
        r = cover_family(from_generators([2, 3]), 2, 21, 1)
        assert r.family == "cover_h1"
        assert r.semigroup.genus == 21

    def test_guards(self):
        Ht = from_generators([2, 3])
        buch = from_gaps(BUCHWEITZ_GAPS)
        with pytest.raises(PreconditionViolated):
            cover_family(buch, 2, 100, 0)
        with pytest.raises(PreconditionViolated):
            cover_family(buch, 2, 99, 1)  # genus at the threshold
        with pytest.raises(PreconditionViolated):
            cover_family(Ht, 2, 20, 2)  # u = 0 requires f < N
        with pytest.raises(PreconditionViolated):
            cover_family(Ht, 3, 29, 1)  # 2g - f divisible by 3
        with pytest.raises(NotPrime):
            cover_family(Ht, 4, 50, 1)

    def test_unsafe_f_rejected(self):
        # tail elements 2g-j (0 < j < f) must be multiples of N; otherwise
        # the reflected set miscounts and the claims abort the build
        with pytest.raises(ClaimFailed):
            cover_family(from_generators([2, 3]), 3, 27, 2)
        with pytest.raises(ClaimFailed):
            cover_family(from_generators([2, 3]), 5, 83, 3)


class TestSuperellipticSharp:
    def test_main_instance(self):
        r = superelliptic_sharp(2, 1, 10)
        assert r.semigroup == from_generators([4, 17, 6])
        assert r.semigroup.genus == 10
        assert r.diagnostics["L"] == 17
        assert claims_hold(r)

    def test_gamma_zero(self):
        r = superelliptic_sharp(2, 0, 5)
        assert r.semigroup == from_generators([2, 11])
        assert natural_gamma(r.semigroup, 2) == 0

    def test_rho1_sharpness_instance(self):
        # at g = rho1(4, 2, 1) = 5 the bound value collapses to AN-1
        r = superelliptic_sharp(2, 1, 5)
        assert r.diagnostics["A"] == 4
        assert r.diagnostics["L"] == 7
        assert r.semigroup.element_at(4 - 1) <= 7
        assert claims_hold(r)

    def test_guards(self):
        with pytest.raises(PreconditionViolated):
            superelliptic_sharp(3, 1, 10)  # g - N*gamma not divisible by N-1
        with pytest.raises(PreconditionViolated):
            superelliptic_sharp(3, 1, 11)  # L = 9 shares the factor 3 with 2N
        with pytest.raises(PreconditionViolated):
            superelliptic_sharp(2, 2, 6)  # i2 = 0


class TestSuperellipticExtremal:
    def test_small(self):
        r = superelliptic_extremal(2, 1)
        assert r.semigroup == from_generators([4, 7])
        assert r.semigroup.genus == 9 == rho3(2, 1)
        assert r.diagnostics["pole_order_match_observed"] == [2, 4, 6]
        assert claims_hold(r)

    def test_three_sheets(self):
        r = superelliptic_extremal(3, 1)
        assert r.semigroup == from_generators([6, 11])
        assert r.semigroup.genus == 25 == rho3(3, 1)

    def test_jenkins_equality_grid(self):
        for n in (2, 3, 5, 7):
            for gamma in range(5):
                r = superelliptic_extremal(n, gamma)
                i1 = r.diagnostics["i1"]
                assert r.semigroup.genus == (2 * n - 1) * (i1 - 1) // 2 == rho3(n, gamma)
                assert not type_verdict(r.semigroup, n, gamma).is_type

    def test_pole_order_matches_even_a_only(self):
        for n in (2, 3, 5):
            for gamma in range(4):
                r = superelliptic_extremal(n, gamma)
                lo, hi = r.diagnostics["pole_order_match_range"]
                observed = r.diagnostics["pole_order_match_observed"]
                assert observed == [a for a in range(lo, hi + 1) if a % 2 == 0]


class TestSuperellipticSpurious:
    def test_main_instance(self):
        r = superelliptic_spurious(2, 1, 3, 3, 16)
        H = r.semigroup
        assert H == from_generators([3, 17])
        assert H.genus == 16
        assert H.element_at(3 - 1) == 6
        assert claims_hold(r)

    def test_three_sheet_instance(self):
        r = superelliptic_spurious(3, 1, 4, 4, 57)
        assert r.semigroup == from_generators([4, 39])
        assert r.semigroup.element_at(3) == 12
        assert claims_hold(r)

    def test_guards(self):
        with pytest.raises(PreconditionViolated):
            superelliptic_spurious(2, 1, 3, 3, 15)  # below the genus bound
        with pytest.raises(PreconditionViolated):
            superelliptic_spurious(2, 1, 3, 2, 16)  # t = N excluded
        with pytest.raises(PreconditionViolated):
            superelliptic_spurious(2, 1, 4, 3, 16)  # t does not divide A
        with pytest.raises(PreconditionViolated):
            superelliptic_spurious(2, 1, 3, 3, 17)  # 2g not divisible by rt-1


def test_buchweitz_output_found_by_obstruction_scan():
    # the generated gap set must look obstructed to the generic machinery
    H = buchweitz_family(16, 4).semigroup
    assert not gap_sum_profile(H, 2).passes_bc


def test_genus_cap(monkeypatch):
    import sgp.families
    monkeypatch.setattr(sgp.families, "FAMILY_GENUS_CAP", 100)
    htilde = from_generators([2, 3])
    assert buchweitz_family(100, 4).semigroup.genus == 100
    assert cover_family(htilde, 2, 100, 1).semigroup.genus == 100
    # checked first: 101 also has the wrong parity for buchweitz
    with pytest.raises(CapExceeded):
        buchweitz_family(101, 4)
    with pytest.raises(CapExceeded):
        cover_family(htilde, 2, 101, 1)


def test_genus_cap_exits_at_once():
    for params in (["buchweitz", "--params", "g=10000000", "i=4"],
                   ["cover", "--params", "htilde=gens:2,3", "N=2", "g=10000001", "f=1"]):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "sgp.cli", "family", *params],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, params
        assert '"CapExceeded"' in proc.stdout
        assert time.perf_counter() - t0 < 1, params
