"""Family constructors: every instance re-checks its own claims."""

import subprocess
import sys
import time

import pytest

from sgp.bounds import rho3
from sgp.classify import _require_prime, project_by_n, type_test, type_verdict
from sgp.core import (NumericalSemigroup, descendants, format_semigroup, from_gaps,
                      from_generators, natural_gamma)
from sgp.errors import (CapExceeded, ClaimFailed, NotPrime, ParityViolation,
                        PreconditionViolated, RangeViolation)
from sgp.families import (FamilyResult, _Claims, _cover_u_table,
                          buchweitz_family, cover_family,
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
        # collision instance: a pairwise sum the construction counts on
        # lands in the baseline, so the excess is 5 < 2i - 2, the count
        # meets its bound 51, and the claim is refused
        H = from_gaps(tuple(range(1, 15)) + (22, 24, 27, 29))
        assert (H.genus, gap_sum_profile(H, 2).cardinality) == (18, 51)
        with pytest.raises(ClaimFailed, match="pairing_obstruction expected "
                                              "'not_weierstrass', got 'inconclusive'"):
            buchweitz_family(18, 4)

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
        # the pairwise bound fails for every instance except the collisions,
        # g = 9i-18 and two more at i = 4, which the pairing_obstruction
        # claim refuses
        collisions = []
        for i in (4, 5, 6):
            g0 = 9 * i - 20
            for g in range(g0, g0 + 24):
                if (3 * g + 5 * i - 20) % 2:
                    continue
                try:
                    r = buchweitz_family(g, i)
                except ClaimFailed:
                    collisions.append((g, i))
                    continue
                assert claims_hold(r)
                assert r.diagnostics["fails_pair_sum_bound"]
                assert r.diagnostics["excess"] >= 2 * i - 2
        assert collisions == [(18, 4), (20, 4), (24, 4), (27, 5), (36, 6)]


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
        # so nothing is removed
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
        # the reflected set has f - 1 elements too many: at f = 2 the middle
        # one goes and the lift is certified, at f = 3 the count aborts
        Ht = from_generators([2, 3])
        r = cover_family(Ht, 3, 27, 2)
        H = r.semigroup
        assert r.family == "cover_h2" and claims_hold(r)
        assert (H.genus, H.frobenius) == (27, 52)
        assert type_verdict(H, 3, 1).is_type
        assert project_by_n(H, 3, 1) == Ht
        with pytest.raises(ClaimFailed, match="element_count_up_to_2g expected 83, got 85"):
            cover_family(Ht, 5, 83, 3)


def reference_counts(htilde, N, g, f):
    """H1 read one integer at a time: the scaled set N*htilde and its
    reflection ell - r (r <= g - 1) tested per integer.  Returns the
    membership test and U and V counted over [1, 2g]."""
    ell = 2 * g - f

    def in_scaled(x):
        return x % N == 0 and (x // N) in htilde

    def in_h1(x):
        if x > ell or in_scaled(x):
            return True
        r = ell - x
        return r <= g - 1 and not in_scaled(r)

    u_direct = sum(1 for h in range(1, 2 * g + 1)
                   if (h == 2 * g or h % N == 0) and in_h1(h))
    v_direct = sum(1 for h in range(1, 2 * g) if h % N != 0 and in_h1(h))
    return in_h1, u_direct, v_direct


def reference_cover_family(htilde, N, g, f):
    """cover_family on reference_counts."""
    _require_prime(N)
    gamma = htilde.genus
    if g <= rho3(N, gamma):
        raise PreconditionViolated(f"need g > rho3({N}, {gamma}) = {rho3(N, gamma)}")
    lam, u = divmod(g, N)
    if f < 1:
        raise PreconditionViolated("need f >= 1")
    if u > 0 and f > u:
        raise PreconditionViolated(f"need f <= u = {u} when u > 0")
    if u == 0 and f >= N:
        raise PreconditionViolated(f"need f < N = {N} when u == 0")
    ell = 2 * g - f
    if ell % N == 0:
        raise PreconditionViolated("2g - f must not be divisible by N")

    in_h1, u_direct, v_direct = reference_counts(htilde, N, g, f)
    gaps = [x for x in range(1, ell + 1) if not in_h1(x)]
    h2_branch = u_direct + v_direct == g + 1
    e = ell // 2
    diagnostics = {"branch": "H2" if h2_branch else "H1",
                   "lambda": lam, "u": u, "U": u_direct, "V": v_direct,
                   "removed": e if h2_branch else None}
    sheet = _Claims("cover_family")
    if h2_branch:
        sheet.check("removed_element_was_present", True, in_h1(e) and e <= ell)
        gaps.append(e)
    else:
        sheet.check("element_count_up_to_2g", g, u_direct + v_direct)
    u_table = _cover_u_table(N, gamma, lam, u)
    diagnostics["U_table"] = u_table
    sheet.check("U_matches_case_table", u_table, u_direct)
    H = NumericalSemigroup(gaps)
    sheet.check("genus", g, H.genus)
    sheet.check("last_gap", ell, H.frobenius)
    sheet.check("type_verdict", True, type_verdict(H, N, gamma).is_type)
    sheet.check("projection_recovers_input", htilde, project_by_n(H, N, gamma))
    params = {"htilde": format_semigroup(htilde), "N": N, "g": g, "f": f}
    return FamilyResult(H, "cover_h2" if h2_branch else "cover_h1",
                        params, tuple(sheet.claims), diagnostics)


def _result_or_error(fn, *args):
    try:
        r = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return r.semigroup.gaps, r.family, r.params, r.claims, r.diagnostics


def test_cover_family_matches_reference_grid():
    # every tuple from just below rho3 up, with f past its allowed range:
    # the result or the exception, claims and diagnostics included, is the
    # reference's, the f >= 3 ClaimFailed cases among them
    tuples = raised = 0
    for gens in ([2, 3], [2, 5], [3, 4, 5], [3, 5, 7], [2, 7], [3, 4], [1]):
        htilde = from_generators(gens)
        for N in (2, 3, 5, 7):
            lo = rho3(N, htilde.genus)
            for g in range(lo - 1, lo + 4 * N + 2):
                for f in range(N + 2):
                    want = _result_or_error(reference_cover_family, htilde, N, g, f)
                    assert _result_or_error(cover_family, htilde, N, g, f) == want, \
                        (gens, N, g, f)
                    tuples += 1
                    raised += isinstance(want[0], type)
    assert (tuples, raised) == (3913, 3143)


COVER_BASES = ([1], [2, 3], [2, 5], [3, 4, 5], [3, 5, 7], [4, 5, 6, 7], [2, 7], [3, 4])


def test_cover_family_lifts_by_element_count():
    # every admissible tuple: the reflected set has f - 1 elements too many
    # in [1, 2g] and the U table is right.  f = 1 and f = 2 give certified
    # lifts; f >= 3 fails the count.  576 of the f = 2 lifts lie outside
    # N < 2u < N + f, the interval rule that refused them before
    built = {1: 0, 2: 0}
    refused = outside_interval = 0
    for gens in COVER_BASES:
        htilde = from_generators(gens)
        gamma = htilde.genus
        for N in (2, 3, 5, 7, 11):
            lo = rho3(N, gamma)
            for g in range(lo + 1, lo + 4 * N + 1):
                lam, u = divmod(g, N)
                for f in range(1, (u or N - 1) + 1):
                    if (2 * g - f) % N == 0:
                        continue
                    _, u_ref, v_ref = reference_counts(htilde, N, g, f)
                    assert u_ref + v_ref == g + f - 1, (gens, N, g, f)
                    assert _cover_u_table(N, gamma, lam, u) == u_ref, (gens, N, g, f)
                    if f >= 3:
                        with pytest.raises(ClaimFailed, match="element_count_up_to_2g "
                                           f"expected {g}, got {g + f - 1}$"):
                            cover_family(htilde, N, g, f)
                        refused += 1
                        continue
                    r = cover_family(htilde, N, g, f)
                    H = r.semigroup
                    assert claims_hold(r)
                    assert r.family == ("cover_h1", "cover_h2")[f - 1]
                    assert (H.genus, H.frobenius) == (g, 2 * g - f)
                    assert type_verdict(H, N, gamma).is_type
                    assert project_by_n(H, N, gamma) == htilde
                    assert r.diagnostics["U"] == r.diagnostics["U_table"] == u_ref
                    built[f] += 1
                    outside_interval += f == 2 and not N < 2 * u < N + f
    assert (built[1], built[2], refused, outside_interval) == (768, 704, 1792, 576)


def test_cover_f2_is_the_unique_type_target():
    # the genus tree to genus 19 holds one type-(3, 0) semigroup of genus g
    # with last gap 2g - 2 for each g that admits f = 2, and the lift of the
    # naturals is that one
    is_type = type_test(3, 0)
    targets: dict[int, list] = {}
    nodes = 0
    for H in descendants(NumericalSemigroup(), 19):
        nodes += 1
        if H.genus >= 2 and H.frobenius == 2 * H.genus - 2 and is_type(H):
            targets.setdefault(H.genus, []).append(H)
    assert nodes == 55_746
    naturals = from_generators([1])
    for g in (11, 12, 14, 15, 17, 18):
        assert targets[g] == [cover_family(naturals, 3, g, 2).semigroup], g
    assert targets[12] == [from_generators([3, 14, 25])]


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
        with pytest.raises(NotPrime):
            superelliptic_sharp(4, 1, 10)
        with pytest.raises(PreconditionViolated, match="need gamma >= 0"):
            superelliptic_sharp(2, -1, 5)


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

    def test_guards(self):
        with pytest.raises(NotPrime):
            superelliptic_extremal(4, 1)
        with pytest.raises(PreconditionViolated, match="need gamma >= 0"):
            superelliptic_extremal(2, -1)


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
        with pytest.raises(PreconditionViolated, match="are not coprime"):
            superelliptic_spurious(2, 1, 3, 3, 17)  # rt = 3, i1 = 18
        with pytest.raises(PreconditionViolated, match="divisible by rt - 1 = 3"):
            superelliptic_spurious(3, 1, 4, 4, 55)
        with pytest.raises(NotPrime):
            superelliptic_spurious(4, 1, 4, 2, 16)
        with pytest.raises(PreconditionViolated, match="need A >= 2"):
            superelliptic_spurious(2, 1, 2, 2, 16)
        with pytest.raises(PreconditionViolated, match=r"need t in \[2, 3\]"):
            superelliptic_spurious(2, 1, 3, 4, 16)
        with pytest.raises(PreconditionViolated, match="rt = -3 is degenerate"):
            superelliptic_spurious(2, 0, 6, 3, 16)  # r = 12/3 - 6 + 1


def test_buchweitz_output_found_by_obstruction_scan():
    # the generated gap set must look obstructed to the generic machinery
    H = buchweitz_family(16, 4).semigroup
    assert not gap_sum_profile(H, 2).passes_bc


def test_genus_cap(monkeypatch):
    # cover_family checks g * (2g - f), a bound on its output's closure
    # sieve, before it builds a bitset: 100 * 199 = 19,900 at g = 100
    import sgp.core
    import sgp.families
    htilde = from_generators([2, 3])
    monkeypatch.setattr(sgp.core, "WORK_CAP", 19_900)
    assert cover_family(htilde, 2, 100, 1).semigroup.genus == 100

    def never_built(N, count):
        raise AssertionError("built a bitset past the work cap")

    monkeypatch.setattr(sgp.families, "_multiples", never_built)
    with pytest.raises(CapExceeded) as err:
        cover_family(htilde, 2, 101, 1)
    assert str(err.value) == "cover work g * (2g - f) = 20301 exceeds cap 19900"


def test_buchweitz_sumset_caps_checked_before_building(monkeypatch):
    # the check, not the blow-up: the pairwise gap sumset of (16, 4) has
    # multiplicity 13, so 12 classes and one doubling a level, and
    # frobenius 25: work 13 * 2 * 25
    import sgp.core
    import sgp.families

    def never_built(gaps):
        raise AssertionError("built a semigroup past the sumset work cap")

    assert buchweitz_family(16, 4).semigroup.gaps == BUCHWEITZ_GAPS
    monkeypatch.setattr(sgp.families, "NumericalSemigroup", never_built)
    # the first genus the real cap refuses at i = 4: 50,001 * 2 * 100,001
    with pytest.raises(CapExceeded, match="work .* = 10000300002 exceeds cap"):
        buchweitz_family(50_004, 4)
    monkeypatch.setattr(sgp.core, "WORK_CAP", 649)
    with pytest.raises(CapExceeded, match="work .* = 650 exceeds cap 649"):
        buchweitz_family(16, 4)
    monkeypatch.undo()
    monkeypatch.setattr(sgp.core, "WORK_CAP", 650)
    assert buchweitz_family(16, 4).semigroup.gaps == BUCHWEITZ_GAPS


def test_buchweitz_precheck_is_the_sumset_estimate(monkeypatch):
    # the family's pre-check and _sumset estimate the same work for the
    # pairwise sumset of the semigroup the family builds
    import sgp.core
    checked = 0
    for i in range(4, 8):
        for a in range(2 * i - 5, 2 * i):
            for g in range(2 * a - 10 + 5 * i, 2 * a + 5 * i + 4):
                if (3 * g + 2 * a + i - 10) % 2:
                    continue
                h1 = (3 * g + 2 * a + i - 10) // 2
                H = NumericalSemigroup([*range(1, g - i + 1),
                                        *(h1 - a - 2 * k for k in range(i - 2)),
                                        h1, 2 * g - 2 * i + 1])
                monkeypatch.setattr(sgp.core, "WORK_CAP", 0)
                with pytest.raises(CapExceeded) as family:
                    buchweitz_family(g, i, a)
                with pytest.raises(CapExceeded) as sumset:
                    H._sumset(2)
                assert str(family.value) == str(sumset.value), (g, i, a)
                monkeypatch.undo()
                checked += 1
    assert checked == 140


def test_genus_cap_exits_at_once():
    # each build's work is estimated from its input and refused before it
    # starts: a family's, the closure sieve of a listed gap set or of a
    # sieved window, and a generator sieve of 9 * 10^6 bits shifted 3,000
    # ways.  A prime N near 10^18 is proved prime at once, and then refused
    # on its generator sieve; an N past the primality cap is refused as is
    for argv in (["family", "extremal", "--params", "N=1000000000000000003", "gamma=0"],
                 ["family", "extremal", "--params", f"N={10**25}", "gamma=0"],
                 ["family", "buchweitz", "--params", "g=10000000", "i=4"],
                 ["family", "buchweitz", "--params", "g=500000", "i=4"],
                 ["family", "cover", "--params", "htilde=gens:2,3", "N=2", "g=10000001",
                  "f=1"],
                 ["info", "gaps:1,1000000"], ["info", "gaps:1,100000000000"],
                 ["info", "gens:1000,1001"],
                 ["info", "gens:" + ",".join(map(str, range(3000, 6000)))]):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "sgp.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, argv[:3]
        assert '"CapExceeded"' in proc.stdout
        assert time.perf_counter() - t0 < 1, argv[:3]
