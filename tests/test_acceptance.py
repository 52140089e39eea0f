"""End-to-end acceptance suite.

Every test prints one ``[acceptance]`` line (visible with ``pytest -s``)
and asserts its property exactly; no tolerances apply because everything
is integer arithmetic.

``test_gap_sum_formulas_all_symmetric`` checks the exact size of the
n-fold gap sumset G_n for every symmetric and quasi-symmetric semigroup
of genus 2..12 and n = 2, 3, 4: (2n-1)(g-1) for a symmetric semigroup
that is not hyperelliptic; n(g-1)+1 for the hyperelliptic one <2, 2g+1>,
whose all-odd gaps confine every n-fold sum to one parity class; and
(2n-1)(g-1)-(n-2) for a quasi-symmetric semigroup, with no exceptions.
"""

import json
import math
import time
from itertools import combinations, combinations_with_replacement

from sgp.bounds import (castelnuovo_c, coprime_lower_bound, divisor_condition,
                        rho1, rho3, rho4, rho4_u)
from sgp.classify import project_by_n, type_verdict
from sgp.cli import run as cli_run
from sgp.core import from_gaps, from_generators, natural_gamma
from sgp.families import (buchweitz_family, cover_family,
                          superelliptic_sharp, superelliptic_spurious)
from sgp.obstruction import NOT_WEIERSTRASS, gap_sum_profile, pairing_obstruction

BUCHWEITZ_GAPS = tuple(range(1, 13)) + (19, 21, 24, 25)
PRIMES_19 = (2, 3, 5, 7, 11, 13, 17, 19)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}{' - ' + detail if detail else ''}")


def test_buchweitz_reproduction():
    result = buchweitz_family(16, 4)
    H = result.semigroup
    ok = H.gaps == BUCHWEITZ_GAPS
    profile = gap_sum_profile(H, 2)
    oracle = len(set(a + b for a, b in combinations_with_replacement(H.gaps, 2)))
    ok &= profile.cardinality == oracle == 46
    ok &= profile.bc_bound == 45 and not profile.passes_bc
    ok &= profile.excess == 6
    ok &= pairing_obstruction(H) == NOT_WEIERSTRASS
    _report("buchweitz_reproduction", ok,
            f"#G2={profile.cardinality} bound={profile.bc_bound} excess={profile.excess}")
    assert ok


def test_gap_sum_formulas_all_symmetric(by_genus):
    started = time.monotonic()
    violations = []
    checked = {"symmetric": 0, "hyperelliptic": 0, "quasi_symmetric": 0}
    for g in range(2, 13):
        for H in by_genus(g):
            ell = H.frobenius
            if ell == 2 * g - 1:
                kind = "hyperelliptic" if 2 in H else "symmetric"
            elif ell == 2 * g - 2:
                kind = "quasi_symmetric"
            else:
                continue
            for n in (2, 3, 4):
                card = gap_sum_profile(H, n).cardinality
                if kind == "hyperelliptic":
                    # all gaps are odd: n-fold sums share the parity of n
                    want = n * (g - 1) + 1
                else:
                    want = (2 * n - 1) * (g - 1)
                    if kind == "quasi_symmetric":
                        want -= n - 2
                checked[kind] += 1
                if card != want:
                    violations.append((kind, H.gaps, n, card, want))
    elapsed = time.monotonic() - started
    # one hyperelliptic semigroup per genus, times three values of n
    ok = not violations and checked["hyperelliptic"] == 33
    _report("gap_sum_formulas_all_symmetric", ok,
            ", ".join(f"{count} {kind}" for kind, count in checked.items())
            + f" (semigroup, n) pairs; {len(violations)} violations"
            f" in {elapsed:.1f}s"
            + (f"; first: {violations[0][0]} gaps={violations[0][1]} "
               f"n={violations[0][2]} got {violations[0][3]} "
               f"want {violations[0][4]}" if violations else ""))
    assert checked["hyperelliptic"] == 33, checked
    assert not violations, (
        f"{len(violations)} gap-sum formula counterexamples: {violations[:3]}")


def test_coprime_element_bound_exhaustive(by_genus):
    checked = 0
    for g in range(13):
        for H in by_genus(g):
            for n in (2, 3, 5, 7):
                bound = coprime_lower_bound(H, n)
                for h in range(1, H.conductor + n + 1):
                    if h in H and math.gcd(h, n) == 1:
                        assert h >= bound
                        checked += 1
    # sharpness: the generated witnesses attain the bound exactly
    for (n, gamma, g) in ((2, 1, 10), (2, 0, 5)):
        H = superelliptic_sharp(n, gamma, g).semigroup
        bound = coprime_lower_bound(H, n)
        attained = min(h for h in range(1, H.conductor + n + 1)
                       if h in H and math.gcd(h, n) == 1)
        assert attained == bound
    _report("coprime_element_bound_exhaustive", True,
            f"{checked} coprime elements cleared; sharp at (2,1,10) and (2,0,5)")


def test_gamma_fit_and_forced_structure(by_genus):
    fits = pairs = 0
    for g in range(13):
        for H in by_genus(g):
            for n in range(1, 8):
                # gamma_n always fits (a) and (c), and 2N*gamma_n is an element
                gamma = natural_gamma(H, n)
                v = type_verdict(H, n, gamma)
                assert v.cond_a and v.cond_c and 2 * n * gamma in H, (H.gaps, n)
                fits += 1
    for g in range(13):
        for H in by_genus(g):
            for n in range(1, 6):
                for gamma in range(7):
                    v = type_verdict(H, n, gamma)
                    if v.cond_a and v.cond_c:
                        # (a) and (c) force gamma = gamma_n, and every kN
                        # from 2N*gamma on is an element
                        assert natural_gamma(H, n) == gamma, (H.gaps, n, gamma)
                        assert all(k * n in H for k in
                                   range(2 * gamma, H.frobenius // n + 1)), (H.gaps, n)
                        pairs += 1
    _report("gamma_fit_and_forced_structure", True,
            f"{fits} gamma fits, {pairs} (a)+(c) grid points verified")


def test_bound_identities_grid():
    points = 0
    for gamma in range(1, 21):
        for n in PRIMES_19:
            assert rho1(2 * gamma, n, gamma) == n * n * gamma - n + 1
            assert rho4(2 * gamma + 2, n - 1, n, gamma) == rho3(n, gamma)
            for a in range(gamma + 2, 4 * gamma + 9):
                u = rho4_u(a, n, gamma)
                assert castelnuovo_c(a * n, a - gamma) == rho4(a, u, n, gamma)
                points += 1
    _report("bound_identities_grid", True, f"{points} grid points exact")


def _cover_tuples(gamma):
    tuples = []
    for n in (2, 3):
        lo = rho3(n, gamma) + 1
        count = 0
        for g in range(lo, lo + 30):
            if (2 * g - 1) % n == 0:
                continue
            tuples.append((n, g, 1))
            count += 1
            if count == 3:
                break
    # second-branch tuples: f = 2 with 2u = n + 1
    for n in (3, 5):
        lo = rho3(n, gamma) + 1
        count = 0
        for g in range(lo, lo + 10 * n):
            if g % n != (n + 1) // 2 or (2 * g - 2) % n == 0:
                continue
            tuples.append((n, g, 2))
            count += 1
            if count == 2:
                break
    return tuples


def test_cover_family_grid():
    bases = {
        "small_symmetric": from_generators([2, 3]),
        "symmetric": from_generators([2, 5]),
        "quasi_symmetric": from_generators([3, 4, 5]),
        "buchweitz": from_gaps(BUCHWEITZ_GAPS),
    }
    total = 0
    for name, htilde in bases.items():
        gamma = htilde.genus
        branches = set()
        built = 0
        for (n, g, f) in _cover_tuples(gamma):
            result = cover_family(htilde, n, g, f)
            H = result.semigroup
            assert H.genus == g
            assert H.frobenius == 2 * g - f
            assert type_verdict(H, n, gamma).is_type
            assert project_by_n(H, n, gamma) == htilde
            expected = g + 1 if result.family == "cover_h2" else g
            assert result.diagnostics["U"] + result.diagnostics["V"] == expected
            branches.add(result.family)
            built += 1
        assert built >= 5, (name, built)
        assert branches == {"cover_h1", "cover_h2"}, (name, branches)
        total += built
    _report("cover_family_grid", True,
            f"{total} lifts over 4 base semigroups, both branches exercised")


def test_spurious_divisor_counterexample():
    result = superelliptic_spurious(2, 1, 3, 3, 16)
    H = result.semigroup
    ok = H == from_generators([3, 17])
    ok &= H.genus == 16
    ok &= H.element_at(3 - 1) == 6 == 3 * 2
    ok &= divisor_condition(3, 2, 1) is False
    ok &= type_verdict(H, 2, 1).is_type is False
    _report("spurious_divisor_counterexample", ok, "gens 3,17 checks complete")
    assert ok


def _brute_force_gap_sets(g):
    if g == 0:
        return {()}
    found = set()
    for combo in combinations(range(1, 2 * g), g):
        gapset = set(combo)
        top = max(gapset)
        nongaps = [x for x in range(1, top) if x not in gapset]
        if all(a + b not in gapset
               for i, a in enumerate(nongaps)
               for b in nongaps[i:] if a + b <= top):
            found.add(combo)
    return found


def test_enumeration_against_bruteforce_and_scan(by_genus, capsys):
    expected_counts = []
    for g in range(9):
        brute = _brute_force_gap_sets(g)
        enumerated = {H.gaps for H in by_genus(g)}
        assert enumerated == brute, f"genus {g} mismatch"
        expected_counts.append(len(brute))
    code = cli_run(["scan", "--genus", "0..8", "--predicate", "bc_fail"])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["matched"] == 0
    assert summary["scanned"] == sum(expected_counts)
    _report("enumeration_against_bruteforce_and_scan", True,
            f"counts {expected_counts}; bc_fail scan empty")
