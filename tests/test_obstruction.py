"""Gap-sum profiles, the closed-form candidate set, and the pairing test."""

import math
from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgp.core import (SUMSET_CACHED_LEVELS, WORK_CAP, NumericalSemigroup, _bit_positions,
                      _exceptional_bits, _multiples, descendants, from_gaps,
                      from_generators, tree_children)
from sgp.errors import CapExceeded, GenusTooSmall
from sgp.obstruction import (INCONCLUSIVE, NOT_WEIERSTRASS, bc_test, gap_sum_profile,
                             pair_sum_extras, pairing_obstruction)

BUCHWEITZ_GAPS = tuple(range(1, 13)) + (19, 21, 24, 25)


def brute_sums(gaps, n):
    return sorted(set(sum(c) for c in combinations_with_replacement(gaps, n)))


def test_profile_symmetric_equality_case():
    p = gap_sum_profile(from_generators([2, 5]), 2)
    assert p.sums == (2, 4, 6)
    assert p.cardinality == 3 == p.bc_bound
    assert p.passes_bc
    assert p.excess is None  # last gap is 2g-1, outside the excess regime


def test_profile_buchweitz():
    H = from_gaps(BUCHWEITZ_GAPS)
    p = gap_sum_profile(H, 2)
    assert p.cardinality == len(brute_sums(BUCHWEITZ_GAPS, 2)) == 46
    assert p.bc_bound == 45
    assert not p.passes_bc
    assert p.excess == 46 - 24 - 16 == 6


def test_profile_quasi_symmetric_case():
    p = gap_sum_profile(from_generators([3, 4, 5]), 3)
    assert p.sums == (3, 4, 5, 6)
    assert p.cardinality == 4 <= p.bc_bound == 5
    assert p.cardinality == (2 * 3 - 1) * (2 - 1) - (3 - 2)


def test_profile_guards():
    with pytest.raises(GenusTooSmall):
        gap_sum_profile(from_generators([2, 3]), 2)
    with pytest.raises(ValueError):
        gap_sum_profile(from_generators([2, 5]), 1)
    with pytest.raises(ValueError, match="need n >= 2"):
        bc_test(1)


def test_sumset_width_cap():
    # the work cap refuses a wide sumset before any level is built; <3, 4>
    # has genus 3 and frobenius 5
    H = from_generators([3, 4])
    for check in (gap_sum_profile, lambda H, n: bc_test(n)(H)):
        with pytest.raises(CapExceeded, match="sumset work .* exceeds cap"):
            check(H, 10**7)
    assert H._sumsets == ()
    assert gap_sum_profile(H, 3).cardinality == len(brute_sums(H.gaps, 3))
    assert bc_test(3)(H) is False


def sumset_shell(m, frobenius, built):
    """The semigroup of the multiples of m and every integer above
    ``frobenius``, as a shell with only the fields _sumset's work check
    reads, and ``built`` kept levels (one at least) that are empty bitsets:
    past the check, its levels build from nothing, so nothing wide is
    allocated.  Its elements up to F/2 are the multiples of m alone, the
    fewest a multiplicity m allows, so the constructor's closure estimate
    admits the largest F there is for m."""
    H = object.__new__(NumericalSemigroup)
    H.frobenius, H.conductor = frobenius, frobenius + 1
    H._member_bits = _multiples(m, frobenius // m) | 1 | 2 << frobenius
    H._sumsets = (0,) * max(built, 1)
    return H


def _closure_estimate(H):
    """The constructor's closure sieve estimate for H's gaps."""
    half = H.frobenius // 2
    return (half - (H._gap_bits() & ((2 << half) - 1)).bit_count()) * H.conductor


# the widest level the work cap admits, from the two estimates: a level
# costs s >= (m - 1) + bitlen(F // m) shift-ors (a class holding F has more
# than F // m gaps), and the closure estimate (F // 2 // m) * (F + 1) <= cap
# bounds F for each m; over all m, n and kept levels the widest n * F is
# 25,041,726 bits, at m = 387, F = 2,782,414, n = 9 from 8 kept levels
WIDEST_SUMSET_LEVEL = 25_041_726


@given(st.integers(2, 10**6), st.data())
@settings(max_examples=300, deadline=None)
def test_work_cap_bounds_sumset_width(n, data):
    # whatever the work cap admits, on a semigroup the constructor admits,
    # is at most WIDEST_SUMSET_LEVEL bits wide
    built = data.draw(st.integers(0, min(n - 1, SUMSET_CACHED_LEVELS)))
    m = data.draw(st.integers(2, 40) | st.integers(300, 500) | st.integers(2, 5000))
    frobenius = data.draw(st.integers(m + 1, 10**6 // n + m + 1)
                          | st.integers(m + 1, 3 * 10**6))
    frobenius += frobenius % m == 0
    H = sumset_shell(m, frobenius, built)
    if _closure_estimate(H) > WORK_CAP:
        return
    try:
        H._sumset(n)
    except CapExceeded:
        return
    assert n * frobenius <= WIDEST_SUMSET_LEVEL


def test_work_cap_width_boundary():
    # the widest level the work cap admits on a semigroup: n = 9 from 8
    # kept levels, m = 386 and F = 2,778,548, whose closure estimate is
    # 3,599 * 2,778,549 = 9,999,997,851.  A level takes 399 shift-ors, 385
    # classes and 14 doublings: work 9,977,765,868, width 25,006,932 bits
    H = sumset_shell(386, 2_778_548, 8)
    assert _closure_estimate(H) == 9_999_997_851
    H._sumset(9)
    assert 9 * H.frobenius == 25_006_932 > 0.998 * WIDEST_SUMSET_LEVEL
    # one step past: the next F is refused by the constructor, and n = 10
    # (two levels to build) by the sumset estimate
    assert _closure_estimate(sumset_shell(386, 2_778_549, 8)) > WORK_CAP
    with pytest.raises(CapExceeded, match="= 22172813040 exceeds cap"):
        sumset_shell(386, 2_778_548, 8)._sumset(10)


def test_sumset_work_cap(monkeypatch):
    # the check, not the blow-up: new levels * shift-ors * n * frobenius
    # against the cap, before a level is built.  <3, 4> has frobenius 5
    # and Apery set {0, 4, 8}: classes of one and two gaps, so a level
    # takes 3 shift-ors, two classes and one doubling
    import sgp.core
    monkeypatch.setattr(sgp.core, "WORK_CAP", 180)
    H = from_generators([3, 4])
    # levels 2..4 from scratch: 3 * 3 * 20 = 180
    assert gap_sum_profile(H, 4).cardinality == len(brute_sums(H.gaps, 4))
    for check in (gap_sum_profile, lambda H, n: bc_test(n)(H)):
        with pytest.raises(CapExceeded, match="work .* = 300 exceeds cap 180"):
            check(NumericalSemigroup(H.gaps), 5)  # 4 * 3 * 25
    # H keeps levels 1..4, so n = 5 builds one level: 1 * 3 * 25
    assert gap_sum_profile(H, 5).cardinality == len(brute_sums(H.gaps, 5))
    # <2, 11> has five gaps in one class: one shift-or and three doublings
    # a level, where the per-gap build took five; levels 2..3: 2 * 4 * 27
    H = from_generators([2, 11])
    monkeypatch.setattr(sgp.core, "WORK_CAP", 215)
    with pytest.raises(CapExceeded, match="= 216 exceeds cap 215"):
        gap_sum_profile(H, 3)
    monkeypatch.setattr(sgp.core, "WORK_CAP", 216)
    assert gap_sum_profile(H, 3).sums == tuple(brute_sums(H.gaps, 3))
    # a tree child carries the levels its parent kept, so it pays nothing
    monkeypatch.setattr(sgp.core, "WORK_CAP", 180)
    root = from_generators([3, 4, 5])
    gap_sum_profile(root, 5)  # 4 * 2 * 10: two classes of one gap
    monkeypatch.setattr(sgp.core, "WORK_CAP", 0)
    children = tree_children(root)
    assert len(children) == 3
    for child in children:
        assert gap_sum_profile(child, 5).sums == tuple(brute_sums(child.gaps, 5))
        with pytest.raises(CapExceeded, match="sumset work"):
            gap_sum_profile(NumericalSemigroup(child.gaps), 5)


def sumsets_by_gaps(H, n):
    """Reference: the levels S_1 .. S_n, each built from the last by one
    shift-or per gap."""
    levels = [H._gap_bits()]
    for _ in range(n - 1):
        nxt = 0
        for gap in H.gaps:
            nxt |= levels[-1] << gap
        levels.append(nxt)
    return levels


def test_sumsets_match_per_gap_reference_exhaustive():
    # every semigroup to genus 14, n = 2..5: the levels a fresh semigroup
    # builds by progressions, and those a tree child carries, since each
    # node fills its levels before its children are built
    for H in descendants(NumericalSemigroup(), 14):
        ref = sumsets_by_gaps(H, 5)
        fresh = NumericalSemigroup(H._gap_bits())
        for n in range(2, 6):
            assert fresh._sumset(n) == ref[n - 1] == H._sumset(n), (H.gaps, n)


@pytest.mark.parametrize("k", [2, 5, SUMSET_CACHED_LEVELS])
def test_sumsets_carried_down_a_chain_match_reference(k):
    # a walk from the naturals seeded with k empty levels, as a scan seeds
    # its root: every node holds k levels carried from its parent and reads
    # nothing else; past the kept levels, level 9 builds on the 8 carried
    root = NumericalSemigroup()
    root._sumsets = (0,) * k
    for H in descendants(root, 12):
        ref = sumsets_by_gaps(H, SUMSET_CACHED_LEVELS + 1)
        assert H._sumsets == tuple(ref[:k]), (H.gaps, k)
        if k == SUMSET_CACHED_LEVELS:
            assert H._sumset(k + 1) == ref[k], H.gaps
            assert len(H._sumsets) == k, H.gaps


@given(st.lists(st.integers(2, 60), min_size=1, max_size=4), st.integers(2, 5))
@settings(max_examples=150, deadline=None)
def test_sumsets_match_per_gap_reference_generated(gens, n):
    if math.gcd(*gens) != 1:
        gens.append(gens[0] + 1)
    H = from_generators(gens)
    early = tree_children(H)  # built before H has levels: they build their own
    assert H._sumset(n) == sumsets_by_gaps(H, n)[-1], (gens, n)
    for kid in early + tree_children(H):
        assert kid._sumset(n) == sumsets_by_gaps(kid, n)[-1], (gens, n, kid.frobenius)


def _assert_carried_sumsets_match_fresh(root, max_genus, order):
    """Walk the tree below root and fill each node's gap sumsets, n in the
    given order, before its children are built, so every child of a filled
    node derives its sumsets from its parent's.  Each must equal the ones a
    freshly constructed semigroup builds gap by gap."""
    tests = {n: bc_test(n) for n in (2, 3, 4)}
    for H in descendants(root, max_genus):
        if H.genus < 2:
            continue
        for n in order:
            tests[n](H)
        fresh = NumericalSemigroup(H.gaps)
        for n in (2, 3, 4):
            p = gap_sum_profile(H, n)
            assert p.sums == gap_sum_profile(fresh, n).sums, (H.gaps, n)
            assert tests[n](H) == (not p.passes_bc)


@pytest.mark.parametrize("order", [(2, 3), (3, 2)])
def test_carried_sumsets_match_fresh_exhaustive(order):
    _assert_carried_sumsets_match_fresh(NumericalSemigroup(), 15, order)


@st.composite
def _small_generator_lists(draw):
    gens = draw(st.lists(st.integers(2, 16), min_size=1, max_size=4))
    if math.gcd(*gens) != 1:
        gens.append(gens[0] + 1)
    return gens


@given(_small_generator_lists(), st.sampled_from([(2, 3), (3, 2)]))
@settings(max_examples=60, deadline=None)
def test_carried_sumsets_match_fresh_generated(gens, order):
    root = from_generators(gens)
    _assert_carried_sumsets_match_fresh(root, root.genus + 2, order)


def test_sumset_cache_keeps_few_levels():
    # levels past the cached ones are built from the last kept level
    H = from_generators([3, 4, 5])
    n = SUMSET_CACHED_LEVELS + 4
    assert gap_sum_profile(H, n).sums == tuple(brute_sums(H.gaps, n))
    assert len(H._sumsets) == SUMSET_CACHED_LEVELS
    kid = tree_children(H)[1]
    assert kid.gaps == (1, 2, 4)
    assert len(kid._sumsets) == SUMSET_CACHED_LEVELS
    assert gap_sum_profile(kid, n).sums == tuple(brute_sums(kid.gaps, n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bc_test_matches_profile_exhaustive(n):
    test = bc_test(n)
    for H in descendants(NumericalSemigroup(), 13):
        if H.genus >= 3:
            # the test ran on H's parent, so H carries its sumsets
            assert len(H._sumsets) >= n, H.gaps
        expected = (H.genus >= 2
                    and not gap_sum_profile(NumericalSemigroup(H.gaps), n).passes_bc)
        assert test(NumericalSemigroup(H.gaps)) == test(H) == expected, (H.gaps, n)


def test_bc_test_at_buchweitz_example():
    # #G_2 = 46 against the bound 3 * 15 = 45, while #G_3 and #G_4 pass
    H = from_gaps(BUCHWEITZ_GAPS)
    assert [bc_test(n)(H) for n in (2, 3, 4)] == [True, False, False]
    assert [gap_sum_profile(H, n).passes_bc for n in (2, 3, 4)] == [False, True, True]


def test_bc_test_reads_carried_levels(monkeypatch):
    # walk down to Buchweitz's example, testing each node on the way, so
    # the example carries the levels it is tested on; carried levels cost
    # no work, so they are read even past the work cap
    import sgp.core
    for n, expected in ((2, True), (3, False), (4, False)):
        test = bc_test(n)
        H = NumericalSemigroup()
        for x in BUCHWEITZ_GAPS:
            test(H)
            H = next(kid for kid in tree_children(H) if kid.frobenius == x)
        assert H.gaps == BUCHWEITZ_GAPS and len(H._sumsets) >= n
        assert test(H) is expected
        monkeypatch.setattr(sgp.core, "WORK_CAP", 0)
        assert test(H) is expected
        with pytest.raises(CapExceeded, match="sumset work .* exceeds cap 0"):
            test(NumericalSemigroup(H.gaps))
        monkeypatch.undo()


def test_profile_matches_bruteforce(by_genus):
    for g in range(2, 9):
        for H in by_genus(g):
            for n in (2, 3, 4):
                p = gap_sum_profile(H, n)
                assert list(p.sums) == brute_sums(H.gaps, n)
                assert p.sums[0] == n * H.gaps[0]
                assert p.sums[-1] == n * H.frobenius


def test_sum_formulas_by_symmetry_kind(by_genus):
    # symmetric: (2n-1)(g-1), except the hyperelliptic semigroup, whose
    # all-odd gaps confine sums to one parity class: n(g-1)+1 exactly;
    # quasi-symmetric: (2n-1)(g-1)-(n-2), no exceptions
    for g in range(2, 13):
        for H in by_genus(g):
            for n in (2, 3, 4):
                card = gap_sum_profile(H, n).cardinality
                if H.frobenius == 2 * g - 1:
                    if 2 in H:
                        assert card == n * (g - 1) + 1
                    else:
                        assert card == (2 * n - 1) * (g - 1)
                elif H.frobenius == 2 * g - 2:
                    assert card == (2 * n - 1) * (g - 1) - (n - 2)


def test_excess_nonnegative_in_regime(by_genus):
    for g in range(2, 13):
        for H in by_genus(g):
            if H.frobenius <= 2 * g - 2:
                assert gap_sum_profile(H, 2).excess >= 0


def test_sumsets_monotone_under_smallest_gap(by_genus):
    for g in range(2, 11):
        for H in by_genus(g):
            prev = set(gap_sum_profile(H, 2).sums)
            for n in (3, 4):
                cur = set(gap_sum_profile(H, n).sums)
                assert {s + H.gaps[0] for s in prev} <= cur
                prev = cur


def test_conjectured_subset_holds_in_regime(by_genus):
    # for last gap <= 2g - 2 the closed-form candidate for G_n lies inside
    # it: {n, ..., (n-1)*last_gap} and every (n-1)*gap_k + gap_j
    for g in range(2, 11):
        for H in by_genus(g):
            ell = H.frobenius
            if ell <= 2 * g - 2:
                for n in (2, 3):
                    candidate = set(range(n, (n - 1) * ell + 1))
                    candidate |= {(n - 1) * gk + gj for gk in H.gaps for gj in H.gaps}
                    assert candidate <= set(gap_sum_profile(H, n).sums), (H.gaps, n)


def test_pairing_obstruction_buchweitz():
    H = from_gaps(BUCHWEITZ_GAPS)
    assert pairing_obstruction(H) == NOT_WEIERSTRASS
    # six sums beyond the guaranteed baseline, the 2i - 2 = 6 that certify it
    assert pair_sum_extras(H) == (38, 40, 42, 43, 45, 48)


def test_pair_sum_extras_matches_set_reference(by_genus):
    for g in range(2, 14):
        for H in by_genus(g):
            ell = H.frobenius
            baseline = set(range(2, ell + 1)) | {ell + gap for gap in H.gaps}
            expected = tuple(s for s in brute_sums(H.gaps, 2) if s not in baseline)
            assert pair_sum_extras(H) == expected, H.gaps
    with pytest.raises(GenusTooSmall):
        pair_sum_extras(from_generators([2, 3]))


def test_pairing_obstruction_guards():
    # the count reads any shape of last gap: 2g - 1 (i = 1) and even
    assert pairing_obstruction(from_generators([2, 5])) == INCONCLUSIVE
    assert pairing_obstruction(from_generators([3, 4, 5])) == INCONCLUSIVE
    with pytest.raises(GenusTooSmall):
        pairing_obstruction(from_generators([2, 3]))
    # the old pairing shape (g = 12, i = 4): #G_2 = 28 is the baseline 3g - 2i
    # alone, within the bound 3 * 11, so nothing is certified
    H = from_gaps([1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 17])
    assert pairing_obstruction(H) == INCONCLUSIVE
    assert gap_sum_profile(H, 2).cardinality == 28


def test_pairing_literal_condition_vs_direct_count():
    # at g = 9i-18 the chain sum h1+h2 equals last_gap + h3, so the literal
    # chain condition holds while the direct excess stays at 2i-3 and the
    # pairwise bound is met exactly: the count certifies nothing
    H = from_gaps(tuple(range(1, 15)) + (22, 24, 27, 29))
    assert pairing_by_chain(H) == (NOT_WEIERSTRASS, True)
    assert pairing_obstruction(H) == INCONCLUSIVE
    p = gap_sum_profile(H, 2)
    assert p.excess == 5 == 2 * 4 - 3
    assert p.passes_bc
    assert 27 + 24 == H.frobenius + 22


def _chain_pairs(i):
    pairs = [(1, v) for v in range(1, i)]
    for u in range(2, i):
        pairs.append((u, u))
        if u + 1 <= i - 1:
            pairs.append((u, u + 1))
    return pairs


def test_pairing_implies_bound_failure_when_sums_are_extra(by_genus):
    # the literal chain condition implies the bound failure exactly when
    # every chain sum misses the baseline (h_u + h_v - last_gap not a gap);
    # disagreements are collisions like the one pinned in the test above,
    # where the verdict, which counts, is inconclusive
    from sgp.classify import symmetry_profile

    disagreements = []
    for g in range(2, 13):
        for H in by_genus(g):
            if pairing_by_chain(H)[0] != NOT_WEIERSTRASS:
                continue
            ell = H.frobenius
            i = (2 * g + 1 - ell) // 2
            hs = symmetry_profile(H).exceptional_gaps
            extras_ok = all(hs[u - 1] + hs[v - 1] - ell not in H.gaps
                            for u, v in _chain_pairs(i))
            p = gap_sum_profile(H, 2)
            if extras_ok:
                assert not p.passes_bc
                assert p.excess >= 2 * i - 2
                assert pairing_obstruction(H) == NOT_WEIERSTRASS
            else:
                disagreements.append(H.gaps)
                assert p.excess >= 2 * i - 3
                assert pairing_obstruction(H) == INCONCLUSIVE
    # exactly one collision shape exists below genus 13
    assert disagreements == [tuple(range(1, 9)) + (13, 14, 16, 17)]


def pairing_by_definition(H):
    """pairing_obstruction from its definition: the pairwise gap sums,
    listed pair by pair, against 3(g - 1)."""
    if len(brute_sums(H.gaps, 2)) > 3 * (H.genus - 1):
        return NOT_WEIERSTRASS
    return INCONCLUSIVE


def test_pairing_obstruction_matches_profile_version_exhaustive():
    # every node of genus 2..16, where the first two verdicts occur
    seen = Counter()
    for H in descendants(NumericalSemigroup(), 16):
        if H.genus < 2:
            continue
        want = pairing_by_definition(H)
        assert pairing_obstruction(H) == want, H.gaps
        seen[want] += 1
    # both outcomes occur, so the comparison is not vacuous
    assert seen[NOT_WEIERSTRASS] == 2 and seen[INCONCLUSIVE] > 0


def pairing_by_chain(H):
    """The literal exceptional-gap chain that the pairwise count replaced:
    with h_1 > ... > h_{i-1} the exceptional gaps, "not_weierstrass" when
    h_1 + h_{i-1} > 2 h_2 and 2 ell - s is a gap for every chain sum s
    (h_1 against every h_v, then h_u + h_{u+1} and 2 h_u for u >= 2).  Also
    returns whether the chain ran.  It is unsound where a chain sum lands in
    the guaranteed baseline, so it is a reference here, not a verdict."""
    g, ell = H.genus, H.frobenius
    if g == 0 or ell % 2 == 0 or g - ell // 2 < 4:
        return None, False
    hs = _bit_positions(_exceptional_bits(H))[::-1]
    if not hs[0] + hs[-1] > 2 * hs[1]:
        return INCONCLUSIVE, False
    rest = hs[1:]
    sums = [hs[0] + h for h in hs] + [a + b for a, b in zip(rest, rest[1:])]
    sums += [2 * h for h in rest]
    if any(2 * ell - s in H for s in sums):
        return INCONCLUSIVE, True
    return NOT_WEIERSTRASS, True


def test_pairing_verdict_matches_chain_reference_exhaustive():
    # every node to genus 19: the verdict is the brute-force count, so it
    # keeps each chain verdict that the count certifies and drops each that
    # it does not; the chain outcomes are over pairing-shape nodes, the
    # verdicts per genus over all nodes
    outcomes, verdicts = Counter(), Counter()
    for H in descendants(NumericalSemigroup(), 19):
        g = H.genus
        if g < 2:
            continue
        certified = len(brute_sums(H.gaps, 2)) > 3 * (g - 1)
        want = NOT_WEIERSTRASS if certified else INCONCLUSIVE
        assert pairing_obstruction(H) == want, H.gaps
        verdicts[g] += certified
        chain, _ = pairing_by_chain(H)
        if chain is not None:
            outcomes[chain == NOT_WEIERSTRASS, certified] += 1
    # 22 sound chain verdicts kept, 111 unsound ones dropped, 27 new
    assert outcomes[True, True] == 22 and outcomes[True, False] == 111
    assert outcomes[False, True] == 27
    # over pairing-shape nodes alone these are 14 and 27 at genus 18 and 19:
    # the five more have an even last gap
    assert [verdicts[g] for g in range(15, 20)] == [0, 2, 6, 15, 31]


def test_exceptional_gap_count_is_forced_exhaustive():
    # symmetry_profile reads i - 1 exceptional gaps without counting them:
    # with last gap ell = 2g - 2i + 1, the g - 1 gaps below ell fill the
    # g - i pairs {k, ell - k}, one at least in each, so exactly i - 1
    # pairs are all gaps, and each has its larger gap in (g - i, ell)
    shapes = 0
    for H in descendants(NumericalSemigroup(), 16):
        g, ell = H.genus, H.frobenius
        if g == 0 or ell % 2 == 0:
            continue
        i = g - ell // 2
        hs = [h for h in range(ell - 1, g - i, -1)
              if h not in H and ell - h not in H]
        assert len(hs) == i - 1, H.gaps
        shapes += i >= 4
    assert shapes > 0


def test_pairing_verdict_reads_the_capped_sumset():
    # Buchweitz's gaps at g = 10^5, i = 4: the verdict counts the pairwise
    # sumset, so it is refused before a level is built, as the profile is
    g, i = 10**5, 4
    h1 = (3 * g + 5 * i - 20) // 2
    H = from_gaps([*range(1, g - i + 1), h1 - 3, h1 - 5, h1, 2 * g - 2 * i + 1])
    assert (H.genus, H.frobenius) == (g, 2 * g - 2 * i + 1)
    for check in (pairing_obstruction, lambda H: gap_sum_profile(H, 2)):
        with pytest.raises(CapExceeded, match="sumset work .* exceeds cap"):
            check(H)
    assert H._sumsets == ()
