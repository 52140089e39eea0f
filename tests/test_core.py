"""Core representation: construction, indexing, Apery data, enumeration."""

import math
import sys
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgp.core
from sgp.core import (NumericalSemigroup, _bit_positions, _exceptional_bits, _genus_shards,
                      _mirror, apery_profile, descendants, enumerate_genus_range, format_semigroup,
                      from_gaps, from_generators, natural_gamma,
                      parse_semigroup, tree_children)
from sgp.errors import (CapExceeded, EmptyInput, GcdNotOne, NotAnElement,
                        NotASemigroup, SemigroupError)


def sieve_elements(gens, bound):
    """Independent oracle: reachable sums of the generators up to bound."""
    els = {0}
    for n in range(1, bound + 1):
        if any(a <= n and n - a in els for a in gens):
            els.add(n)
    return els


def _bit_positions_by_definition(bits):
    """The set bits of bits >= 0, ascending, tested one at a time, a byte at
    a time so that 10^5 bits take linear time."""
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    return tuple(8 * i + j for i, byte in enumerate(data) for j in range(8)
                 if byte >> j & 1)


def test_bit_positions_match_definition_exhaustive():
    assert _bit_positions(0) == () == _bit_positions_by_definition(0)
    for bits in range(1 << 12):
        assert _bit_positions(bits) == _bit_positions_by_definition(bits), bits


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.binary(max_size=12_500).map(lambda b: int.from_bytes(b, "little")),
    st.sets(st.integers(0, 10**5 - 1), max_size=40).map(
        lambda ps: sum(1 << p for p in ps))))
def test_bit_positions_match_definition_generated(bits):
    assert _bit_positions(bits) == _bit_positions_by_definition(bits)


def test_from_generators_trivial_cases():
    assert from_generators([1]).gaps == ()
    assert from_generators([1]).genus == 0
    assert from_generators([1]).frobenius == -1
    H = from_generators([2, 3])
    assert H.gaps == (1,)
    assert H.genus == 1
    assert H.frobenius == 1
    assert H != (1,)  # a tuple of gaps is not a semigroup
    assert repr(from_generators([3, 5])) == "NumericalSemigroup(gens=[3, 5])"


def test_from_generators_sieve_oracle():
    for gens in ([4, 7], [3, 5], [4, 6, 17], [5, 7, 9], [6, 10, 15]):
        H = from_generators(gens)
        bound = H.conductor + max(gens)
        els = sieve_elements(gens, bound)
        assert H.gaps == tuple(n for n in range(1, bound + 1) if n not in els)[: H.genus]
        assert all(n in H for n in els)
    assert from_generators([4, 7]).gaps == (1, 2, 3, 5, 6, 9, 10, 13, 17)
    assert from_generators([4, 7]).genus == 9


def test_from_generators_errors():
    with pytest.raises(EmptyInput):
        from_generators([])
    with pytest.raises(GcdNotOne):
        from_generators([4, 6])
    with pytest.raises(ValueError):
        from_generators([0, 3])


def sieve_from_generators(gens):
    """from_generators as a per-number sieve over a window that doubles
    until a full run of a_1 members follows the last gap: the oracle for
    the shift-or build inside Schur's bound, error messages included."""
    gen_list = sorted(set(gens))
    if not gen_list:
        raise EmptyInput("need at least one generator")
    if gen_list[0] < 1:
        raise ValueError("generators must be positive integers")
    if reduce(math.gcd, gen_list) != 1:
        raise GcdNotOne(f"gcd of {gen_list} is not 1")
    if gen_list[0] == 1:
        return NumericalSemigroup(())
    m1 = gen_list[0]
    bound = 4 * gen_list[-1]
    while True:
        reachable = bytearray(bound + 1)
        reachable[0] = 1
        for n in range(m1, bound + 1):
            for a in gen_list:
                if a > n:
                    break
                if reachable[n - a]:
                    reachable[n] = 1
                    break
        frobenius = max((n for n in range(1, bound + 1) if not reachable[n]),
                        default=0)
        if frobenius + m1 <= bound:
            return NumericalSemigroup(
                n for n in range(1, frobenius + 1) if not reachable[n])
        bound *= 2


def _build_outcome(build, gens):
    """The gaps ``build`` gives, or the type and message of its error."""
    try:
        return build(gens).gaps
    except (SemigroupError, ValueError) as exc:
        return type(exc), str(exc)


def test_from_generators_matches_sieve_exhaustive():
    # every set of at most 3 generators from [1, 24], the empty set included
    for k in range(4):
        for gens in combinations(range(1, 25), k):
            assert (_build_outcome(from_generators, gens)
                    == _build_outcome(sieve_from_generators, gens)), gens


@given(st.lists(st.integers(-1, 80), max_size=5))
@settings(max_examples=300, deadline=None)
def test_from_generators_matches_sieve_generated(gens):
    assert (_build_outcome(from_generators, gens)
            == _build_outcome(sieve_from_generators, gens))


def test_from_generators_window_cap(monkeypatch):
    # <4, 7> sieves below Schur's bound (4 - 1)(7 - 1) = 18 by 3 + 2
    # shift-ors (4, 8, 16 and 7, 14): work 90.  A gcd-1 prefix ends the
    # window, so a huge generator past it costs nothing
    monkeypatch.setattr(sgp.core, "WORK_CAP", 144)
    assert from_generators([4, 7]).gaps == (1, 2, 3, 5, 6, 9, 10, 13, 17)
    assert from_generators([2, 3, 4 * 10**9 + 1]).gaps == (1,)
    assert from_generators([4, 6, 7, 9]).gaps == (1, 2, 3, 5)  # 8 * 18

    def never_built(*args):
        raise AssertionError("built past the work cap")

    monkeypatch.setattr(sgp.core, "_bit_positions", never_built)
    with pytest.raises(CapExceeded):
        from_generators([4, 6, 8, 9])  # the prefix ends at 9: 9 * (4 - 1)(9 - 1)
    monkeypatch.setattr(sgp.core, "WORK_CAP", 89)
    with pytest.raises(CapExceeded) as err:
        from_generators([4, 7])
    assert str(err.value) == "generator sieve work shift-ors * window = 90 exceeds cap 89"
    # <10, 11> sieves a window of 90 in 8 shift-ors (720), and its closure
    # check shifts by the 14 elements up to F/2 = 44 (1,260): refused before
    # its gaps are decoded, so no tuple of gaps is built
    monkeypatch.setattr(sgp.core, "WORK_CAP", 1_000)
    with pytest.raises(CapExceeded) as err:
        from_generators([10, 11])
    assert str(err.value) == ("closure sieve work (elements <= F/2) * conductor"
                              " = 1260 exceeds cap 1000")


def test_closure_work_checked_before_any_bitset(monkeypatch):
    # read from the sorted gap list: a 10^11-bit membership set is never built
    with pytest.raises(CapExceeded) as err:
        from_gaps([1, 10**11])  # 5 * 10^10 - 1 elements <= F/2, 10^11 + 1 bits
    assert str(err.value) == ("closure sieve work (elements <= F/2) * conductor"
                              f" = {(5 * 10**10 - 1) * (10**11 + 1)} exceeds cap {10**10}")
    # the estimate from_generators reads from its window, from the gap list
    H = from_generators([10, 11])
    monkeypatch.setattr(sgp.core, "WORK_CAP", 1_259)
    with pytest.raises(CapExceeded, match=" = 1260 exceeds cap 1259"):
        from_gaps(H.gaps)
    monkeypatch.setattr(sgp.core, "WORK_CAP", 1_260)
    assert from_gaps(H.gaps) == H


def test_closure_work_counts_each_gap_once(monkeypatch):
    # a gap listed twice, or in any order, leaves the estimate as it is, and
    # the list is refused before the bytearray its bitset is read from
    gaps = from_generators([10, 11]).gaps

    def never(*args):
        raise AssertionError("allocated past the work cap")

    monkeypatch.setattr(sgp.core, "WORK_CAP", 1_259)
    monkeypatch.setattr(sgp.core, "bytearray", never, raising=False)
    for listed in ([*gaps, *gaps[:20]], [*reversed(gaps), *gaps[:5]], set(gaps)):
        with pytest.raises(CapExceeded, match=" = 1260 exceeds cap 1259"):
            from_gaps(listed)


def test_from_gaps():
    assert from_gaps({1}).min_generators == (2, 3)
    buch = from_gaps(list(range(1, 13)) + [19, 21, 24, 25])
    assert buch.genus == 16
    assert buch.frobenius == 25
    with pytest.raises(NotASemigroup) as exc:
        from_gaps({1, 4})
    assert exc.value.witness == (2, 2)
    with pytest.raises(ValueError):
        from_gaps({0, 2})
    with pytest.raises(ValueError):
        from_gaps([-3, 2])


def test_constructor_takes_a_gap_bitset():
    # bit k set iff k is a gap; the bits go through the same checks as a list
    H = from_generators([4, 7])
    assert NumericalSemigroup(H._gap_bits()) == H
    assert NumericalSemigroup(0) == NumericalSemigroup()
    for bad in (1, 0b101, -2):
        with pytest.raises(ValueError, match="gaps must be positive integers"):
            NumericalSemigroup(bad)
    with pytest.raises(NotASemigroup) as exc:
        NumericalSemigroup(1 << 1 | 1 << 4)
    assert exc.value.witness == (2, 2)


def test_multiplicity_decodes_nothing(monkeypatch, by_genus):
    expected = [(H, H.element_at(1)) for g in range(9) for H in by_genus(g)]

    def never(*args):
        raise AssertionError("decoded a bitset")

    monkeypatch.setattr(sgp.core, "_bit_positions", never)
    assert all(H.multiplicity == m for H, m in expected)
    assert from_generators([2, 100_001]).multiplicity == 2
    assert NumericalSemigroup().multiplicity == 1


def _sieve_witness(gaps):
    """The witness the closure sieve reports, by definition: the least gap x
    that two positive non-gaps sum to, as a + (x - a) with a least."""
    gap_set = set(gaps)
    for x in sorted(gap_set):
        for a in range(1, x // 2 + 1):
            if a not in gap_set and x - a not in gap_set:
                return a, x - a
    return None


def test_non_semigroup_gap_sets_report_the_sieve_witness():
    # every subset of 1..11, as a list, a set, a reversed iterator and a bitset
    for mask in range(1 << 11):
        gaps = [k for k in range(1, 12) if mask >> (k - 1) & 1]
        witness = _sieve_witness(gaps)
        for form in (gaps, set(gaps), reversed(gaps), mask << 1):
            if witness is None:
                assert NumericalSemigroup(form).gaps == tuple(gaps)
            else:
                with pytest.raises(NotASemigroup) as exc:
                    NumericalSemigroup(form)
                assert exc.value.witness == witness, gaps
    # one gap far past a run of them: the least split of F is F/2 + F/2
    F = 400_000
    with pytest.raises(NotASemigroup) as exc:
        from_gaps([*range(1, F // 2), F])
    assert exc.value.witness == (F // 2, F // 2)


def test_constructions_agree_exhaustive():
    # every semigroup to genus 14, built every way a caller can build one
    for H in descendants(NumericalSemigroup(), 14):
        gaps = H.gaps
        want = (H._member_bits, H.genus, H.frobenius, H.min_generators)
        builds = [from_gaps(gaps), from_gaps(set(gaps)), from_gaps(g for g in gaps),
                  from_gaps([*reversed(gaps), *gaps[:2]]),
                  NumericalSemigroup(H._gap_bits()), from_generators(H.min_generators),
                  parse_semigroup(format_semigroup(H, "gaps")),
                  parse_semigroup(format_semigroup(H, "gens"))]
        for K in builds:
            assert (K._member_bits, K.genus, K.frobenius, K.min_generators) == want, gaps


def test_element_at():
    H = from_generators([4, 7])
    assert H.element_at(0) == 0
    assert H.element_at(1) == 4
    assert H.element_at(3) == 8
    assert from_generators([2, 3]).element_at(0) == 0
    with pytest.raises(ValueError):
        H.element_at(-1)


def test_element_at_matches_direct_listing(by_genus):
    for g in range(13):
        for H in by_genus(g):
            direct = [n for n in range(2 * g + 2) if n in H]
            for i, value in enumerate(direct):
                assert H.element_at(i) == value
            assert all(H.element_at(i) < H.element_at(i + 1)
                       for i in range(len(direct)))


def test_natural_gamma():
    H = from_generators([4, 7])
    assert natural_gamma(H, 1) == H.genus
    assert natural_gamma(H, 2) == 3  # even gaps 2, 6, 10
    assert natural_gamma(from_generators([2, 13]), 2) == 0
    with pytest.raises(ValueError):
        natural_gamma(H, 0)


def test_natural_gamma_exhaustive(by_genus):
    # the gaps divisible by n, filtered from the gap tuple; n = F + 1
    # divides no gap (at genus 0, where F + 1 = 0, n = 1 stands in)
    for g in range(15):
        for H in by_genus(g):
            for n in (1, 2, 3, 5, 7, H.conductor or 1):
                assert natural_gamma(H, n) == sum(gap % n == 0 for gap in H.gaps), \
                    (H.gaps, n)


def test_apery_examples():
    p = apery_profile(from_generators([3, 5]), 3)
    assert p.s == (10, 5)
    assert p.e == (3, 1)
    assert sum(p.e) == 4
    p = apery_profile(from_generators([2, 3]), 2)
    assert p.s == (3,)
    assert p.e == (1,)
    assert sum(apery_profile(from_generators([4, 7]), 4).e) == 9
    with pytest.raises(NotAnElement):
        apery_profile(from_generators([4, 7]), 3)
    with pytest.raises(NotAnElement):
        apery_profile(from_generators([4, 7]), 0)


def _check_apery_invariants(H, m):
    p = apery_profile(H, m)
    assert p.modulus == m
    assert sum(p.e) == H.genus
    for k in range(m - 1):
        i = k + 1
        assert p.s[k] == p.e[k] * m + i
        assert p.s[k] in H and p.s[k] - m not in H
        assert p.e[k] == sum(1 for gap in H.gaps if gap % m == i)
    e = (0,) + p.e
    if m > 1 and 2 * min(p.e) >= max(p.e):
        return  # the subadditivity pair checks hold trivially
    for i in range(1, m):
        for j in range(i, m):
            if i + j < m:
                assert e[i] + e[j] >= e[i + j]
            elif i + j > m:
                assert e[i] + e[j] >= e[i + j - m] - 1


def test_apery_invariants_exhaustive(by_genus):
    for g in range(13):
        for H in by_genus(g):
            for m in range(1, H.conductor + 2):
                if m > 0 and m in H:
                    _check_apery_invariants(H, m)


def apery_by_search(H, m):
    """Reference: for each residue i of 1 .. m - 1, the least element
    congruent to i, found by stepping i, i + m, ... until one is in H."""
    s = []
    for i in range(1, m):
        n = i
        while n not in H:
            n += m
        s.append(n)
    return tuple(s), tuple((n - i) // m for i, n in enumerate(s, 1))


def test_apery_profile_matches_search_exhaustive(by_genus):
    # every element m <= F + 1 of every semigroup to genus 13
    for g in range(14):
        for H in by_genus(g):
            for m in range(1, H.frobenius + 2):
                if m in H:
                    p = apery_profile(H, m)
                    assert (p.s, p.e) == apery_by_search(H, m), (H.gaps, m)


def test_apery_mask_width_checked_before_it_is_built(monkeypatch):
    # the mask spans [0, F + m] and m - 1 entries are read from it: its
    # width and their memory are refused before it is built
    H = from_generators([2, 3])

    def never(*args):
        raise AssertionError("built the Apery mask past the work cap")

    monkeypatch.setattr(sgp.core, "_apery_bits", never)
    with pytest.raises(CapExceeded) as err:
        apery_profile(H, 10**11)
    assert str(err.value) == ("Apery mask and output bits F + m + 1 + (m - 1) * 720"
                              f" = {10**11 + 2 + (10**11 - 1) * 720} exceeds cap 10000000000")
    # <2, 3>, m = 10: a mask of 12 bits and 9 entries of 720 bits
    monkeypatch.setattr(sgp.core, "WORK_CAP", 6491)
    with pytest.raises(CapExceeded, match=" = 6492 exceeds cap 6491"):
        apery_profile(H, 10)
    monkeypatch.undo()
    monkeypatch.setattr(sgp.core, "WORK_CAP", 6492)
    assert apery_profile(H, 10).s == (11, 2, 3, 4, 5, 6, 7, 8, 9)


def test_apery_output_counted_before_it_is_decoded(monkeypatch):
    # each of the m - 1 entries weighs 720 bits, about the memory it takes,
    # so on <2, 3> (F = 1) the least m refused is the least with
    # m + 2 + (m - 1) * 720 past the cap, 13,869,627 (about 1.25 GB of
    # entries), and it is refused before anything is decoded
    H = from_generators([2, 3])
    first = 13_869_627
    assert first + 1 + (first - 2) * 720 <= 10**10 < first + 2 + (first - 1) * 720
    original = sgp.core._bit_positions
    decoded = []

    def counting(*args):
        decoded.append(args)
        return original(*args)

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(sgp.core, "_bit_positions", counting)
    with pytest.raises(CapExceeded, match=f" = {first + 2 + (first - 1) * 720} exceeds cap"):
        apery_profile(H, first)
    assert decoded == []
    # the m below passes the cap: stopped where its mask would be built
    original_mask = sgp.core._apery_bits
    monkeypatch.setattr(sgp.core, "_apery_bits", admitted)
    with pytest.raises(Admitted):
        apery_profile(H, first - 1)
    monkeypatch.setattr(sgp.core, "_apery_bits", original_mask)
    profile = apery_profile(H, 10**6)  # 10^6 + 2 + (10^6 - 1) * 720 bits
    assert len(decoded) == 1 and len(profile.s) == 10**6 - 1
    assert profile.s[:3] == (10**6 + 1, 2, 3) and profile.e[:3] == (1, 0, 0)


@given(st.integers(0, 2**70), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_mirror_matches_padded_reversal(bits, pad):
    # _mirror against the zero-padded digit reversal cover_family used
    top = max(bits.bit_length() - 1, 0) + pad
    assert _mirror(bits, top) == int(format(bits, f"0{top + 1}b")[::-1], 2)


def test_enumeration_small_cases():
    assert [H.gaps for H in enumerate_genus_range(0, 0)] == [()]
    assert sorted(H.gaps for H in enumerate_genus_range(2, 2)) == [(1, 2), (1, 3)]
    assert sum(1 for _ in enumerate_genus_range(5, 5)) == 12


def test_enumeration_matches_subset_bruteforce():
    # oracle: every size-g subset of [1, 2g-1] whose complement is closed
    for g in range(7):
        brute = set()
        for combo in combinations(range(1, 2 * g), g):
            gapset = set(combo)
            top = max(gapset, default=0)
            nongaps = [x for x in range(1, top) if x not in gapset]
            ok = all(a + b not in gapset
                     for i, a in enumerate(nongaps)
                     for b in nongaps[i:] if a + b <= top)
            if ok:
                brute.add(combo)
        if g == 0:
            brute = {()}
        assert {H.gaps for H in enumerate_genus_range(g, g)} == brute


def test_natural_gamma_matches_apery_classes(by_genus):
    # gaps divisible by n, counted two ways: the gap filter and the class
    # counts of an apery profile taken modulo a multiple of n
    for g in range(8):
        for H in by_genus(g):
            for n in (2, 3):
                m = n * max(H.conductor, 1)
                profile = apery_profile(H, m)
                by_class = sum(profile.e[j * n - 1] for j in range(1, m // n))
                assert by_class == natural_gamma(H, n)


def test_enumerate_genus_range():
    assert sum(1 for _ in enumerate_genus_range(2, 3)) == 6
    assert [H.genus for H in enumerate_genus_range(4, 4)] == [4] * 7
    with pytest.raises(CapExceeded):
        list(enumerate_genus_range(0, 30))
    for lo, hi in ((3, 2), (-1, 3)):
        with pytest.raises(ValueError, match="need 0 <= lo <= hi"):
            enumerate_genus_range(lo, hi)


def test_enumeration_classical_counts():
    # classical counts of numerical semigroups by genus
    expected = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693]
    assert [sum(1 for _ in enumerate_genus_range(g, g)) for g in range(15)] == expected


def test_tree_visits_each_semigroup_once():
    from sgp.core import descendants
    seen = list(descendants(NumericalSemigroup(), 9))
    assert len(seen) == len({H.gaps for H in seen})


def test_enumeration_cap():
    with pytest.raises(CapExceeded, match="^genus 26 exceeds cap 25$"):
        list(enumerate_genus_range(26, 26))
    assert next(enumerate_genus_range(25, 25)).genus == 25


@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 9), (3, 3), (5, 12), (12, 17)])
def test_genus_shards_hold_each_semigroup_once(lo, hi):
    # the shards' nodes of genus >= lo are the tree's, each once, counted
    # by genus as A007323; enumerate_genus_range yields the same set
    a007323 = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001,
               1693, 2857, 4806, 8045]
    nodes = [H for root, top in _genus_shards(lo, hi)
             for H in descendants(root, top) if H.genus >= lo]
    bits = [H._member_bits for H in nodes]
    assert len(set(bits)) == len(bits)
    counts = [0] * (hi + 1)
    for H in nodes:
        counts[H.genus] += 1
    assert counts[lo:] == a007323[lo:hi + 1]
    assert {H._member_bits for H in enumerate_genus_range(lo, hi)} == set(bits)


def test_tree_children_order():
    H = from_generators([2, 3])
    kids = tree_children(H)
    assert [k.gaps for k in kids] == [(1, 2), (1, 3)]


def _assert_elements_match_membership(H):
    """``_elements(k)``, for every k up to the conductor + 2, is the k least
    members of H: the prefix read crosses the conductor."""
    members = tuple(n for n in range(2 * H.conductor + 3) if n in H)
    for k in range(H.conductor + 3):
        assert H._elements(k) == members[:k], (H.gaps, k)


def _assert_children_match_constructor(H):
    """Every tree child, built from H's fields, equals the validating
    constructor on every field, minimal generators included, and its own
    children are its minimal generators above its Frobenius number."""
    removed = [x for x in H.min_generators if x > H.frobenius]
    kids = tree_children(H)
    assert len(kids) == len(removed)
    for x, kid in zip(removed, kids):
        ref = NumericalSemigroup(H.gaps + (x,))
        # expanded before anything else is read of it, as a walk does
        assert [k.frobenius for k in tree_children(kid)] == [
            y for y in ref.min_generators if y > kid.frobenius], (H.gaps, x)
        for field in ("gaps", "genus", "frobenius", "conductor", "_member_bits"):
            assert getattr(kid, field) == getattr(ref, field), (H.gaps, x, field)
        assert kid.min_generators == ref.min_generators, (H.gaps, x)
        _assert_elements_match_membership(kid)


def test_tree_children_match_constructor_exhaustive():
    for H in descendants(NumericalSemigroup(), 15):
        _assert_children_match_constructor(H)


def test_tree_children_of_ordinary_semigroups():
    # removing x == m leaves the ordinary semigroup of multiplicity m + 1
    for m in range(1, 41):
        H = NumericalSemigroup(range(1, m))
        assert H.min_generators[0] == m > H.frobenius
        _assert_children_match_constructor(H)


def _child_reference(H, x):
    """The fields of H minus x, each set from H's fields one child at a
    time, as before the one-pass builder: the oracle for ``tree_children``.
    A child derives nothing until it is expanded or read."""
    c = H.conductor
    mask = (1 << (x + 2)) - 1
    prev, carried = 1, []
    for s in H._sumsets:
        prev = s | (prev << x)
        carried.append(prev)
    return {"gaps": H.gaps + (x,), "genus": H.genus + 1, "frobenius": x,
            "conductor": x + 1,
            "_member_bits": (H._member_bits | (mask ^ ((1 << c) - 1))) & ~(1 << x),
            "_min_gens": None, "_eff": None, "_rev": None,
            "_sumsets": tuple(carried)}


def test_children_builder_matches_child_exhaustive():
    # every node first with no sumsets, then with levels 1 .. 3 filled, so
    # the builder's empty path and its carried path both run everywhere
    for H in list(descendants(NumericalSemigroup(), 13)):
        for levels in (0, 3):
            if levels:
                H._sumset(levels)
            assert len(H._sumsets) == levels
            removed = [x for x in H.min_generators if x > H.frobenius]
            kids = tree_children(H)
            assert len(kids) == len(removed)
            for x, kid in zip(removed, kids):
                ref = _child_reference(H, x)
                for field, value in ref.items():
                    assert getattr(kid, field) == value, (H.gaps, levels, x, field)
                assert kid._parent is H, (H.gaps, x)
                gens = NumericalSemigroup(ref["gaps"]).min_generators
                assert kid._effective_generators() == tuple(
                    y for y in gens if y > x), (H.gaps, x)
                assert kid.min_generators == gens, (H.gaps, x)


def _mirror_by_definition(H):
    """Bit j set iff F - j is an element, for 0 <= j <= F, by membership."""
    F = H.frobenius
    return sum(1 << j for j in range(F + 1) if F - j in H)


def _mirror_roots():
    """Fresh roots whose subtrees to genus 16 the carried-mirror tests walk:
    the naturals, whose first children form the ordinary chain, the ordinary
    <6, ..., 11> built from its generators, and roots of multiplicity 3, 4
    and 7 built from generators, with no parent to carry a mirror from."""
    return (NumericalSemigroup(), from_generators(range(6, 12)),
            from_generators([3, 10, 11]), from_generators([4, 10, 11, 13]),
            from_generators([7, 9, 10, 11, 12, 13, 15]))


def test_mirror_of_ordinary_semigroups():
    # gaps 1 .. g: the one element up to F is 0, so the reversal leaves 1 << F
    for g in range(61):
        H = NumericalSemigroup(range(1, g + 1))
        assert H._mirror_bits() == _mirror_by_definition(H) == (1 << g) >> (g == 0), g


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_carried_mirror_matches_definition_exhaustive(before):
    # each node's mirror read as the walk yields it, before its children are
    # built, or only once the walk is over, when an expanded node has derived
    # its own; either way most nodes shift their parent's mirror, so the fill
    # of the elements between the two Frobenius numbers is checked
    carried = 0
    for root in _mirror_roots():
        nodes = []
        for H in descendants(root, 16):
            nodes.append(H)
            if before:
                assert H._mirror_bits() == _mirror_by_definition(H), H.gaps
        for H in nodes:
            assert H._mirror_bits() == _mirror_by_definition(H), H.gaps
            carried += H._parent is not None and H._parent._rev is not None
    assert carried > 10_000


def _effective_by_splits(H):
    """A tree child's effective generators as its parent's above x = F,
    then x + m unless a loop over a finds the split x + m = a + b with
    m < a <= b elements: the per-a test the mirror AND replaced."""
    x, m = H.frobenius, H.multiplicity
    eff = tuple(y for y in H._parent._effective_generators() if y > x)
    t = x + m
    if all(a not in H or t - a not in H for a in range(m + 1, t // 2 + 1)):
        eff += (t,)
    return eff


def test_effective_generators_match_split_reference_exhaustive():
    # every expanded non-ordinary node with a parent, to genus 16
    checked = 0
    for root in _mirror_roots():
        for H in descendants(root, 16):
            if H.genus < 16 and H._parent is not None and H.frobenius > H.genus:
                assert H._effective_generators() == _effective_by_splits(H), H.gaps
                checked += 1
    assert checked > 10_000


def test_walk_derives_generators_only_where_read(monkeypatch, gap_reads):
    # a walk to genus 12 expands the nodes of genus < 12 and reads nothing
    # else: effective generators are derived for exactly those, no node
    # sieves its minimal generators, and no node, the root included,
    # decodes its elements or its gap tuple
    derived = []
    built = []
    decoded = []
    original = NumericalSemigroup._effective_generators

    def counting(self):
        if self._eff is None:
            derived.append(self)
        return original(self)

    def building(method):
        def wrapped(self):
            built.append(self)
            return method(self)
        return wrapped

    monkeypatch.setattr(NumericalSemigroup, "_effective_generators", counting)
    monkeypatch.setattr(NumericalSemigroup, "_compute_min_generators",
                        building(NumericalSemigroup._compute_min_generators))
    bit_positions = sgp.core._bit_positions

    def decoding(bits, count=None):
        decoded.append(bits)
        return bit_positions(bits, count)

    monkeypatch.setattr(sgp.core, "_bit_positions", decoding)
    nodes = list(descendants(NumericalSemigroup(), 12))
    expanded = [H for H in nodes if H.genus < 12]
    assert len(nodes) == sum((1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592))
    assert len(derived) == len(expanded)
    assert {id(H) for H in derived} == {id(H) for H in expanded}
    assert built == []
    assert all(H._min_gens is None for H in nodes)
    assert decoded == []
    assert all(H._eff is None for H in nodes if H.genus == 12)
    assert gap_reads == []
    # an emitted leaf sieves its generators from its bitset when they are
    # read, once: it derives no effective generators and keeps its parent
    leaf = next(H for H in nodes if H.genus == 12 and H.frobenius > 12)
    ref = NumericalSemigroup(leaf.gaps).min_generators
    built.clear()
    assert leaf.min_generators == ref
    assert leaf.min_generators is leaf._min_gens
    assert built == [leaf]
    assert len(derived) == len(expanded) and leaf._eff is None
    assert leaf._parent is not None
    assert [id(H) for H in gap_reads] == [id(leaf)]


def test_deep_chain_derives_generators_without_recursion():
    # below <2, 5> every node <2, 2k + 1> has the one child <2, 2k + 3>, so
    # the walk is a chain deeper than the recursion limit; its last node
    # derives its generators and its mirror from its parent's, and reads its
    # exceptional gaps off that mirror
    root = from_generators([2, 5])
    depth = sys.getrecursionlimit() + 10
    nodes = 0
    for H in descendants(root, root.genus + depth):
        nodes += 1
    assert nodes == depth + 1
    assert H.min_generators == (2, 2 * H.genus + 1)
    assert H._mirror_bits() == _mirror_by_definition(H)
    # symmetric: no gap h > F/2 has F - h a gap too
    assert _exceptional_bits(H) == 0


def test_walk_matches_a007323_through_genus_20():
    counts = [0] * 21
    for H in descendants(NumericalSemigroup(), 20):
        counts[H.genus] += 1
    assert counts == [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001,
                      1693, 2857, 4806, 8045, 13467, 22464, 37396]


def test_nodes_equal_and_hash_as_their_gap_sets(gap_reads):
    # equality and hashing go by the membership bitset, so a tree node
    # equals the semigroup built from its gaps before its gap tuple is
    # decoded, and reading that tuple gives the same gaps
    for H in descendants(NumericalSemigroup(), 13):
        ref = from_gaps(_bit_positions(H._gap_bits()))
        assert H == ref and hash(H) == hash(ref), ref.gaps
        assert gap_reads == []
        assert H.gaps == ref.gaps and from_gaps(H.gaps) == H
        gap_reads.clear()
    assert NumericalSemigroup() != from_gaps([1])
    assert len({from_gaps([1, 2]), from_gaps([1, 3]),
                *tree_children(from_gaps([1]))}) == 2


def test_round_trip(by_genus):
    for g in range(13):
        for H in by_genus(g):
            assert from_gaps(H.gaps) == H
            assert from_generators(H.min_generators) == H


def test_frobenius_bounds(by_genus):
    for g in range(1, 13):
        for H in by_genus(g):
            assert g <= H.frobenius <= 2 * g - 1


def test_serialization_round_trip():
    for text in ("gens:4,7", "gaps:1,2,3,5,6,9,10,13,17", "gaps:", "gens:1"):
        H = parse_semigroup(text)
        assert parse_semigroup(format_semigroup(H)) == H
    assert format_semigroup(from_generators([4, 7])) == "gaps:1,2,3,5,6,9,10,13,17"
    assert format_semigroup(from_generators([4, 7]), "gens") == "gens:4,7"
    with pytest.raises(ValueError, match="unknown form 'x'"):
        format_semigroup(from_generators([4, 7]), "x")


@pytest.mark.parametrize("bad", [
    "4,7", "gens:4, 7", "gens:7,4", "gaps:1,1", "gens:-2,3", "gens:4;7", "spam:1",
    "gens:\u00b2", "gens:\u0663,\u0664", "gaps:\uff11",
    "gens:,4", "gens:4,", "gaps:1,,2", "gens:,",
])
def test_parse_rejects_malformed(bad):
    # the body is checked whole, as if each comma-separated token were:
    # nonempty and ASCII digits only, then strictly ascending
    if bad in ("4,7", "spam:1"):
        message = f"semigroup spec must start with 'gens:' or 'gaps:': {bad!r}"
    elif bad in ("gens:7,4", "gaps:1,1"):
        message = f"values must be strictly ascending in {bad!r}"
    else:
        message = f"malformed integer list in {bad!r}"
    with pytest.raises(ValueError) as err:
        parse_semigroup(bad)
    assert str(err.value) == message


def _values_by_tokens(text):
    """The parser's integer list by its per-token rules, as a reference:
    each comma-separated token ASCII digits, then strictly ascending."""
    kind, body = text[:5], text[5:]
    if kind not in ("gens:", "gaps:"):
        raise ValueError(f"semigroup spec must start with 'gens:' or 'gaps:': {text!r}")
    if not body:
        return kind, []
    tokens = body.split(",")
    if not (body.isascii() and all(tok.isdigit() for tok in tokens)):
        raise ValueError(f"malformed integer list in {text!r}")
    values = [int(tok) for tok in tokens]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"values must be strictly ascending in {text!r}")
    return kind, values


# bodies of at most 8 characters keep every generator sieve window small
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["gens:", "gaps:", "gen:", "gaps"]),
       st.text(alphabet="0123456789,,,+- \u00b2\u0663", max_size=8))
def test_parse_matches_per_token_rules(prefix, body):
    text = prefix + body
    try:
        kind, values = _values_by_tokens(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            parse_semigroup(text)
        assert str(err.value) == str(exc)
        return
    build = from_generators if kind == "gens:" else from_gaps
    assert _build_outcome(parse_semigroup, text) == _build_outcome(build, values)


def test_parse_reads_long_lists_in_chunks():
    # the body is split a chunk of characters at a time; tokens across the
    # chunk boundaries, leading zeros and a single token parse as one list
    values = list(range(1, 40_000, 3))
    H = parse_semigroup("gens:" + ",".join(map(str, values)))
    assert H == from_generators(values)
    assert parse_semigroup("gens:0004,07") == from_generators([4, 7])
    assert parse_semigroup("gens:1") == NumericalSemigroup()
    spec = "gaps:" + ",".join(map(str, range(1, 100_000, 2)))
    assert parse_semigroup(spec) == from_generators([2, 100_001])
    with pytest.raises(ValueError, match="strictly ascending"):
        parse_semigroup(spec + ",99999")


@st.composite
def generator_lists(draw, top=40):
    gens = draw(st.lists(st.integers(2, top), min_size=1, max_size=4))
    if math.gcd(*gens) != 1:
        # one successor element forces the gcd down to 1
        gens.append(draw(st.sampled_from(gens)) + 1)
    return gens


@given(generator_lists())
@settings(max_examples=80, deadline=None)
def test_generated_semigroup_properties(gens):
    H = from_generators(gens)
    g = H.genus
    if g >= 1:
        assert g <= H.frobenius <= 2 * g - 1
    assert from_gaps(H.gaps) == H
    assert from_generators(H.min_generators) == H
    assert all(m in H for m in gens)
    # minimal generators are pairwise non-redundant
    for m in H.min_generators:
        sub = [x for x in H.min_generators if x != m]
        if sub and math.gcd(*sub) == 1:
            assert from_generators(sub) != H


@given(generator_lists())
@settings(max_examples=80, deadline=None)
def test_tree_children_match_constructor_generated(gens):
    _assert_children_match_constructor(from_generators(gens))


@given(generator_lists(top=12))
@settings(max_examples=40, deadline=None)
def test_walk_matches_constructor_generated(gens):
    # three levels below a root the constructor built, every node's fields,
    # its children and its generators agree with a fresh construction
    root = from_generators(gens)
    for H in descendants(root, root.genus + 3):
        ref = NumericalSemigroup(H.gaps)
        assert [k.frobenius for k in tree_children(H)] == [
            x for x in ref.min_generators if x > ref.frobenius], H.gaps
        for field in ("gaps", "genus", "frobenius", "conductor",
                      "_member_bits", "min_generators"):
            assert getattr(H, field) == getattr(ref, field), (H.gaps, field)
        _assert_elements_match_membership(H)


@given(st.integers(1, 60))
@settings(deadline=None)
def test_two_generated_genus_formula(k):
    # genus of <2, 2k+1> is k: a classical sanity anchor
    H = from_generators([2, 2 * k + 1])
    assert H.genus == k
    assert H.frobenius == 2 * k - 1
