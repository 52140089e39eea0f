"""Gap-sum machinery: n-fold sumsets of the gap set and the criteria that
rule a semigroup out as a Weierstrass semigroup.

The set of sums of n gaps (with repetition) of a Weierstrass semigroup has
cardinality at most (2n-1)(g-1).  Sumsets are exact int bitsets from
``NumericalSemigroup._sumset``, which builds a level from the last one by
progressions: the gaps of each residue class modulo the multiplicity form
one, ending below its Apery element, so a level costs a few shift-ors per
class instead of one per gap.  The levels stay on the semigroup: a tree
child derives its own from its parent's with one shift-or per level, so in
a scan only the root of the tree builds them.  The excess of the
pairwise sumset over its guaranteed baseline drives the pairing
obstruction.  It reads the exceptional gaps and its chain sums off the
elements' mirror (``core._exceptional_bits``), which a tree child derives
from its parent's with one shift-or.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import Callable

from .core import NumericalSemigroup, _bit_positions, _exceptional_bits
from .errors import GenusTooSmall, WrongShape

NOT_WEIERSTRASS = "not_weierstrass"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GapSumProfile:
    """The set of sums of n gaps, its size, and the Weierstrass bound.

    sum_bits has bit k set iff k is such a sum; ``sums`` decodes it on read.
    excess is #G_2 - (last_gap - 1) - genus, the number of pairwise sums
    beyond the guaranteed baseline; it is reported only for n == 2 in the
    regime last_gap <= 2*genus - 2 and is None otherwise.
    """

    n: int
    sum_bits: int
    cardinality: int
    bc_bound: int
    passes_bc: bool
    excess: int | None

    @property
    def sums(self) -> tuple[int, ...]:
        return _bit_positions(self.sum_bits)


def _bc_bound(H: NumericalSemigroup, n: int) -> int:
    """Buchweitz's bound (2n-1)(g-1) on the size of the n-fold gap sumset,
    behind the guards that gap_sum_profile and pair_sum_extras share."""
    if n < 2:
        raise ValueError("need n >= 2")
    if H.genus < 2:
        raise GenusTooSmall("gap-sum bound degenerates below genus 2")
    return (2 * n - 1) * (H.genus - 1)


def bc_test(n: int) -> Callable[[NumericalSemigroup], bool]:
    """``lambda H: H.genus >= 2 and not gap_sum_profile(H, n).passes_bc``
    for many semigroups.

    n is checked once, here, with gap_sum_profile's ValueError; each call
    then compares the popcount of the sumset with (2n-1)(g-1) instead of
    decoding every sum.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k = 2 * n - 1

    def fails(H: NumericalSemigroup) -> bool:
        g = H.genus
        return g >= 2 and H._sumset(n).bit_count() > k * (g - 1)

    return fails


def gap_sum_profile(H: NumericalSemigroup, n: int) -> GapSumProfile:
    """Exact n-fold sumset of the gap set, with repetition allowed, counted
    by popcount as bc_test counts it."""
    bound = _bc_bound(H, n)
    g = H.genus
    bits = H._sumset(n)
    card = bits.bit_count()
    excess = None
    if n == 2 and H.frobenius <= 2 * g - 2:
        excess = card - (H.frobenius - 1) - g
    return GapSumProfile(n, bits, card, bound, card <= bound, excess)


def pair_sum_extras(H: NumericalSemigroup) -> tuple[int, ...]:
    """Pairwise gap sums beyond the guaranteed baseline
    {2, ..., last_gap} plus {last_gap + gap}."""
    _bc_bound(H, 2)
    ell = H.frobenius
    baseline = ((1 << (ell + 1)) - 4) | (H._gap_bits() << ell)
    return _bit_positions(H._sumset(2) & ~baseline)


def _pairing_verdict(H: NumericalSemigroup) -> str | None:
    """pairing_obstruction(H), or None where it raises WrongShape.

    WrongShape depends only on g and the last gap.  The exceptional gaps are
    read straight from the membership bitset, with no count to check:
    there are always i - 1, as the g - 1 gaps below ell fill the g - i
    pairs {k, ell - k}, at least one in each.  h_1, h_2 and the least of
    them are read off their bitset by bit length; the rest are decoded
    only when the first test passes.  2 ell - s = ell - (s - ell) is in H
    iff bit s - ell of the mirror (``_mirror_bits``) is set: one AND tests
    every h_1 + h_v, one bit each h_u + h_{u+1} and 2 h_u.
    """
    g = H.genus
    ell = H.frobenius
    if g == 0 or ell % 2 == 0:
        return None
    i = g - ell // 2  # ell = 2g - 2i + 1
    if i < 4:
        return None
    bits = _exceptional_bits(H)
    h1 = bits.bit_length() - 1
    h2 = (bits ^ 1 << h1).bit_length() - 1
    if not h1 + (bits & -bits).bit_length() - 1 > 2 * h2:
        return INCONCLUSIVE
    rev = H._mirror_bits()
    if bits << h1 >> ell & rev:  # the sums h_1 + h_v, h_1 itself included
        return INCONCLUSIVE
    rest = _bit_positions(bits ^ 1 << h1)[::-1]
    # then h_u + h_{u+1} and 2 h_u for u >= 2
    for s in chain(map(add, rest, rest[1:]), map(add, rest, rest)):
        if rev >> s - ell & 1:
            return INCONCLUSIVE
    return NOT_WEIERSTRASS


def pairing_obstruction(H: NumericalSemigroup) -> str:
    """Rule H out as a Weierstrass semigroup from its exceptional gaps.

    Requires last gap 2g-2i+1 with i >= 4.  H then has exactly i-1
    pairing-violating gaps h_1 > ... > h_{i-1}: the gaps strictly between
    g-i and the last gap whose mirror last_gap - h is also a gap.  If
    h_1 + h_{i-1} > 2 h_2, and 2*last_gap - h_u - h_v is a gap for every
    pair on the two descending sum chains (h_1 against everything, then
    the consecutive chain among h_2, ..., h_{i-1}), the pairwise sumset
    overshoots its bound by at least 2i-2 and H cannot be a Weierstrass
    semigroup.  Returns "not_weierstrass" or "inconclusive"; raises
    WrongShape on any other shape.

    The gap condition is checked literally; when a chain sum equals
    last_gap plus an exceptional gap it can hold even though that sum is
    already inside the guaranteed baseline, so callers wanting the count
    certified should cross-check gap_sum_profile(H, 2).
    """
    verdict = _pairing_verdict(H)
    if verdict is None:
        raise WrongShape("need last gap 2g-2i+1 with i >= 4")
    return verdict


def pairing_rules_out(H: NumericalSemigroup) -> bool:
    """``pairing_obstruction(H) == "not_weierstrass"``, and False where it
    would raise WrongShape, without raising."""
    return _pairing_verdict(H) == NOT_WEIERSTRASS
