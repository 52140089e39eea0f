"""Gap-sum machinery: n-fold sumsets of the gap set and the criteria that
rule a semigroup out as a Weierstrass semigroup.

The set of sums of n gaps (with repetition) of a Weierstrass semigroup has
cardinality at most (2n-1)(g-1).  Sumsets are exact int bitsets from
``NumericalSemigroup._sumset``, which builds a level from the last one by
progressions: the gaps of each residue class modulo the multiplicity form
one, ending below its Apery element, so a level costs a few shift-ors per
class instead of one per gap.  The levels stay on the semigroup: a tree
child derives its own from its parent's with one shift-or per level, and a
scan seeds the root's, so no node builds them.  The pairing obstruction
is Buchweitz's count at n = 2 (Buchweitz, thesis, Hannover 1976):
#G_2 > 3(g-1), which no Weierstrass semigroup shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import NumericalSemigroup, _bit_positions
from .errors import GenusTooSmall

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


def pairing_obstruction(H: NumericalSemigroup) -> str:
    """Rule H out as a Weierstrass semigroup by its pairwise gap sums:
    "not_weierstrass" when #G_2 > 3(g-1), the failure of Buchweitz's bound
    at n = 2, and "inconclusive" otherwise.  It is gap_sum_profile(H, 2)
    read once, with its guards: GenusTooSmall below genus 2, and
    CapExceeded for a sumset past the work cap."""
    return INCONCLUSIVE if gap_sum_profile(H, 2).passes_bc else NOT_WEIERSTRASS
