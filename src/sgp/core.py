"""Exact finite representation of numerical semigroups.

The canonical data is the membership bitset over [0, conductor]: bit k
set iff k is an element.  The sorted gap tuple is decoded from it.
Bitsets are plain Python ints, so everything here is exact integer
arithmetic end to end; nothing ever touches floats.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
from operator import eq, ge
from typing import Iterable, Iterator

from .errors import (CapExceeded, EmptyInput, GcdNotOne, NotAnElement,
                     NotASemigroup)

# the highest genus a tree walk reaches, so a scan has at most 301 shards
DEFAULT_GENUS_CAP = 25
# gap sumset levels S_1 .. S_k a semigroup keeps and hands to its tree
# children; all k levels take O(k^2 * frobenius) bits
SUMSET_CACHED_LEVELS = 8
# most bits shifted by one costly build, estimated from its input before it
# starts (_check_work): the generator sieve, the constructor's closure sieve,
# cover_family's output and the gap sumset levels _sumset builds.  It is
# over 5x the largest query_mix build (a closure sieve of 1.8e9; the largest
# sumset, the pairwise one of buchweitz_family(19374, 6), is 1.5e9).  With
# the closure estimate it bounds each built sumset level's width W = n * F
# by 25,041,726 bits: a level costs at least (m - 1) + bitlen(F // m)
# shift-ors for m the multiplicity, as the class of F holds more than F // m
# gaps, and the closure estimate, at least (F // 2) // m elements up to F/2
# times F + 1, bounds F for each m; the widest admitted is n = 9 from 8 kept
# levels at m = 387, F = 2,782,414 (tests: WIDEST_SUMSET_LEVEL)
WORK_CAP = 10**10
_SIEVE_WORK = "closure sieve work (elements <= F/2) * conductor"


class NumericalSemigroup:
    """Cofinite additive subsemigroup of the naturals, keyed by its bitset.

    Instances are immutable values: equality and hashing go by that
    bitset, which fixes the gap set.  The constructor validates closure of
    the complement and raises NotASemigroup(a, b) with a concrete witness
    when two elements sum to a listed gap.  Tree children skip that sieve:
    ``tree_children`` builds all of a node's children in one pass over its
    fields, from its effective generators (the minimal generators above
    the Frobenius number), whose removal keeps closure.  The bitset is all
    a constructor builds; the gap tuple is decoded from it on each read, and
    the small elements, effective and minimal generators, mirror and n-fold
    gap sumsets are derived on first use and cached, so a semigroup pays
    only for what is read of it.  A tree child derives its effective
    generators and mirror from its parent's and carries the sumsets down.
    """

    __slots__ = ("genus", "frobenius", "conductor", "_member_bits",
                 "_small", "_min_gens", "_eff", "_parent", "_sumsets", "_rev")

    def __init__(self, gaps: Iterable[int] | int = ()):
        """``gaps``: the gaps in any order, or their bitset (bit k: k is a gap)."""
        gap_bits = gaps if isinstance(gaps, int) else _position_bits(gaps)
        if gap_bits < 0 or gap_bits & 1:
            raise ValueError("gaps must be positive integers")
        self.genus = gap_bits.bit_count()
        self.frobenius = gap_bits.bit_length() - 1
        self.conductor = self.frobenius + 1
        half = self.frobenius // 2
        _check_work((half - (gap_bits & ((1 << half + 1) - 1)).bit_count()) * self.conductor,
                    _SIEVE_WORK)
        # bit k set iff k in H, for 0 <= k <= conductor
        self._member_bits = ((1 << (self.conductor + 1)) - 1) & ~gap_bits
        self._small: tuple[int, ...] | None = None
        self._min_gens: tuple[int, ...] | None = None
        self._eff: tuple[int, ...] | None = None
        # a tree child's parent; the child is the parent minus its frobenius
        self._parent: NumericalSemigroup | None = None
        self._sumsets: tuple[int, ...] = ()
        self._rev: int | None = None
        # the closure sieve: the least gap that two elements sum to, if any
        pos = self._member_bits & ~1
        bad = _pair_sums(pos, self.frobenius) & gap_bits
        if bad:
            x = (bad & -bad).bit_length() - 1
            for a in range(1, x // 2 + 1):
                if pos >> a & 1 and pos >> (x - a) & 1:
                    raise NotASemigroup(a, x - a)

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return bool(self._member_bits >> n & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self._member_bits == other._member_bits

    def __hash__(self) -> int:
        return hash(self._member_bits)

    def __repr__(self) -> str:
        return f"NumericalSemigroup(gens={list(self.min_generators)})"

    @property
    def gaps(self) -> tuple[int, ...]:
        """The gaps, ascending, decoded from the bitset on each read."""
        return _bit_positions(self._gap_bits())

    @property
    def _small_elements(self) -> tuple[int, ...]:
        """Elements below the conductor, ascending, decoded on first use."""
        if self._small is None:
            self._small = _bit_positions(
                self._member_bits & ((1 << self.conductor) - 1))
        return self._small

    def element_at(self, i: int) -> int:
        """The i-th smallest element, 0-indexed from element_at(0) == 0."""
        if i < 0:
            raise ValueError("element index must be nonnegative")
        small = self._small_elements
        if i < len(small):
            return small[i]
        # elements at and beyond the conductor are consecutive
        return i + self.genus

    @property
    def multiplicity(self) -> int:
        """Least positive element: the lowest member bit above bit 0."""
        b = self._member_bits >> 1 or 1  # the naturals keep only bit 0
        return (b & -b).bit_length()

    @property
    def min_generators(self) -> tuple[int, ...]:
        if self._min_gens is None:
            self._min_gens = self._compute_min_generators()
        return self._min_gens

    def _compute_min_generators(self) -> tuple[int, ...]:
        if self.genus == 0:
            return (1,)
        bound = self.conductor + self.multiplicity  # every minimal generator is below
        pos = ((1 << bound) - 2) & ~self._gap_bits()  # the elements 0 < a < bound
        return _bit_positions(pos & ~_pair_sums(pos, bound - 1))

    def _gap_bits(self) -> int:
        """Bitset of the gaps: bit k set iff k is a gap."""
        return ((1 << self.conductor) - 1) & ~self._member_bits

    def _sumset(self, n: int) -> int:
        """Bitset of the sums of n gaps, with repetition allowed.

        The gaps congruent to r (mod m), m the multiplicity, are r, r + m,
        ..., w - m for w the Apery element of the class, so S_j is the OR
        over the classes of S_{j-1} << r smeared w // m times by step m.
        The classes go by ascending size, and one smear, widened by
        doubling, serves them all (``_progressions``): a level costs one
        shift-or per class and per doubling, never more than one per gap.
        The first SUMSET_CACHED_LEVELS levels are kept in ``_sumsets``, so
        a large n holds no more than that many bitsets; a tree child has
        those its parent had when it was built (``tree_children``), and
        builds the rest here, as any semigroup does.  Only the levels still
        to build count against WORK_CAP, so carried ones cost nothing, and
        so does the first, the gaps themselves.
        """
        sums = self._sumsets
        if n <= len(sums):
            return sums[n - 1]
        m = self.multiplicity
        ops = _progressions(_bit_positions(_apery_bits(self, m))[1:], m)
        _check_sumset_work(len(ops), self.frobenius, n, len(sums))
        levels = list(sums) or [self._gap_bits()]
        acc = levels[-1]
        for j in range(len(levels) + 1, n + 1):
            nxt = 0
            smear = acc
            for op in ops:
                if op < m:
                    nxt |= smear << op
                else:
                    smear |= smear << op
            acc = nxt
            if j <= SUMSET_CACHED_LEVELS:
                levels.append(acc)
        self._sumsets = tuple(levels)
        return acc

    def _mirror_bits(self) -> int:
        """Bit j set iff F - j is an element, for 0 <= j <= F; on first use,
        a tree child H minus x shifts its parent's mirror, if set, by d = x -
        F(H) and fills bits 1 .. d - 1 (the elements F(H) + 1 .. x - 1); any
        other semigroup reverses its bits once (``_mirror``).  Nothing walks
        up the tree: a walk reads a node where it or its parent is expanded,
        so the parent's mirror is set."""
        rev = self._rev
        if rev is None:
            x = self.frobenius
            parent = self._parent
            if parent is not None and parent._rev is not None:
                d = x - parent.frobenius
                rev = parent._rev << d | (1 << d) - 2
            else:
                rev = _mirror(self._member_bits & ((1 << self.conductor) - 1), x)
            self._rev = rev
        return rev

    def _effective_generators(self) -> tuple[int, ...]:
        """The minimal generators above the Frobenius number, ascending:
        those whose removal gives a tree child.  Derived on first use.

        A non-ordinary tree child H minus x keeps H's effective generators
        above x.  Every minimal generator of the child lies below x + 1 + m,
        and a new one has the form x + s with s a minimal generator of H, so
        the only candidate is x + m.  It is new unless it splits as a + b
        with m < a, b < x elements, which H and the child share: bit j of
        the AND is set iff j + m and x - j are such a split.
        """
        if self._eff is not None:
            return self._eff
        x = self.frobenius
        g = self.genus
        if x <= g:  # ordinary: gaps 1 .. g, generators g+1 .. 2g+1
            eff = tuple(range(g + 1, 2 * g + 2))
        elif self._parent is None:
            eff = tuple(y for y in self.min_generators if y > x)
        else:
            eff = self._parent._eff
            eff = eff[eff.index(x) + 1:]
            bits = self._member_bits
            b = bits >> 1
            m = (b & -b).bit_length()
            if not bits >> m & self._mirror_bits() & (1 << x - m) - 2:
                eff += (x + m,)
        self._eff = eff
        return eff


def _check_work(work: int, what: str) -> None:
    """Raise CapExceeded before a build whose estimated ``work``, in bits
    shifted, is past WORK_CAP; ``what`` names the estimate."""
    if work > WORK_CAP:
        raise CapExceeded(f"{what} = {work} exceeds cap {WORK_CAP}")


def _progressions(apery: Iterable[int], m: int) -> list[int]:
    """The shift-ors of one sumset level, from the nonzero Apery elements w
    modulo the multiplicity m, ascending.  One smear of the last level
    serves every class: a multiple of m widens it by doubling until it
    spans the w // m terms of the next class, and a residue r = w % m < m
    ORs it, shifted by r, into the new level."""
    ops = []
    cover = 1  # the terms the smear spans
    for e, r in map(divmod, apery, repeat(m)):
        while cover < e:
            step = min(cover, e - cover)
            ops.append(step * m)
            cover += step
        ops.append(r)
    return ops


def _check_sumset_work(shift_ors: int, frobenius: int, n: int, built: int) -> None:
    """Raise CapExceeded before the n-fold gap sumset is built from the
    ``built`` levels kept (the gaps, when none): the levels still to build
    times ``shift_ors`` per level times the width n * frobenius."""
    _check_work((n - max(built, 1)) * shift_ors * n * frobenius,
                "sumset work levels * shift-ors * width")


def _pair_sums(pos: int, limit: int) -> int:
    """Bitset of a + b for a, b in the bitset ``pos`` with 2a <= limit."""
    sums = 0
    a_bits = pos
    while a_bits:
        low = a_bits & -a_bits
        a = low.bit_length() - 1
        if 2 * a > limit:
            break
        a_bits ^= low
        sums |= pos << a
    return sums


_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_positions(bits: int, count: int | None = None) -> tuple[int, ...]:
    """Positions of the set bits of ``bits`` >= 0, ascending, or the first
    ``count`` of them: the reversed bin() digits, as bytes 0 and 1, select
    from a range in C."""
    flags = bin(bits)[:1:-1].encode().translate(_DIGIT_BYTES)
    # built from a list: tuples built from iterators pile up on CPython's free lists
    return tuple([*islice(compress(range(len(flags)), flags), count)])


def _position_bits(gaps: Iterable[int]) -> int:
    """The bitset of positive ``gaps`` in any order, the inverse of
    _bit_positions.  The sorted list's signs and closure sieve work (each
    distinct gap once) are checked before the ASCII digits are allocated."""
    ordered = sorted(gaps)
    if ordered and ordered[0] < 1:
        raise ValueError("gaps must be positive integers")
    top = ordered[-1] if ordered else 0
    k = bisect_right(ordered, top // 2)
    repeats = sum(map(eq, ordered, islice(ordered, 1, k)))
    _check_work((top // 2 - k + repeats) * (top + 1), _SIEVE_WORK)
    digits = bytearray(b"0") * (top + 1)
    for v in ordered:
        digits[top - v] = 49  # b"1", most significant first
    return int(digits, 2)


def from_gaps(gaps: Iterable[int]) -> NumericalSemigroup:
    """Build the semigroup whose gap set is exactly ``gaps``.

    Raises NotASemigroup(a, b) when two non-gaps sum to a listed gap.
    """
    return NumericalSemigroup(gaps)


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Smallest semigroup containing 0 and all of ``gens``.

    Requires gcd(gens) == 1, otherwise the complement is infinite.  Every
    gap lies below Schur's bound (a_1 - 1)(a_j - 1), with a_1 < ... < a_j
    the shortest prefix whose gcd is 1.  The sieve's work is checked before
    that window is allocated; the constructor checks its closure sieve's.
    """
    gen_list = sorted(set(gens))
    if not gen_list:
        raise EmptyInput("need at least one generator")
    if gen_list[0] < 1:
        raise ValueError("generators must be positive integers")
    gcds = list(accumulate(gen_list, math.gcd))
    if gcds[-1] != 1:
        raise GcdNotOne(f"gcd of {gen_list} is not 1")
    window = (gen_list[0] - 1) * (gen_list[gcds.index(1)] - 1)
    # a generator a shifts the window by each a * 2^k < window
    shifts = sum(((window - 1) // a).bit_length() for a in gen_list)
    _check_work(shifts * window, "generator sieve work shift-ors * window")
    mask = (1 << window) - 1
    bits = 1
    for a in gen_list:
        # shift-ors by a, 2a, 4a, ... add every multiple of a in the window
        s = a
        while s < window:
            bits |= (bits << s) & mask
            s *= 2
    return NumericalSemigroup(mask & ~bits)


def _multiples(N: int, count: int) -> int:
    """Bitset with bits N, 2N, ..., count*N set, built by doubling."""
    bits = 1 << N if count > 0 else 0
    done = 1
    while done < count:
        step = min(done, count - done)
        bits |= bits << (step * N)
        done += step
    return bits


def natural_gamma(H: NumericalSemigroup, n: int) -> int:
    """Number of gaps divisible by n."""
    if n < 1:
        raise ValueError("modulus must be positive")
    return (H._gap_bits() & _multiples(n, H.frobenius // n)).bit_count()


def _mirror(bits: int, top: int) -> int:
    """``bits``, none above ``top``, reflected in top / 2: bit k becomes
    bit top - k, by reversing the binary digits."""
    return int(bin(bits)[:1:-1], 2) << top + 1 - bits.bit_length()


def _exceptional_bits(H: NumericalSemigroup) -> int:
    """Bitset of the gaps h with F/2 <= h < F whose mirror F - h is a gap
    too, for F >= 1 the Frobenius number: one AND of the gaps with the
    complement of the elements' mirror (``_mirror_bits``), cut below F/2.
    When F is even, F/2 is the least of them."""
    half = H.conductor >> 1  # ceil(F / 2); bit F of the mirror is 0, an element
    return H._gap_bits() >> half << half & ~H._mirror_bits()


@dataclass(frozen=True)
class AperyProfile:
    """Least elements per residue class modulo a fixed element.

    s[k] is the least element congruent to k+1 (mod modulus) and
    e[k] = (s[k] - (k+1)) / modulus counts the gaps in that class.
    """

    modulus: int
    s: tuple[int, ...]
    e: tuple[int, ...]


def _apery_bits(H: NumericalSemigroup, m: int) -> int:
    """Bitset of the Apery set of H with respect to its element m > 0: bit
    w set iff w is in H and w - m is not.  All of it lies in [0, F + m]."""
    full = ((2 << H.frobenius + m) - 1) & ~H._gap_bits()  # the elements up to F + m
    return full & ~(full << m)


def apery_profile(H: NumericalSemigroup, m: int) -> AperyProfile:
    """Apery data of H relative to the positive element m, read from the
    Apery mask (``_apery_bits``) and ordered by residue; the mask's width
    and the memory of its m - 1 entries are checked against WORK_CAP first."""
    if m <= 0 or m not in H:
        raise NotAnElement(f"{m} is not a positive element")
    # an entry takes about 90 bytes: two ints, their slots, the decode lists
    _check_work(H.frobenius + m + 1 + (m - 1) * 720,
                "Apery mask and output bits F + m + 1 + (m - 1) * 720")
    s = sorted(_bit_positions(_apery_bits(H, m))[1:], key=m.__rmod__)
    return AperyProfile(m, tuple(s), tuple(map(m.__rfloordiv__, s)))


def tree_children(H: NumericalSemigroup) -> list[NumericalSemigroup]:
    """Children in the genus tree: H minus x for each effective generator
    x of H (a minimal generator beyond the Frobenius number), in ascending
    order of x, built in one pass over H's fields.

    Removing a minimal generator keeps closure, so no child runs the
    constructor's sieve.  H's effective generators, bits and sumsets are
    read once for all the children; a child's membership bitset is H's,
    filled with elements up to x + 1 but for x, and its gap tuple is
    decoded from it only when read.  A child keeps a reference to H and
    derives its own effective generators from H's when it is expanded in
    turn (``_effective_generators``).  The gap sumsets H keeps, S_1 .. S_k,
    carry over as S_j' = S_j | (S_{j-1}' << x), with S_0' = {0}.
    """
    eff = H._effective_generators()
    genus = H.genus + 1
    sums = H._sumsets
    c = 1 << H.conductor
    # the members below the conductor, less the bit at the conductor:
    # adding 3 << x sets the conductor .. x + 1, all but x
    low = (H._member_bits ^ c) - c
    new = object.__new__
    kids = []
    for x in eff:
        child = new(NumericalSemigroup)
        child.genus = genus
        child.frobenius = x
        child.conductor = x + 1
        child._member_bits = low + (3 << x)
        child._small = None
        child._min_gens = None
        child._eff = None
        child._parent = H
        child._rev = None
        if sums:
            carried = []
            prev = 1
            for s in sums:
                prev = s | (prev << x)
                carried.append(prev)
            child._sumsets = tuple(carried)
        else:
            child._sumsets = sums
        kids.append(child)
    return kids


def descendants(H: NumericalSemigroup, max_genus: int) -> Iterator[NumericalSemigroup]:
    """H and all its tree descendants of genus <= max_genus, depth first,
    children in ascending order of the removed generator."""
    stack = [H] if H.genus <= max_genus else []
    while stack:
        node = stack.pop()
        yield node
        if node.genus < max_genus:
            kids = tree_children(node)
            kids.reverse()
            stack += kids


def _genus_shards(lo: int, hi: int, levels: int = 0) -> list[tuple[NumericalSemigroup, int]]:
    """The genus tree to genus hi as shards, each a root and the genus its
    subtree stops at, whose nodes of genus >= lo are each semigroup of genus
    lo..hi once.  Nearly all of the tree hangs below the ordinary semigroups,
    so the shards follow their chain (each one's first child is the next):
    a chain node of genus >= lo is a one-node shard, each of its other
    children carries its subtree, and the chain stops at genus max(lo,
    hi - 5), whose node carries its subtree; a deeper chain adds shards
    faster than it evens them out.  The biggest shards come first.  The
    root, the naturals, keeps ``levels`` empty gap sumsets, which every node
    carries (``tree_children``), so a scan seeds those it reads.
    """
    if lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi")
    if hi > DEFAULT_GENUS_CAP:
        raise CapExceeded(f"genus {hi} exceeds cap {DEFAULT_GENUS_CAP}")
    shards = []
    H = NumericalSemigroup()
    H._sumsets = (0,) * levels
    while H.genus < max(lo, hi - 5):
        if H.genus >= lo:
            shards.append((H, H.genus))
        H, *siblings = tree_children(H)
        shards.extend((K, hi) for K in siblings)
    shards.append((H, hi))
    shards.reverse()
    return shards


def enumerate_genus_range(lo: int, hi: int) -> Iterator[NumericalSemigroup]:
    """Every semigroup with lo <= genus <= hi, shard by shard, each in tree
    order.  A yielded node refers to its tree parent, so a caller that keeps
    nodes also keeps their ancestors alive."""
    return (H for root, top in _genus_shards(lo, hi)
            for H in descendants(root, top) if H.genus >= lo)


def parse_semigroup(text: str) -> NumericalSemigroup:
    """Parse the text forms ``gens:4,7`` and ``gaps:1,2,3,5``.

    Values must be ascending positive integers in ASCII digits, comma
    separated with no whitespace; ``gaps:`` with an empty body denotes
    the naturals.
    """
    kind, colon, body = text.partition(":")
    if not colon or kind not in ("gens", "gaps"):
        raise ValueError(f"semigroup spec must start with 'gens:' or 'gaps:': {text!r}")
    values: list[int] = []
    if body:
        # every token nonempty ASCII digits, checked on the whole body in C:
        # an empty token shows as ",," once the body is wrapped in commas
        if not (body.isascii() and body.replace(",", "").isdigit()) or ",," in f",{body},":
            raise ValueError(f"malformed integer list in {text!r}")
        at = 0
        while at <= len(body):  # a chunk at a time: few token strings at once
            end = body.find(",", at + 16384) % (len(body) + 1)  # -1: the end
            values += map(int, body[at:end].split(","))
            at = end + 1
        if any(map(ge, values, islice(values, 1, None))):
            raise ValueError(f"values must be strictly ascending in {text!r}")
    return (from_generators if kind == "gens" else from_gaps)(values)


def format_semigroup(H: NumericalSemigroup, form: str = "gaps") -> str:
    """Serialize to the text form; ``gaps`` is the canonical one."""
    if form == "gaps":
        # the list's repr makes no string per gap, as a join would
        return "gaps:" + repr(list(H.gaps))[1:-1].replace(" ", "")
    if form == "gens":
        return "gens:" + ",".join(map(str, H.min_generators))
    raise ValueError(f"unknown form {form!r}")
