"""Type-(N, gamma) classification, symmetry profiles, and the projection map.

A semigroup is of type (N, gamma) when it has gamma positive multiples of
N among its elements in [N, 2N*gamma], its gamma-th element equals
2N*gamma, and (2*gamma+1)N is an element.  This is the arithmetic shadow
of being an N-sheeted cover of a genus-gamma curve with a totally
ramified point; only the arithmetic side lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable

from .bounds import divisor_condition, rho1, rho3
from .core import (NumericalSemigroup, _bit_positions, _exceptional_bits, _multiples,
                   natural_gamma)
from .errors import CapExceeded, GenusZero, NotPrime, PreconditionViolated


# the least strong pseudoprime to all the bases: Miller-Rabin is exact below it
PRIME_CAP = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n >= PRIME_CAP raises CapExceeded."""
    if n >= PRIME_CAP:
        raise CapExceeded(f"{n} exceeds the primality cap {PRIME_CAP}")
    if n < 2 or n in _PRIME_BASES:
        return n >= 2
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _PRIME_BASES:
        x = pow(a, (n - 1) >> s, n)
        # a prime n makes x 1, or one of x^(2^i) with i < s equal to -1
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def _require_prime(n: int) -> None:
    if not is_prime(n):
        raise NotPrime(f"{n} is not prime")


@dataclass(frozen=True)
class TypeVerdict:
    """The three defining conditions of type (N, gamma), reported separately.

    cond_a: exactly gamma positive multiples of N are elements in [N, 2N*gamma];
    cond_b: the gamma-th element is 2N*gamma;
    cond_c: (2*gamma+1)N is an element.
    """

    N: int
    gamma: int
    cond_a: bool
    cond_b: bool
    cond_c: bool
    is_type: bool
    gamma_n: int


def _type_conditions(H: NumericalSemigroup, N: int, gamma: int,
                     multiples: int) -> tuple[bool, bool, bool]:
    """Conditions (a), (b), (c) of type (N, gamma) from H's membership bitset.

    ``multiples`` has the bit kN set for each 1 <= k <= 2*gamma, at least
    for every kN up to the conductor.  Every number from the conductor on
    is an element, so the work is bounded by the conductor, not by gamma
    or N.
    """
    c = H.conductor
    bits = H._member_bits  # bits 0 .. conductor
    # (a): the multiples up to the conductor by popcount; the others are elements
    cond_a = (bits & multiples).bit_count() + 2 * gamma - min(2 * gamma, c // N) == gamma
    # (b): 2N*gamma is an element with exactly gamma elements below it
    top = 2 * N * gamma
    if top >= c:
        cond_b = top - H.genus == gamma
    else:
        cond_b = (bits >> top & 1 == 1
                  and bits.bit_count() - (bits >> top).bit_count() == gamma)
    cond_c = top + N >= c or bits >> (top + N) & 1 == 1
    return cond_a, cond_b, cond_c


def type_verdict(H: NumericalSemigroup, N: int, gamma: int) -> TypeVerdict:
    """Evaluate all three conditions independently (no short-circuiting).

    The conditions come from the membership bitset (``_type_conditions``),
    so a huge gamma or N costs no more than a small one.  At gamma = 0
    condition (a) is vacuous and (b) reads m_0 = 0, so type (N, 0) reduces
    to N being an element.
    """
    if N < 1 or gamma < 0:
        raise ValueError("need N >= 1 and gamma >= 0")
    multiples = _multiples(N, min(2 * gamma, H.conductor // N))
    cond_a, cond_b, cond_c = _type_conditions(H, N, gamma, multiples)
    return TypeVerdict(N, gamma, cond_a, cond_b, cond_c,
                       cond_a and cond_b and cond_c, natural_gamma(H, N))


def type_test(N: int, gamma: int) -> Callable[[NumericalSemigroup], bool]:
    """``lambda H: type_verdict(H, N, gamma).is_type`` for many semigroups.

    For gamma >= 1 and T = 2N*gamma, conditions (a)-(c) together say: the
    positive elements up to T are exactly gamma multiples of N, T is one
    of them, and T + N is an element.  A node is read as its membership
    bitset with every bit from the conductor c up filled in, ANDed with
    the window of bits 1 .. T and T + N; the window's non-multiples of N
    must be empty and T, T + N set (one more AND), and its popcount must
    be gamma + 1.  Two answers need no mask: gamma = 0 is N in H, and
    T >= 2c is False, since the elements in [c, T] alone outnumber gamma.
    Otherwise T + N < 3c, so the masks, built once on the first node that
    reads them, are under 3c bits wide however large N or gamma is.
    """
    if N < 1 or gamma < 0:
        raise ValueError("need N >= 1 and gamma >= 0")
    if gamma == 0:
        return lambda H: N >= H.conductor or H._member_bits >> N & 1 == 1
    half = N * gamma
    top = 2 * half
    window = probe = need = 0

    def is_type(H: NumericalSemigroup) -> bool:
        nonlocal window, probe, need
        c = H.conductor
        if c <= half:  # T >= 2c
            return False
        if not window:
            need = 1 << top | 1 << top + N
            window = (2 << top) - 2 | need
            probe = window & ~_multiples(N, 2 * gamma) | need
        # bit c is set and none above it, so this is the bitset | -(1 << c)
        seen = (H._member_bits - (2 << c)) & window
        return seen & probe == need and seen.bit_count() == gamma + 1

    return is_type


def exclusive_types(N: int, gamma: int, M: int, r: int) -> bool:
    """True iff 2(gamma+r)M > (2*gamma+r)N, the hypothesis under which no
    semigroup is both of type (N, gamma) and of type (M, gamma+r)."""
    if r < 1:
        raise ValueError("need r >= 1")
    return 2 * (gamma + r) * M > (2 * gamma + r) * N


def is_type_by_tail(H: NumericalSemigroup, N: int) -> bool:
    """Sufficient condition: every element not divisible by N exceeds
    2N*gamma_n.  When it holds, H is of type (N, gamma_n)."""
    gamma = natural_gamma(H, N)
    top = 2 * N * gamma  # at most 2F: gamma counts gaps divisible by N
    # the elements in [1, top] less the multiples of N, by one AND
    return ((2 << top) - 2) & ~H._gap_bits() & ~_multiples(N, 2 * gamma) == 0


def is_type_by_genus(H: NumericalSemigroup, N: int) -> bool:
    """Sufficient condition for prime N: genus > N^2*gamma_n - N + 1.
    When it holds, H is of type (N, gamma_n)."""
    _require_prime(N)
    gamma = natural_gamma(H, N)
    return H.genus > rho1(2 * gamma, N, gamma)


def leading_gcd(H: NumericalSemigroup, N: int, A: int) -> int:
    """gcd of the first A - gamma_n positive elements; equals N under the
    preconditions (type (N, gamma_n), A >= 2*gamma+1, genus > rho1(A, N, gamma)).

    Below A = 2*gamma + 1 the elements read can share a larger factor (at
    A - gamma = 1 the gcd is the multiplicity), so a smaller A raises
    PreconditionViolated.
    """
    _require_prime(N)
    gamma = natural_gamma(H, N)
    if not type_verdict(H, N, gamma).is_type:
        raise PreconditionViolated("H is not of type (N, gamma_n)")
    if A < 2 * gamma + 1:
        raise PreconditionViolated("need A >= 2*gamma + 1")
    if H.genus <= rho1(A, N, gamma):
        raise PreconditionViolated("need genus > rho1(A, N, gamma)")
    return gcd(*(H.element_at(i) for i in range(1, A - gamma + 1)))


@dataclass(frozen=True)
class SymmetryProfile:
    """Near-symmetry data of the gap set.

    i is fixed by frobenius in {2g-2i+1, 2g-2i}.  exceptional_gaps lists,
    descending, the gaps h strictly between g-i and the last gap whose
    mirror last_gap - h is also a gap (the pairs excluded from the
    pairing), plus the self-paired middle gap g-i when the last gap is
    even.  Closure forces exactly i-1 excluded pairs, since two elements
    cannot mirror each other: they would sum to the last gap.
    """

    kind: str  # symmetric | quasi_symmetric | general
    i: int
    exceptional_gaps: tuple[int, ...]


def symmetry_profile(H: NumericalSemigroup) -> SymmetryProfile:
    """Kind, i and exceptional gaps of H (see SymmetryProfile), read from
    its membership bitset.  Raises GenusZero for the naturals, which have
    no last gap to mirror in."""
    g = H.genus
    if g == 0:
        raise GenusZero("symmetry is undefined for the naturals")
    ell = H.frobenius
    if ell == 2 * g - 1:
        kind = "symmetric"
    elif ell == 2 * g - 2:
        kind = "quasi_symmetric"
    else:
        kind = "general"
    return SymmetryProfile(kind, g - ell // 2, _bit_positions(_exceptional_bits(H))[::-1])


def arithmetic_cover_criterion(H: NumericalSemigroup, N: int, gamma: int) -> bool:
    """True iff some integer A in [2*gamma+2, 2*gamma+2+gamma//(N-1)]
    passes the divisor condition and has element_at(A-gamma) == A*N.

    For Weierstrass semigroups of genus above rho3 this characterises type
    (N, gamma); here it is evaluated as a pure arithmetic predicate.
    """
    _require_prime(N)
    if H.genus <= rho3(N, gamma):
        raise PreconditionViolated("need genus > rho3(N, gamma)")
    hi = 2 * gamma + 2 + gamma // (N - 1)
    return any(divisor_condition(A, N, gamma) and H.element_at(A - gamma) == A * N
               for A in range(2 * gamma + 2, hi + 1))


def project_by_n(H: NumericalSemigroup, N: int, gamma: int) -> NumericalSemigroup:
    """Project a type-(N, gamma) semigroup to genus gamma: divide the first
    gamma elements by N and keep the full tail from 2*gamma on.

    Conditions (a) and (b) make those elements multiples of N, the last
    one 2N*gamma, so their quotients leave exactly gamma gaps below 2*gamma.
    """
    if not type_verdict(H, N, gamma).is_type:
        raise PreconditionViolated("H is not of type (N, gamma)")
    head = {H.element_at(i) // N for i in range(1, gamma + 1)}
    return NumericalSemigroup(x for x in range(1, 2 * gamma) if x not in head)
