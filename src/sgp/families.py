"""Constructive generators for the semigroup families with verified claims.

Each constructor builds a semigroup from parameters and re-checks every
property the construction promises (genus, last gap, type verdicts,
projection, bound sharpness).  A failed check aborts with ClaimFailed, so
a returned FamilyResult is self-certifying; purely observational data
(counts, validity ranges) goes into diagnostics instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .bounds import coprime_lower_bound, divisor_condition, rho1, rho3
from .classify import _require_prime, project_by_n, type_verdict
from .core import (NumericalSemigroup, _check_sumset_work, _check_work, _mirror, _multiples,
                   format_semigroup, from_generators, natural_gamma)
from .errors import ClaimFailed, ParityViolation, PreconditionViolated, RangeViolation
from .obstruction import NOT_WEIERSTRASS, gap_sum_profile, pairing_obstruction


@dataclass(frozen=True)
class Claim:
    name: str
    expected: Any
    observed: Any
    holds: bool


@dataclass(frozen=True)
class FamilyResult:
    semigroup: NumericalSemigroup
    family: str
    params: dict[str, Any]
    claims: tuple[Claim, ...]
    diagnostics: dict[str, Any] = field(default_factory=dict)


class _Claims:
    """Accumulates claims; any mismatch aborts the construction."""

    def __init__(self, family: str):
        self.family = family
        self.claims: list[Claim] = []

    def check(self, name: str, expected: Any, observed: Any) -> None:
        holds = expected == observed
        self.claims.append(Claim(name, expected, observed, holds))
        if not holds:
            raise ClaimFailed(
                f"{self.family}: {name} expected {expected!r}, got {observed!r}")


def buchweitz_family(g: int, i: int, a: int | None = None) -> FamilyResult:
    """Semigroup with gaps {1..g-i}, an arithmetic block below h1, then h1
    and 2g-2i+1, engineered so the pairwise gap sums overshoot their bound.

    Default a = 2i-5 needs g >= 9i-20; any a > 2i-6 works provided
    g >= 2a-10+5i and 3g+2a+i-10 is even (then h1 is half of it).  At
    collision parameters a pairwise sum the construction counts on lands
    in the guaranteed baseline instead, the count meets its bound, and the
    pairing_obstruction claim raises ClaimFailed.  With the default a these
    are g = 9i-18 and (g, i) = (20, 4), (24, 4): the only ones for
    i = 4..6 up to g = 20,000 and for i = 7..40 below g = 1,000.
    """
    if i < 4:
        raise RangeViolation(f"need i >= 4, got {i}")
    if a is None:
        a = 2 * i - 5
    if a <= 2 * i - 6:
        raise RangeViolation(f"need a > 2i-6 = {2 * i - 6}, got {a}")
    if (3 * g + 2 * a + i - 10) % 2:
        raise ParityViolation(f"3g + 2a + i - 10 = {3 * g + 2 * a + i - 10} is odd")
    if g < 2 * a - 10 + 5 * i:
        raise RangeViolation(f"need g >= {2 * a - 10 + 5 * i}, got {g}")
    h1 = (3 * g + 2 * a + i - 10) // 2
    ell = 2 * g - 2 * i + 1
    # the pairwise gap sumset below is the costly part: fail before building,
    # by _sumset's estimate.  The multiplicity is m = g - i + 1 and the i
    # gaps above it lie below 2m, each in its own class: m - 1 classes, one
    # doubling to reach the classes of two gaps, one level to build
    _check_sumset_work(g - i + 1, ell, 2, 0)
    H = NumericalSemigroup([*range(1, g - i + 1), *(h1 - a - 2 * k for k in range(i - 2)),
                            h1, ell])

    sheet = _Claims("buchweitz_family")
    sheet.check("genus", g, H.genus)
    sheet.check("last_gap", ell, H.frobenius)
    # the verdict counts the pairwise sumset, so a collision, where the
    # count meets its bound, is refused here
    sheet.check("pairing_obstruction", NOT_WEIERSTRASS, pairing_obstruction(H))
    profile = gap_sum_profile(H, 2)
    return FamilyResult(H, "buchweitz_gen", {"g": g, "i": i, "a": a}, tuple(sheet.claims),
                        {"h1": h1, "excess": profile.excess,
                         "pair_sum_cardinality": profile.cardinality,
                         "pair_sum_bound": profile.bc_bound,
                         "fails_pair_sum_bound": not profile.passes_bc})


def _cover_u_table(N: int, gamma: int, lam: int, u: int) -> int:
    """U, the lift's members of [1, 2g] at multiples of N or at 2g, by g = lam*N + u."""
    if u == 0:
        return 2 * lam - gamma
    return 2 * lam + 1 - gamma if 2 * u <= N else 2 * lam + 2 - gamma


def cover_family(htilde: NumericalSemigroup, N: int, g: int, f: int) -> FamilyResult:
    """Lift a genus-gamma semigroup to a type-(N, gamma) semigroup of genus
    g with last gap 2g-f, by scaling it by N and reflecting the scaled
    complement below 2g-f.

    The reflected set has g + f - 1 members in [1, 2g], and that count alone
    decides the branch: at f = 1 it is the lift (cover_h1); at f = 2 the
    biggest integer <= (2g-f)/2 is removed (cover_h2).  Which f - 1 members
    to remove for f >= 3 is open, so those tuples raise ClaimFailed on
    element_count_up_to_2g.  Tuples with 2g-f divisible by N are rejected
    rather than silently bumping g.
    """
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
    # the output's closure sieve bounds the work: fewer than g elements below
    # ell/2, each shifted across about ell bits
    _check_work(g * ell, "cover work g * (2g - f)")

    # N*htilde on [0, 2g], and the reflected part ell - r for r <= g - 1
    # outside it, by reversing that complement's bit string over [0, ell]
    multiples = _multiples(N, 2 * g // N)
    scaled = (multiples | 1) & ~sum(1 << N * k for k in htilde.gaps)
    reflected = _mirror(~scaled & ((1 << g) - 1), ell)
    # the members of H1 in [0, 2g]: every integer above ell is one
    members = scaled | reflected | ((1 << (2 * g + 1)) - (1 << (ell + 1)))
    gap_bits = ~members & ((1 << (ell + 1)) - 1)
    # U counts the members of [1, 2g] at multiples of N or at 2g, V the rest
    u_direct = (members & (multiples | 1 << (2 * g))).bit_count()
    v_direct = members.bit_count() - 1 - u_direct
    # one element too many (the f = 2 case): the middle one is removed
    h2_branch = u_direct + v_direct == g + 1
    e = ell // 2
    diagnostics: dict[str, Any] = {
        "branch": "H2" if h2_branch else "H1",
        "lambda": lam, "u": u, "U": u_direct, "V": v_direct,
        "removed": e if h2_branch else None,
    }
    sheet = _Claims("cover_family")
    if h2_branch:
        sheet.check("removed_element_was_present", True, members >> e & 1 == 1)
        gap_bits |= 1 << e
    else:
        sheet.check("element_count_up_to_2g", g, u_direct + v_direct)
    u_table = _cover_u_table(N, gamma, lam, u)
    diagnostics["U_table"] = u_table
    sheet.check("U_matches_case_table", u_table, u_direct)

    H = NumericalSemigroup(gap_bits)
    sheet.check("genus", g, H.genus)
    sheet.check("last_gap", ell, H.frobenius)
    sheet.check("type_verdict", True, type_verdict(H, N, gamma).is_type)
    sheet.check("projection_recovers_input", htilde, project_by_n(H, N, gamma))
    params = {"htilde": format_semigroup(htilde), "N": N, "g": g, "f": f}
    return FamilyResult(H, "cover_h2" if h2_branch else "cover_h1",
                        params, tuple(sheet.claims), diagnostics)


def superelliptic_sharp(N: int, gamma: int, g: int) -> FamilyResult:
    """The semigroup generated by 2N, L and (2*gamma+1)N, where L is the
    coprime-element lower bound itself: genus comes out exactly g and L
    attains the bound, so the bound is sharp.
    """
    _require_prime(N)
    if gamma < 0:
        raise PreconditionViolated("need gamma >= 0")
    if (g - N * gamma) % (N - 1):
        raise PreconditionViolated(f"need g - N*gamma divisible by N-1 = {N - 1}")
    L = (2 * g - 2 * gamma * N) // (N - 1) + 1
    if math.gcd(L, 2 * N) != 1:
        raise PreconditionViolated(f"L = {L} must be coprime to 2N = {2 * N}")
    i2 = (g - (2 * N - 1) * gamma) // (N - 1)
    if i2 < 1:
        raise PreconditionViolated(f"need i2 >= 1, got {i2}")
    i1 = 2 * gamma + 1
    H = from_generators([2 * N, L, i1 * N])

    sheet = _Claims("superelliptic_sharp")
    sheet.check("genus", g, H.genus)
    sheet.check("gamma_n", gamma, natural_gamma(H, N))
    sheet.check("i1_plus_2_i2_is_L", L, i1 + 2 * i2)
    sheet.check("lower_bound_attained_at_L", L, coprime_lower_bound(H, N))
    sheet.check("L_is_element", True, L in H)
    diagnostics: dict[str, Any] = {"L": L, "i1": i1, "i2": i2, "A": None}
    # when g = rho1(A, N, gamma) for an integer A >= 2*gamma, L collapses
    # to AN-1 and caps the (A-gamma)-th element, so rho1 is sharp too
    num = 2 * (g - N * gamma + N - 1)
    den = N * (N - 1)
    if num % den == 0 and num // den >= 2 * gamma:
        A = num // den
        diagnostics["A"] = A
        sheet.check("g_is_rho1_at_A", rho1(A, N, gamma), g)
        sheet.check("L_is_AN_minus_1", A * N - 1, L)
        sheet.check("element_A_minus_gamma_capped", True,
                    H.element_at(A - gamma) <= A * N - 1)
    return FamilyResult(H, "superelliptic_sharp",
                        {"N": N, "gamma": gamma, "g": g}, tuple(sheet.claims), diagnostics)


def superelliptic_extremal(N: int, gamma: int) -> FamilyResult:
    """The two-generator semigroup <2N, 2N*gamma+2N-1>: genus lands exactly
    on rho3(N, gamma), yet the semigroup is not of type (N, gamma), so the
    rho3 threshold cannot be lowered.

    The pole-order coincidence element_at(A-gamma) == A*N is probed for
    every integer A with 2*gamma <= A < 4*gamma+4-2/N and the observed
    sub-range is recorded as a diagnostic (it holds for even A only).
    """
    _require_prime(N)
    if gamma < 0:
        raise PreconditionViolated("need gamma >= 0")
    i1 = 2 * N * gamma + 2 * N - 1
    H = from_generators([2 * N, i1])
    sheet = _Claims("superelliptic_extremal")
    sheet.check("genus_is_rho3", rho3(N, gamma), H.genus)
    sheet.check("genus_attains_jenkins", (2 * N - 1) * (i1 - 1) // 2, H.genus)
    sheet.check("not_type", False, type_verdict(H, N, gamma).is_type)
    # integer A with 2*gamma <= A < 4*gamma+4-2/N, i.e. A*N <= (4*gamma+4)*N-3
    a_top = ((4 * gamma + 4) * N - 3) // N
    a_range = range(2 * gamma, a_top + 1)
    observed = [A for A in a_range if H.element_at(A - gamma) == A * N]
    return FamilyResult(H, "superelliptic_extremal",
                        {"N": N, "gamma": gamma}, tuple(sheet.claims),
                        {"i1": i1,
                         "pole_order_match_range": [a_range.start, a_range.stop - 1],
                         "pole_order_match_observed": observed})


def superelliptic_spurious(N: int, gamma: int, A: int, t: int, g: int) -> FamilyResult:
    """A semigroup whose (A-gamma)-th element is A*N even though the
    divisor condition fails at A: built on rt = (A*N/t - A + gamma + 1)*t
    instead of 2N.  Shows the divisor condition cannot be dropped.
    """
    _require_prime(N)
    if A < 2 * gamma + 1:
        raise PreconditionViolated("need A >= 2*gamma + 1")
    if not 2 <= t <= 2 * N - 1:
        raise PreconditionViolated(f"need t in [2, {2 * N - 1}]")
    if t == N:
        raise PreconditionViolated("t = N is excluded")
    if A % t:
        raise PreconditionViolated(f"need t | A, got A = {A}, t = {t}")
    r = A * N // t - A + gamma + 1
    rt = r * t
    if rt < 2:
        raise PreconditionViolated(f"derived base rt = {rt} is degenerate")
    if 2 * g <= A * N * (A * (N - 2) + 2 * gamma + 3) or \
            g <= A * (N - 1) * (N - 2) + (3 * N - 2) * gamma + 3 * (N - 1):
        raise PreconditionViolated("g is below the required bound")
    if (2 * g) % (rt - 1):
        raise PreconditionViolated(f"2g must be divisible by rt - 1 = {rt - 1}")
    i1 = 2 * g // (rt - 1) + 1
    if math.gcd(rt, i1) != 1:
        raise PreconditionViolated(f"rt = {rt} and i1 = {i1} are not coprime")
    H = from_generators([rt, i1])

    sheet = _Claims("superelliptic_spurious")
    sheet.check("genus", g, H.genus)
    sheet.check("element_A_minus_gamma", A * N, H.element_at(A - gamma))
    sheet.check("divisor_condition_fails", False, divisor_condition(A, N, gamma))
    sheet.check("not_type", False, type_verdict(H, N, gamma).is_type)
    return FamilyResult(H, "superelliptic_spurious",
                        {"N": N, "gamma": gamma, "A": A, "t": t, "g": g},
                        tuple(sheet.claims), {"r": r, "rt": rt, "i1": i1})
