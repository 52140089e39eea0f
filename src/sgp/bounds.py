"""Closed-form genus bounds and the arithmetic predicates built on them.

All bounds are exact integers; divisions are checked for exactness where
the formulas require it instead of being silently rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import NumericalSemigroup, natural_gamma
from .errors import DegenerateDenominator, NotCoprime, PreconditionViolated


def rho1(a: int, n: int, gamma: int) -> int:
    """A(N-1)N/2 + N*gamma - N + 1 (always integral)."""
    return a * (n - 1) * n // 2 + n * gamma - n + 1


def rho2(n: int, gamma: int) -> int:
    """N(2N-1)*gamma - (N-1)(N+2)."""
    return n * (2 * n - 1) * gamma - (n - 1) * (n + 2)


def rho3(n: int, gamma: int) -> int:
    """(2N-1)(N*gamma + N - 1)."""
    return (2 * n - 1) * (n * gamma + n - 1)


def rho4(a: int, u: int, n: int, gamma: int) -> int:
    """(N-u-1)[(A-gamma-1)(N+u) - 2(N*gamma+N-1)]/2 + rho3(N, gamma).

    Always integral: when N-u-1 is odd, N+u is even, and so is the bracket.
    """
    num = (n - u - 1) * ((a - gamma - 1) * (n + u) - 2 * (n * gamma + n - 1))
    return num // 2 + rho3(n, gamma)


def rho5(n: int, gamma: int) -> int:
    """2N*gamma + (N-1)^2."""
    return 2 * n * gamma + (n - 1) * (n - 1)


def castelnuovo_c(d: int, r: int) -> int:
    """Castelnuovo's genus bound c(d, r) for a nondegenerate degree-d curve
    in r-dimensional projective space."""
    if r < 2:
        raise ValueError("castelnuovo_c requires r >= 2")
    if d < 1:
        raise ValueError("castelnuovo_c requires d >= 1")
    m = (d - 1) // (r - 1)
    eps = d - 1 - m * (r - 1)
    return m * (m - 1) // 2 * (r - 1) + m * eps


def compositum_bound(n1: int, g1: int, n2: int, g2: int) -> int:
    """(n1-1)(n2-1) + n1*g1 + n2*g2."""
    return (n1 - 1) * (n2 - 1) + n1 * g1 + n2 * g2


def coprime_lower_bound(H: NumericalSemigroup, n: int) -> int:
    """Least possible element coprime to n: ceil((2g - 2n*gamma_n)/(n-1)) + 1.

    Every element of H coprime to n is at least this bound.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    num = 2 * H.genus - 2 * n * natural_gamma(H, n)
    return -(-num // (n - 1)) + 1


def jenkins_bound(m: int, n: int) -> int:
    """Genus bound (m-1)(n-1)/2 for a semigroup containing coprime m < n."""
    if not 0 < m < n:
        raise ValueError("need 0 < m < n")
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m}, {n}) != 1")
    return (m - 1) * (n - 1) // 2


def rho4_u(a: int, n: int, gamma: int) -> int:
    """The u argument rho4 takes: biggest integer <= (N*gamma+N-1)/(A-gamma-1)."""
    if a <= gamma + 1:
        raise DegenerateDenominator(f"need A >= gamma + 2, got A={a}, gamma={gamma}")
    return (n * gamma + n - 1) // (a - gamma - 1)


def divisor_condition(a: int, n: int, gamma: int) -> bool:
    """True iff no integer t with 2 <= t <= A*N/(A-gamma) and t != N divides A.

    This is the arithmetic condition that pins the degree of the map cut
    out by the first A - gamma elements down to N.
    """
    if a <= gamma:
        raise ValueError("need A > gamma")
    limit = (a * n) // (a - gamma)
    return all(a % t for t in range(2, limit + 1) if t != n)


def total_ramification_threshold(h: int, n: int, gamma: int, g: int) -> bool:
    """Strict inequality (N-1)h < g - N*gamma + N - 1."""
    return (n - 1) * h < g - n * gamma + n - 1


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound, for structured output."""

    name: str
    arguments: tuple[int, ...]
    value: int
    hypothesis_met: bool | None = None


# each bound's arguments with the least value of its domain (None: any
# integer, or the function checks it)
_EVAL_TABLE = {
    "rho1": (rho1, {"A": None, "N": 1, "gamma": 0}),
    "rho2": (rho2, {"N": 1, "gamma": 0}),
    "rho3": (rho3, {"N": 1, "gamma": 0}),
    "rho4": (rho4, {"A": None, "u": 0, "N": 1, "gamma": 0}),
    "rho5": (rho5, {"N": 1, "gamma": 0}),
    "castelnuovo_c": (castelnuovo_c, {"d": 1, "r": 2}),
    "compositum": (compositum_bound, {"N1": 1, "g1": 0, "N2": 1, "g2": 0}),
    "jenkins": (jenkins_bound, {"m": None, "n": None}),
}


def evaluate(name: str, args: list[int] | tuple[int, ...]) -> BoundReport:
    """Evaluate a named integer-argument bound into a BoundReport; arguments
    below its domain or refused by the function raise PreconditionViolated."""
    if name not in _EVAL_TABLE:
        raise ValueError(f"unknown bound {name!r}")
    fn, domain = _EVAL_TABLE[name]
    if len(args) != len(domain):
        raise ValueError(f"{name} takes {len(domain)} arguments, got {len(args)}")
    for (arg, least), value in zip(domain.items(), args):
        if least is not None and value < least:
            raise PreconditionViolated(f"{name} needs {arg} >= {least}, got {value}")
    try:
        return BoundReport(name, tuple(args), fn(*args))
    except ValueError as exc:
        got = ", ".join(f"{arg}={value}" for arg, value in zip(domain, args))
        raise PreconditionViolated(f"{name}: {exc} (got {got})") from exc
