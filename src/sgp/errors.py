"""Exception types shared across the library.

Every domain error derives from SemigroupError so callers (and the CLI)
can catch a single type; the class name doubles as the stable error code
in structured output.
"""

from __future__ import annotations


class SemigroupError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


class EmptyInput(SemigroupError):
    """A generator list was empty."""


class GcdNotOne(SemigroupError):
    """Generators share a common factor, so the complement is infinite."""


class NotASemigroup(SemigroupError):
    """A claimed gap set is not the complement of a semigroup."""

    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(f"{a} + {b} = {a + b} is a listed gap")


class NotAnElement(SemigroupError):
    """The chosen modulus is not a positive element of the semigroup."""


class CapExceeded(SemigroupError):
    """A requested size (the genus of an enumeration, the width of a gap
    sumset or the work to build it) exceeds its configured cap."""


class NotPrime(SemigroupError):
    """An argument required to be prime is not."""


class PreconditionViolated(SemigroupError):
    """A stated precondition of the operation does not hold."""


class NonDivisibleElement(SemigroupError):
    """Internal error: a leading element is not a multiple of N where the
    type structure guarantees it must be."""


class GenusZero(SemigroupError):
    """The operation is undefined for the full semigroup of naturals."""


class GenusTooSmall(SemigroupError):
    """Gap-sum bounds degenerate below genus 2."""


class NonIntegerRho4(SemigroupError):
    """The rho4 expression is odd before halving; the call is out of the
    formula's intended domain."""


class DegenerateDenominator(SemigroupError):
    """The u(A) quotient has a nonpositive denominator."""


class NotCoprime(SemigroupError):
    """Two integers required to be coprime are not."""


class WrongShape(SemigroupError):
    """The semigroup does not have the last-gap/exceptional-gap shape the
    pairing obstruction needs."""


class ParityViolation(SemigroupError):
    """A parity condition on family parameters fails."""


class RangeViolation(SemigroupError):
    """A range condition on family parameters fails."""


class UnknownPredicate(SemigroupError):
    """The scan predicate name is not recognised."""


class WorkerFailed(SemigroupError):
    """A forked scan worker ended without sending back its result."""


class ClaimFailed(SemigroupError):
    """A family construction, or a check of a theorem, produced an object
    violating one of its asserted properties."""
