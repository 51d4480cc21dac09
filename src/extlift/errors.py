"""Exception types raised by extlift.

Input validation failures (bad tables, unknown names, precondition
violations) and search-bound overruns get distinct classes so the CLI can
map them to exit codes without string matching.
"""

from __future__ import annotations

__all__ = [
    "ExtliftError",
    "InputError",
    "NotAssociative",
    "NoIdentity",
    "NotLatinSquare",
    "ClosureBoundExceeded",
    "UnknownName",
    "BadParameters",
    "NotNormal",
    "NotAbelian",
    "BoundExceeded",
    "NotCompatible",
    "NotCentral",
    "DoesNotNormalize",
    "TripleConditionsFail",
    "ParentMismatch",
    "NotACocycle",
    "PrimeDoesNotDivide",
    "SylowNotInvariant",
    "NotCharacteristic",
    "NotSplit",
    "NotExtraspecialShape",
]


class ExtliftError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ExtliftError, ValueError):
    """Invalid input data or violated operation precondition."""


class BoundExceeded(ExtliftError):
    """A configured enumeration or linear-algebra bound was exceeded."""


class NotAssociative(InputError):
    """Cayley table fails associativity; message names the first bad triple."""


class NoIdentity(InputError):
    """Cayley table has no two-sided identity element."""


class NotLatinSquare(InputError):
    """Some row or column of the Cayley table is not a permutation."""


class ClosureBoundExceeded(BoundExceeded):
    """Permutation closure grew past the configured bound."""


class UnknownName(InputError):
    """Catalog constructor name is not recognised."""


class BadParameters(InputError):
    """Catalog constructor parameters are out of range or malformed."""


class NotNormal(InputError):
    """Subgroup is not normal; message names a conjugating violator."""


class NotAbelian(InputError):
    """Group or subgroup is not abelian; message names a non-commuting pair."""


class NotCompatible(InputError):
    """Automorphism pair fails the compatibility condition."""


class NotCentral(InputError):
    """Operation requires a central extension."""


class DoesNotNormalize(InputError):
    """Automorphism does not map the distinguished subgroup onto itself."""


class TripleConditionsFail(InputError):
    """Candidate triple violates one of the two defining conditions."""


class ParentMismatch(InputError):
    """Objects belong to different parent structures."""


class NotACocycle(InputError):
    """Cochain fails the two-cocycle identity; at is the first failing
    triple (x, y, z)."""

    def __init__(self, at: tuple):
        super().__init__(f"cocycle identity fails at {at}")
        self.at = at


class PrimeDoesNotDivide(InputError):
    """Requested prime does not divide the relevant group order."""


class SylowNotInvariant(ExtliftError):
    """No conjugate of the chosen Sylow subgroup is invariant under the map."""


class NotCharacteristic(InputError):
    """Subgroup is not characteristic where the operation requires it."""


class NotSplit(ExtliftError):
    """Extension does not split."""


class NotExtraspecialShape(InputError):
    """Group does not have the shape N = Z(G) = [G, G] with |N| = 2."""
