"""Exception types shared across the package."""


class AffheckeError(Exception):
    """Base class for all package-specific errors."""


class RankMismatchError(AffheckeError):
    """Operands live over different ranks n."""


class ElementParseError(AffheckeError, ValueError):
    """Malformed textual element, word, or vector input."""


class NotPositiveError(AffheckeError):
    """Operation requires the positive cone but the element leaves it."""


class NonDominantError(AffheckeError):
    """A weakly decreasing integer vector was required."""


class NegativeEntryError(AffheckeError):
    """A nonnegative integer vector was required."""


class ResourceLimitError(AffheckeError):
    """A configured size or length cap would be exceeded."""


class InternalInvariantError(AffheckeError):
    """A self-check failed; indicates a bug, not bad input."""


class SpecMismatchError(AffheckeError):
    """Quotient operands carry different ideal specifications."""


class DomainMismatchError(AffheckeError):
    """Orbit functions over different flag contexts were combined."""


class IncompatibleFamilyError(AffheckeError):
    """A family of component functions fails the compatibility conditions."""


class UnsupportedParameterError(AffheckeError):
    """Parameter outside the supported range (rank, field size, depth)."""
