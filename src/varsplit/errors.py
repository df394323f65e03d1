"""Exception types shared across the package.

Everything subclasses :class:`VarsplitError`, which is itself a ``ValueError``,
so callers can catch the whole family or stay generic.
"""


class VarsplitError(ValueError):
    """Base class for all domain errors raised by this package."""


class NegativeLoss(VarsplitError):
    """A loss amount or support bound is negative."""


class ProbsNotNormalized(VarsplitError):
    """Atom probabilities are not strictly positive or do not sum to one."""


class EmptySupport(VarsplitError):
    """A model was given no support points."""


class InvalidBounds(VarsplitError):
    """Interval or distribution bounds are malformed."""


class CsvFormatError(VarsplitError):
    """A loss CSV file has a bad header or a malformed row."""


class InvalidLevel(VarsplitError):
    """A confidence level lies outside the open interval (0, 1)."""


class AtomTooHeavy(VarsplitError):
    """A single atom carries too much mass for any valid tranche partition."""


class NInsufficient(VarsplitError):
    """The requested number of tranches cannot satisfy the mass bound."""


class PartitionMismatch(VarsplitError):
    """A partition does not span the model's support."""


class OutOfSupport(VarsplitError):
    """A realization lies outside the model's support range."""
