"""Exception types shared across the package.

Every domain failure raises a subclass of FlagcalcError so callers (and the
CLI) can separate computation errors from genuine bugs.
"""


class FlagcalcError(Exception):
    """Base class for all domain errors raised by flagcalc."""


class InvalidSeriesRank(FlagcalcError):
    """Unsupported (series, rank) pair requested from the builtin catalogue."""


class NotCartan(FlagcalcError):
    """A supplied integer matrix violates a Cartan matrix invariant."""


class IndexOutOfRange(FlagcalcError):
    """A node index or word letter falls outside 1..rank."""


class EmptyK(FlagcalcError):
    """The parabolic subset K must be nonempty."""


class ResourceLimit(FlagcalcError):
    """An enumeration exceeded its configured element budget."""


class NotFound(FlagcalcError):
    """The requested table entry does not exist."""


class TruncatedTable(FlagcalcError):
    """The operation needs table data beyond the computed length bound."""


class DegreeMismatch(FlagcalcError):
    """Degrees of the participating classes are inconsistent."""


class NonSurjective(FlagcalcError):
    """The chosen generators do not span the Schubert basis at some degree."""


class NotTypeA(FlagcalcError):
    """A Grassmannian-only operation was called on a non type-A table."""


class NotSingletonK(FlagcalcError):
    """A Grassmannian-only operation needs K to be a single node."""


class OutOfRange(FlagcalcError):
    """An argument falls outside its documented range."""
