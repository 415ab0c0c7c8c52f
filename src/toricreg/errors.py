"""Exception hierarchy shared by all toricreg modules."""


class ToricRegError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstanceError(ToricRegError):
    """The input generator set violates a structural requirement."""


class ResourceLimitError(ToricRegError):
    """A computation would exceed the configured size cap."""


class UnsupportedInstanceError(ToricRegError):
    """The instance is neither smooth nor one-singular, and the requested
    operation is only certified for those two families."""


class PreconditionError(ToricRegError):
    """An operation was called outside its documented precondition."""


class CertificationError(ToricRegError):
    """An internally certified bound or cross-check failed.

    This is never silently resolved: it indicates either an implementation
    bug or a wrong classification, and the computation is aborted.
    """
