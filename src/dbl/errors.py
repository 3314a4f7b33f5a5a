"""Exception hierarchy for the dbl library, and its printable-integer check.

Every error raised on purpose derives from DblError so callers (and the CLI)
can tell domain errors from genuine bugs.  The CLI exits 2 for input errors
and for requests outside a theorem's hypotheses (the errors cli.run names),
and 1, with a failing verdict, for any other DblError.
"""

import sys


class DblError(Exception):
    """Base class for all library errors."""


class UnsupportedValue(DblError):
    """Operation needs a rational norm value but got an irrational one."""


class UnsupportedRing(DblError):
    pass


class ElementOutOfRange(DblError):
    pass


class ValidationFailure(DblError):
    """A normed-ring or seminorm law failed; carries the first witness."""

    def __init__(self, law, witness, message=None):
        self.law = law
        self.witness = witness
        super().__init__(message or f"{law} violated at {witness!r}")


class SizeExceeded(DblError):
    pass


def _printable(a: int, what: str) -> int:
    """a, if it has at most as many digits as the interpreter converts to str.

    A longer one raises SizeExceeded, naming what it is, before it is used
    again: no report could print it, and each product with it is slower.
    """
    limit = sys.get_int_max_str_digits()
    # 8**limit < 10**limit, so only a longer integer needs the exact test
    if limit and a.bit_length() > 3 * limit and abs(a) >= 10**limit:
        raise SizeExceeded(f"{what} of more than {limit} digits")
    return a


class SizeMismatch(DblError):
    pass


class NotClopen(DblError):
    pass


class NotContinuous(DblError):
    pass


class NotEmbedding(DblError):
    pass


class SpaceMismatch(DblError):
    pass


class RingMismatch(DblError):
    pass


class ModeMismatch(DblError):
    pass


class NotInIdeal(DblError):
    pass


class CannotSeparate(DblError):
    pass


class NotUltrafilter(DblError):
    pass


class UnrecognizedBasePoint(DblError):
    pass


class DisconnectedSpectrum(DblError):
    """Raised when a duality construction needs a connected spectrum.

    idempotent holds a nontrivial idempotent witness when one exists.
    """

    def __init__(self, ring, idempotent=None):
        self.ring = ring
        self.idempotent = idempotent
        msg = f"spectrum of {ring} is not connected"
        if idempotent is not None:
            msg += f" (idempotent witness {idempotent})"
        super().__init__(msg)


class EquivalenceViolation(DblError):
    pass


class IsCover(DblError):
    pass


class NoSection(DblError):
    pass


class NonSeparating(DblError):
    def __init__(self, pair, message=None):
        self.pair = pair
        super().__init__(message or f"generators do not separate {pair}")


class ZeroFunction(DblError):
    pass
