"""The one size limit.  A request whose size grows with its input (points
of a structure set, entries of a linking matrix, bits of packed fusion
tables, colorings of a brute-force sum) is charged its units before any
of them is built, and refused once they exceed ``ENUMERATION_LIMIT``."""

ENUMERATION_LIMIT = 1 << 24


class SizeLimitError(ValueError):
    """A request refused by `charge`, before any work on it."""


def charge(units: int, what: str) -> None:
    """Refuse ``what``, a request of ``units`` units, over the limit."""
    if units > ENUMERATION_LIMIT:
        raise SizeLimitError(f"{what} exceeds size limit")
