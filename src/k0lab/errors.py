"""Exception types shared across the library, and its one rule for integer input."""


def all_ints(values) -> bool:
    """Whether every value is an int or a bool, in one pass at C speed.

    A float, Fraction or Decimal among ints makes their sum one of those,
    and a non-number makes it raise.  Constructors that take integers from
    a caller refuse input that fails this rather than truncate it.
    """
    try:
        return type(sum(values)) is int
    except TypeError:
        return False


class InvalidSpecError(ValueError):
    """A graph or group specification violates its invariants."""


class NotGeneratingError(ValueError):
    """The chosen generators do not generate the group (graph not strongly connected)."""


class NotPurelyInfiniteSimpleError(ValueError):
    """An operation needed the purely-infinite-simple hypothesis and it failed."""


class GroupTableError(ValueError):
    """Raised for a malformed group-table file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InternalCheckError(AssertionError):
    """An internal consistency check failed: a fault in the library, not in the input.

    Raised explicitly, so the check survives ``python -O``.
    """
