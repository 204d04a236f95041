"""Exception types shared across the library."""


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
