"""Shared exception types."""


class GraphParseError(ValueError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BudgetError(RuntimeError):
    """An explicit size budget was exceeded; the operation refuses to run."""


class ConsistencyError(AssertionError):
    """An internal cross-check that should hold by theory has failed."""
