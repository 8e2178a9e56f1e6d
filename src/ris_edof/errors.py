"""Exception types shared across the package.

The CLI maps each class to a distinct exit code, so library code should
raise these rather than bare ValueError/RuntimeError for anything a user
can trigger from a config file or command line.
"""


class RisEdofError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RisEdofError, ValueError):
    """Bad input value. ``field`` names the offending field when known."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class SizeGuardError(RisEdofError):
    """Problem size exceeds the configured element-count guard."""


class NumericError(RisEdofError):
    """A numerical routine failed or produced values outside its contract."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
