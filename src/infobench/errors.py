"""Exception types shared across the package.

Two top-level families map onto the CLI exit-code contract:
``InputError`` (bad or incomplete input data, exit code 2) and
``DomainError`` (mathematically undefined request, exit code 1).
``InputError`` is also a ``ValueError``, so library callers that catch
``ValueError`` for a bad argument keep working.
"""

from __future__ import annotations


class InfobenchError(Exception):
    """Base class for all package errors."""


class InputError(InfobenchError, ValueError):
    """Malformed, missing, or inconsistent input data, or an argument out of range."""


class ParseError(InputError):
    """A playthrough or stats CSV failed to parse.

    Carries the 1-based line number of the offending row (the header
    counts as line 1) and, when the rows came from a file, its path.
    """

    def __init__(self, message: str, line: int, path: str | None = None):
        where = f"line {line}" if path is None else f"{path}: line {line}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.line = line
        self.path = path


class CompletenessError(InputError):
    """A performance table is missing (agent, problem) coverage."""

    def __init__(self, message: str, missing: tuple = ()):
        super().__init__(message)
        self.missing = tuple(missing)


class DomainError(InfobenchError):
    """The requested quantity is undefined for this input."""
