"""Exception types shared across the package."""

from __future__ import annotations


class MlmodError(Exception):
    """Base class for all package errors."""


class DomainError(MlmodError, ValueError):
    """An argument violates an operation's contract (bad index, bad parameter)."""


class ParseError(MlmodError, ValueError):
    """A file could not be parsed.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class ConvergenceError(MlmodError, RuntimeError):
    """An iterative solver stopped before reaching its tolerance."""
