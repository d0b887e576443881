"""Exception types shared across the package."""

from __future__ import annotations


class GroundsubError(Exception):
    """Base class for every error raised by this package."""


class GraphError(GroundsubError):
    """A graph construction or query violated a structural invariant."""


class ParseError(GroundsubError):
    """Source text could not be parsed or refers to unknown entities."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class DeclarationError(GroundsubError):
    """A set of class declarations is inconsistent."""


class QueryError(GroundsubError):
    """A query needs a deeper construction than the one it was given."""


class SizeLimitError(GroundsubError):
    """A construction would exceed the vertex budget of the builder."""
