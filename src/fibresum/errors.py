"""Exception hierarchy shared across the package."""

from __future__ import annotations


class FibresumError(Exception):
    """Base class for all errors raised by this package."""


class EmbeddingError(FibresumError):
    """A curve or link is not embedded (components touch or self-intersect)."""


class IllConditionedError(FibresumError):
    """Curves are too close for the floating-point linking integral."""


class GenericityError(FibresumError):
    """No generic projection direction was found within the retry budget."""


class RecipeError(FibresumError):
    """A fibre-sum recipe violates its structural constraints."""


class EnumerationCapError(FibresumError):
    """A sign enumeration would exceed the configured assignment cap."""


class MathematicalInconsistencyError(FibresumError):
    """An internal consistency check failed; results must not be trusted."""


class ConfigError(FibresumError):
    """A configuration file is malformed or references unknown names."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        prefix = ""
        if path is not None:
            prefix = path if line is None else f"{path}:{line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.path = path
        self.line = line
