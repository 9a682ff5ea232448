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
    """A fibre-sum recipe violates its structural constraints; `gluing` is
    the index of the first gluing at fault, or None for the whole recipe."""

    def __init__(self, message: str, gluing: int | None = None) -> None:
        super().__init__(message)
        self.gluing = gluing


class EnumerationCapError(FibresumError):
    """A sign enumeration would exceed the configured assignment cap."""


class MathematicalInconsistencyError(FibresumError):
    """An internal consistency check failed; results must not be trusted."""


class ConfigError(FibresumError):
    """A configuration is malformed or references unknown names. A value
    from a file is reported at `path:line`; one from a command-line flag
    at the flag, given as `line`."""

    def __init__(self, message: str, *, path: str | None = None, line: int | str | None = None):
        where = path if line is None else f"{path}:{line}"
        if isinstance(line, str):  # a flag
            where = line
        super().__init__(f"{where}: {message}" if where else message)


class MissingKeyError(ConfigError):
    """A section lacks a key that its kind requires; `key` names it."""

    def __init__(self, key: str, message: str, **where) -> None:
        super().__init__(message, **where)
        self.key = key
