"""Base class of the package's immutable records.

A record names its fields once, as the public names in its ``__slots__``;
underscored slots hold derived state and stay out of equality, hashing
and the repr. Its ``__init__`` checks its arguments and sets each slot
with ``_set``. Records are plain classes rather than dataclasses because
on Python 3.11 importing ``dataclasses`` and exec-compiling each class's
methods cost about 23 ms per process, more than a short run's arithmetic.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # Copies and pickles are rebuilt through the constructor, which
        # takes the fields in order; __setattr__ would refuse them.
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
