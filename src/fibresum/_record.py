"""Base class of the package's immutable records.

A record names its fields once, as the public names in its
``__slots__``; underscored slots hold derived state and stay out of
equality, hashing and the repr. A fact that follows from the fields,
such as a flag or a tally, is a read-only property rather than a field,
so a record never stores a value next to the one it follows from.
``Record`` builds each record from those slots: its ``__init__`` takes
the fields in slot order, by position or keyword, and has no defaults. A
record writes its own ``__init__`` only to check, normalise or derive,
setting each slot with ``_set``; it still takes the fields in order, as
copies and pickles rely on. Records are plain classes rather than
dataclasses because on Python 3.11 importing ``dataclasses`` and
exec-compiling each class's methods cost about 23 ms per process, more
than a short run's arithmetic.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...]
    _setters: tuple

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        # The slots' own descriptors store a value without going through
        # __setattr__, which refuses; bound once here for the constructor.
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The arguments in field order; raises TypeError as a function
        with the fields as its parameters would."""
        name = type(self).__qualname__
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        bound = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in bound:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            bound[key] = value
        missing = [f for f in fields if f not in bound]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(map(repr, missing))}")
        return tuple(bound[f] for f in fields)

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
