"""Immutable value records compared, hashed and printed by their fields."""

from operator import attrgetter

setfield = object.__setattr__  # per-field setter of the records built most often


class Record:
    """Fields are a subclass's `__slots__`, in order; `compare=` names those that
    equality and hashing read (default all).  Pickling calls the class again."""

    __slots__ = ()

    def __init_subclass__(cls, compare=None):
        key = attrgetter(*(compare or cls.__slots__))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(key(self))

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            setfield(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"record field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, n) for n in self.__slots__)
