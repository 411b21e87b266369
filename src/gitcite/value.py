"""The immutable-value base of the record classes: plain ``__slots__`` classes, no generated code."""

from operator import attrgetter


class Value:
    """A record whose fields are its ``__slots__``, in ``__init__`` order; ``__init__`` sets each once.

    Values are equal when their class and every field are, hash by their fields and print as
    ``Name(field=value, ...)``. Assigning or deleting a field raises :class:`AttributeError`.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _init(self, *values: object) -> None:
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild a value through its __init__
        return self.__class__, self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")
