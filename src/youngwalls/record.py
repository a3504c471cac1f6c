"""Immutable value records over ``__slots__``."""

from __future__ import annotations


class Record:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__`` and passes their values, in
    that order, to ``Record.__init__``.  Two records are equal when they are
    of the same class and their fields are equal in order; the hash is the
    hash of the field tuple, so a record is hashable exactly when its fields
    are.  Setting or deleting an attribute raises ``AttributeError``;
    copies and pickles are rebuilt through the constructor.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"
