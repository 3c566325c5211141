"""The base of the toolkit's frozen records: the inputs and the bundle.

A record is a plain class with ``__slots__`` whose fields, in order, are
named by ``_fields``.  Its own ``__init__`` checks each field and stores
it once, by :func:`set_field`.  The base makes a record immutable
(assigning or deleting an attribute raises AttributeError) and gives it
what a NamedTuple has: equality and a hash over its field values (a record
never equals one of another type), a repr, ``_asdict`` and ``_replace``.
``_replace``, copy and pickle build the new record through ``__init__``,
so that it is checked as the original was.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record", "set_field"]

#: ``set_field(record, name, value)`` stores a field of a record in its
#: ``__init__``, where assignment would raise.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # The field values as a tuple; an attrgetter of one name gives the value.
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)

    def _asdict(self) -> dict:
        """A new dict of the field values by name (the values themselves, not copies)."""
        return dict(zip(self._fields, self._values(self)))

    def _replace(self, **changes: object) -> Record:
        """A record of this type with ``changes`` in place of those fields,
        checked by ``__init__`` as any record of the type is."""
        return self.__class__(**{**self._asdict(), **changes})
