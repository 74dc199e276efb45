"""Base class of the small value records (SeqPair, DenomVector, ...).

It gives the equality, hashing and repr that the standard library's
generated record classes give, without importing the module that makes
them: that one loads `inspect`, `ast`, `dis` and `tokenize` on every start.
"""

from operator import attrgetter


class Record:
    """A subclass names its fields in `__slots__`, in constructor order, and
    sets them in its own `__init__`.  It gets equality (same class, equal
    fields), a hash of the fields and the repr `Name(field=value, ...)`.
    Fields are not reassigned after construction."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
