"""Value semantics for slot records, derived from ``__slots__`` without exec."""

import operator


class Record:
    """A record whose value is its fields, named in ``__slots__`` in order.

    It equals another record of its exact class whose fields are equal as a
    tuple (so a field equals itself, a NaN too), and its repr is the one a
    dataclass would give. Defining ``__eq__`` leaves a class unhashable; a
    class that is hashed sets ``__hash__ = Record.field_hash``. Each subclass
    writes its own ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            # The field values: a tuple, or the value itself for one field.
            cls._values = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self._values(self), other._values(other)
        # As in a tuple, a value is equal to itself, a NaN too.
        return mine is theirs or mine == theirs

    def field_hash(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
