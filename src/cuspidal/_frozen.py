"""The frozen base of the package's value classes.

A value class names its fields in ``_fields``; a record is declared with a
docstring and ``__slots__ = _fields = (...)``.  The base's ``__init__``
binds positional arguments, then keyword arguments, to those fields and
stores each field once with ``object.__setattr__``.  A class that checks
its arguments ends its own ``__init__`` in ``super().__init__(...)``.  The
classes built most often (``IntSeq``, ``CountingFn``, ``MultSeq``,
``NewtonPairs``) store their fields directly, at about half the cost of the
generic binding, and so does ``Semigroup``.  The base compares and hashes
instances by their fields, prints them as ``Name(field=value, ...)``, and
refuses assignment and deletion, so a value never changes after its
constructor returns.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # reads the fields at C speed: the value of a single field, else a
        # tuple of them
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            # the keywords must be exactly the fields no positional argument took
            if len(args) > len(fields) or kwargs.keys() != set(rest):
                raise TypeError(f"{self.__class__.__qualname__} takes each of its fields "
                                f"({', '.join(fields)}) once, by position or by keyword")
            args += tuple(map(kwargs.__getitem__, rest))
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
