"""Record: the base of the package's value classes, in place of dataclasses.

A subclass lists its fields as annotations, in order; a class attribute
of the same name is that field's default, and a list or dict default is
copied for each record.  The fields are read once, when the subclass is
defined, and the methods below loop over them, so no code is generated.
Class keywords, as for a dataclass:

    frozen      (default True) assignment and deletion raise
                dataclasses.FrozenInstanceError (imported only then, as
                its import is slow); mutable records are unhashable
    order       (default False) define <, <=, > and >=
    uncompared  fields left out of ==, hash and order, which compare
                records of one class by the tuple of the other fields

trusted(cls, **fields) builds a record in one dict update, without
__init__ or __post_init__, for internal code that already holds valid
fields in canonical form.  It checks nothing: give every field, in field
order, and never use it on values from outside the program or on a class
whose __post_init__ validates (SearchConfig, Corpus).
"""

from __future__ import annotations

import operator


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen=True, order=False, uncompared=()):
        super().__init_subclass__()
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}
        compared = [n for n in cls._fields if n not in uncompared]
        get = operator.attrgetter(*compared)
        # attrgetter of one name returns the value, not a 1-tuple
        cls._key = staticmethod(get if len(compared) > 1 else lambda r: (get(r),))
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None
        for op in (operator.lt, operator.le, operator.gt, operator.ge) if order else ():
            setattr(cls, f"__{op.__name__}__", _ordering(op))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        values = dict(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
                values[name] = value.copy() if isinstance(value, (list, dict)) else value
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes the fields {fields}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def trusted(cls, **fields):
    """A cls record holding fields, built without __init__ or __post_init__."""
    out = object.__new__(cls)
    out.__dict__.update(fields)
    return out


def _ordering(op):
    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._key(self), other._key(other))
    return compare
