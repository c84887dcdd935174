"""Immutable value types, without the import cost of `dataclasses`.

A `Value` subclass lists its fields as class annotations, in order, and
gives a default as a class attribute.  It is built positionally or by
keyword, runs `__post_init__` after the fields are set, equals only an
instance of its own class with equal fields, hashes as the tuple of its
fields and prints as `Name(field=value, ...)`.  Assignment and deletion
raise AttributeError.  A type built in bulk names its fields in
`__slots__` too and writes `__init__`, `__eq__` and `__hash__` by hand.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        # a subclass keeps the fields of its base and appends its own
        own = cls.__dict__.get("__annotations__", {})
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(f for f in own if f not in cls._fields)
        cls._defaults = {
            **cls._defaults,
            **{f: cls.__dict__[f] for f in own if f in cls.__dict__ and f not in slots},
        }

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        # one object.__setattr__ per field, in order, keeps the instance
        # dict compact and attribute reads fast
        for key, value in zip(self._fields, args):
            object.__setattr__(self, key, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values in order, from positions, keywords and defaults."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, {len(args)} given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name} got an unexpected or repeated field {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name} is missing fields {missing}")
        return tuple(values[f] if f in values else cls._defaults[f] for f in fields)

    def __post_init__(self):
        """Normalises fields, through `object.__setattr__`."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuild through __init__: the default restores fields by assignment
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
