"""The two bases of homkit's value types.

A value type names its fields, in order, in ``_fields``, and the defaults of
its trailing fields in ``_defaults``, as (field, default) pairs.  A type
that only sets its fields has no constructor of its own: ``Record.__init__``
sets one value per field, positional or keyword, through
``object.__setattr__``, so it serves the frozen types too, and
``inspect.signature`` reads the parameters off ``Record.__signature__``,
which imports ``inspect`` only then.  The bases compare two instances of one
class by the tuple of their field values (NotImplemented for another
class), hash a frozen one by that tuple and give the repr
``Name(field=value, ...)``.  These are the methods ``dataclasses`` would
generate, written once by hand: importing ``dataclasses`` loads ``inspect``
and compiles fresh source for every class, a cost each command-line start
would pay.  The types compared and hashed on hot paths (``RingSpec``,
``IntMatrix``, ``FpModule``, ``ModuleMap``, as cache keys) write ``__eq__``
and ``__hash__`` out over their own fields, as the generated methods did: on
``FpModule`` that takes a fifth of the time per ``==`` and under half per
hash that reading ``_fields`` takes.

``Complex``, ``ChainMap`` and ``Homotopy`` are ``Frozen`` too, with slots,
read-only component mappings and equality of their own: by canonical key
for complexes (built at first use and kept) and chain maps, by identity for
homotopies.  A builder can therefore vouch for the very complex and chain
map it certified.  ``Frozen`` refuses assignment and deletion through the
instance only; writing a field through ``object.__setattr__`` anywhere
but in the class's own methods is tampering, and out of scope.  A copy of a
frozen value is the value itself; a pickle rebuilds it through its
constructor from its field values.
"""
from __future__ import annotations

from types import MappingProxyType

_set = object.__setattr__


class _Signature:
    """``Record.__signature__``: for a class built by ``Record.__init__``,
    one positional-or-keyword parameter per field with its default; None for
    a class with its own ``__init__``, whose signature ``inspect`` reads."""

    def __get__(self, instance, owner):
        if owner.__init__ is not Record.__init__:
            return None
        from inspect import Parameter, Signature
        defaults = dict(owner._defaults)
        return Signature([Parameter(name, Parameter.POSITIONAL_OR_KEYWORD,
                                    default=defaults.get(name, Parameter.empty))
                          for name in owner._fields])


class Record:
    """A value type whose fields can be reassigned; it has no hash."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: tuple = ()
    __signature__ = _Signature()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """One value per field from a call that does not pass exactly one
        positional value per field: keywords, then ``_defaults``, fill the
        fields after ``args``."""
        cls, fields, defaults = self.__class__.__qualname__, self._fields, dict(self._defaults)
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name not in kwargs and name not in defaults:
                raise TypeError(f"{cls}() missing required argument {name!r}")
            values.append(kwargs.pop(name) if name in kwargs else defaults[name])
        for name in kwargs:
            what = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls}() got {what} argument {name!r}")
        return values

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        return self.__class__.__qualname__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


class Frozen(Record):
    """An immutable value type.  Its constructor sets each field once
    through ``object.__setattr__``; assigning or deleting an attribute later
    raises an AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return self.__class__, tuple(dict(v) if isinstance(v, MappingProxyType) else v
                                     for v in self._values())
