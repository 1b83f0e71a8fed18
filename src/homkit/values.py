"""The two bases of homkit's value types.

A value type names its fields, in order, in ``_fields`` and sets them in its
own ``__init__``.  The bases compare two instances of one class by the tuple
of their field values (NotImplemented for another class), hash a frozen one
by that tuple and give the repr ``Name(field=value, ...)``.  These are the
methods ``dataclasses`` would generate, written once by hand: importing
``dataclasses`` loads ``inspect`` and compiles fresh source for every class,
a cost each command-line start would pay.  The types compared and hashed on
hot paths (``RingSpec``, ``IntMatrix``, ``FpModule``, ``ModuleMap``, as
cache keys) write ``__eq__`` and ``__hash__`` out over their own fields, as
the generated methods did: on ``FpModule`` that takes a fifth of the time
per ``==`` and under half per hash that reading ``_fields`` takes.

``Complex``, ``ChainMap`` and ``Homotopy`` are ``Frozen`` too, with slots,
read-only component mappings and equality of their own: by canonical key
for complexes (built at first use and kept) and chain maps, by identity for
homotopies.  A builder can therefore vouch for the very complex and chain
map it certified.  ``Frozen`` refuses assignment and deletion through the
instance only; writing a field through ``object.__setattr__`` anywhere
but in the class's own methods is tampering, and out of scope.
"""
from __future__ import annotations


class Record:
    """A value type whose fields can be reassigned; it has no hash."""

    __slots__ = ()
    _fields: tuple = ()

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
    """An immutable value type.  ``__init__`` sets each field once through
    ``object.__setattr__``; assigning or deleting an attribute later raises
    an AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
