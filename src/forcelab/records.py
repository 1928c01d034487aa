"""The frozen-record base of the library's value classes.

A value class lists its storage in ``__slots__``, annotates its fields in
order as a dataclass would, and writes its own ``__init__``, ``__eq__``
and ``__hash__``: ``==`` holds between two values of the same class whose
field tuples are equal, and the hash is that of the field tuple, as a
frozen dataclass makes them.  ``Record`` refuses every write and
deletion with ``FrozenInstanceError``, an ``AttributeError``, and writes
the dataclass ``repr``, ``Name(field=value, ...)``.  Library code that
builds a value past its ``__init__`` writes its slots with
``object.__setattr__``.  Creating such a class costs a plain class
statement, not a dataclass's generated code.
"""

from dataclasses import FrozenInstanceError


class Record:
    """A frozen value whose fields are its annotated names, base classes' first."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = (*cls._fields, *vars(cls).get("__annotations__", ()))

    def __setattr__(self, name, _value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state):
        """Copies and unpickling write the slots past ``__setattr__``."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
