"""The frozen-record base of the library's value classes.

A value class lists its storage in ``__slots__`` and annotates its fields
in order, base classes' first, as a dataclass would.  ``Record`` writes
its ``__eq__``, ``__hash__`` and ``__init__`` from the fields, each one
the class body does not write, as a frozen dataclass makes them: ``==``
holds between two values of the same class whose field tuples are equal,
the hash is that of the field tuple, and ``__init__`` takes the fields
positionally or by name and stores each with ``object.__setattr__``.  The
class keyword ``defaults`` gives the defaults of the class's last fields,
as in ``class IndexUsage(Record, defaults=(None, ()))``; a subclass states
its own.  A class's methods are compiled from one source, once, named
``<record Name>`` in tracebacks, and run the bytecode their hand-written
text would.

``Record`` refuses every write and deletion with ``FrozenInstanceError``,
an ``AttributeError``, and writes the dataclass ``repr``,
``Name(field=value, ...)``.  Library code that builds a value past its
``__init__`` writes its slots with ``object.__setattr__``.
"""

from dataclasses import FrozenInstanceError


def _source(fields: tuple, names: list) -> str:
    """The text of the methods ``names`` of a class with ``fields``."""
    mine = "".join(f"self.{f}, " for f in fields)
    theirs = "".join(f"other.{f}, " for f in fields)
    same = (f"self.{fields[0]} == other.{fields[0]}" if len(fields) == 1
            else f"({mine}) == ({theirs})")
    stores = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields) or "    pass\n"
    text = {"__init__": f"def __init__(self, {', '.join(fields)}):\n{stores}",
            "__eq__": ("def __eq__(self, other):\n"
                       "    if other.__class__ is self.__class__:\n"
                       f"        return {same}\n"
                       "    return NotImplemented\n"),
            "__hash__": f"def __hash__(self):\n    return hash(({mine}))\n"}
    return "".join(text[name] for name in names)


class Record:
    """A frozen value whose fields are its annotated names, base classes' first."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, defaults: tuple = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = (*cls._fields, *vars(cls).get("__annotations__", ()))
        if len(defaults) > len(fields):
            raise TypeError(f"{cls.__qualname__} has {len(fields)} fields, "
                            f"not {len(defaults)} defaults")
        names = [name for name in ("__init__", "__eq__", "__hash__") if name not in vars(cls)]
        namespace = {"_set": object.__setattr__, "__name__": cls.__module__}
        exec(compile(_source(fields, names), f"<record {cls.__qualname__}>", "exec"), namespace)
        for name in names:
            method = namespace[name]
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        if "__init__" in names:
            cls.__init__.__defaults__ = tuple(defaults) or None

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
