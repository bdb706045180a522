"""Frozen records: fields declared as class annotations, in order, with
optional defaults (``Fresh(factory)`` is one made anew per record). A
subclass keeps its parent's fields and defaults and appends its own new
annotations, as dataclasses do. Eq, hash and repr read the fields only, so
other attributes stay out of them. Nothing is generated per class, so a
record class costs what any class costs.
"""


class Fresh:
    """A field default built for each record by calling ``factory()``."""

    def __init__(self, factory):
        self.factory = factory


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", {})
        inherited = getattr(cls, "_fields", ())
        cls._fields = (*inherited, *(name for name in own if name not in inherited))
        cls._defaults = {
            **getattr(cls, "_defaults", {}),
            **{name: cls.__dict__[name] for name in own if name in cls.__dict__},
        }

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._complete(args, kwargs)
        # one attribute at a time: reading self.__dict__ here would give every
        # record a dict of its own instead of the class's shared key table
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._validate()

    def _complete(self, args: tuple, kwargs: dict) -> list:
        """Every field value, in order, from positional and keyword arguments and defaults."""
        cls, names = type(self).__name__, self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls} takes {len(names)} fields, got {len(args)}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self._defaults:
                default = self._defaults[name]
                values.append(default.factory() if isinstance(default, Fresh) else default)
            else:
                raise TypeError(f"{cls} missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls} has no field {next(iter(kwargs))!r}")
        return values

    def _validate(self) -> None:
        """Check the fields once set; may normalise one with object.__setattr__."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
