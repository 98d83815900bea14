"""Frozen value records.  ``@dataclass(frozen=True)`` would ``exec``
generated source for each method at every import (and load ``inspect``);
``Record`` writes them once.  A subclass adds its annotations as fields, in
order, and a class attribute of the same name is a default."""


class Record:
    _fields, _defaults = (), {}

    def __init_subclass__(cls):
        own = vars(cls).get("__annotations__", {})
        cls._fields += tuple(f for f in own if f not in cls._fields)
        cls._defaults = {**cls._defaults, **{f: vars(cls)[f] for f in own if f in vars(cls)}}

    def __init__(self, *args, **kwargs):
        names = self._fields
        rest = names[len(args):]
        given = {f: self._defaults[f] for f in rest if f in self._defaults} | kwargs
        if len(args) > len(names) or given.keys() != set(rest):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {names}")
        vars(self).update(zip(names, args + tuple(given[f] for f in rest)))
        if hasattr(self, "__post_init__"):  # which may set a field by object.__setattr__
            self.__post_init__()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
