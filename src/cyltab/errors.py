from operator import attrgetter


class CyltabError(ValueError):
    """The common base of every error the library reports."""


def exact_ints(*values) -> bool:
    """Whether every value is an exact integer: an int, but not a bool or an IntEnum member."""
    for v in values:
        if type(v) is not int:
            return False
    return True


class _RecordType(type):
    """Makes each Record subclass a value class, as @dataclass(frozen=True, slots=True) does.

    The fields are the names the class body annotates, in order, and become
    its __slots__; a default may be given to the last of them. `derived`
    fields are left out of __init__ and set by __post_init__, and
    `frozen=False` keeps instances mutable and unhashable. Only __init__ is
    compiled, with no per-field loop at call time; it looks __post_init__ up
    on every call, so a rebinding of it is seen. Record's __repr__, __eq__
    and __hash__ read the fields and their values through _fields and
    _values. A subclass that annotates no field keeps its parent's.
    """

    def __new__(mcls, name, bases, ns, frozen=True, derived=()):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = tuple(ns.pop(f) for f in fields if f in ns)
        ns["__slots__"] = fields
        if not frozen:
            ns.update(__setattr__=object.__setattr__, __delattr__=object.__delattr__, __hash__=None)
        cls = super().__new__(mcls, name, bases, ns)
        if not fields:
            return cls
        init = tuple(f for f in fields if f not in derived)
        src = "\n".join([
            f"def __init__(self, {', '.join(init)}):",
            *(f"  _set(self, {f!r}, {f})" for f in init),
            "  self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        ])
        exec(src, {"_set": object.__setattr__}, scope := {})
        cls.__init__ = scope["__init__"]
        cls.__init__.__defaults__ = defaults or None
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__match_args__ = init
        # attrgetter returns the bare value of a single field, not a 1-tuple.
        get = attrgetter(*fields)
        cls._fields = fields
        cls._values = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))
        return cls


class Record(metaclass=_RecordType):
    """The base of the library's value classes; see _RecordType."""

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)
