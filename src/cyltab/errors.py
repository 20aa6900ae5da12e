class CyltabError(ValueError):
    """The common base of every error the library reports."""


class _RecordType(type):
    """Makes each Record subclass a value class, as @dataclass(frozen=True, slots=True) does.

    The fields are the names the class body annotates, in order, and become
    its __slots__; a default may be given to the last of them. `derived`
    fields are left out of __init__ and set by __post_init__, and
    `frozen=False` keeps instances mutable and unhashable. __init__,
    __repr__, __eq__ and __hash__ are compiled for each class's own fields,
    with no per-field loop at call time; __init__ looks __post_init__ up on
    every call, so a rebinding of it is seen. A subclass that annotates no
    field keeps its parent's fields and methods.
    """

    def __new__(mcls, name, bases, ns, frozen=True, derived=()):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = tuple(ns.pop(f) for f in fields if f in ns)
        ns["__slots__"] = fields
        if not frozen:
            ns.update(__setattr__=object.__setattr__, __delattr__=object.__delattr__)
            ns["__hash__"] = None
        cls = super().__new__(mcls, name, bases, ns)
        if not fields:
            return cls
        init = tuple(f for f in fields if f not in derived)
        get = "".join(f"self.{f}, " for f in fields)
        src = "\n".join([
            f"def __init__(self, {', '.join(init)}):",
            *(f"  _set(self, {f!r}, {f})" for f in init),
            "  self.__post_init__()" if hasattr(cls, "__post_init__") else "",
            "def __repr__(self):",
            "  return f'{type(self).__qualname__}(%s)'"
            % ", ".join(f"{f}={{self.{f}!r}}" for f in fields),
            "def __eq__(self, other):",
            "  if other.__class__ is not self.__class__: return NotImplemented",
            f"  return ({get}) == ({get.replace('self.', 'other.')})",
            f"def __hash__(self): return hash(({get}))",
        ])
        methods = {}
        exec(src, {"_set": object.__setattr__}, methods)
        methods["__init__"].__defaults__ = defaults or None
        if not frozen:
            del methods["__hash__"]
        for attr, fn in methods.items():
            fn.__qualname__ = f"{cls.__qualname__}.{attr}"
            setattr(cls, attr, fn)
        cls.__match_args__ = init
        return cls


class Record(metaclass=_RecordType):
    """The base of the library's value classes; see _RecordType."""

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)
