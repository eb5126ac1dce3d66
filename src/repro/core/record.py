"""Records: the part of :mod:`dataclasses` that ``repro`` uses.

``import dataclasses`` brings ``inspect``, ``ast``, ``dis``,
``tokenize``, ``linecache`` and ``copy`` with it, about 1.1 MiB of
every process that imports it, and every terpd process does.  This
module generates the same methods the same way (``__init__`` and the
comparisons by ``exec``, as the stdlib does) from the same class
syntax, and imports only ``typing``, which every process has loaded::

    @record(frozen=True, order=True)
    class Span:
        start: int
        end: int = 0
        tags: tuple = field(default=(), repr=False)

What it supports: ``frozen``, ``order``, a default or
``field(default=, default_factory=, init=, repr=)``, ``__post_init__``,
fields inherited from record bases, and :func:`replace`,
:func:`asdict` and :func:`fields`.  ``eq`` is always on: a frozen
record hashes its field tuple, a mutable one is unhashable, and a
``__hash__``, ``__init__`` or ``__repr__`` the class body defines is
kept.  What it leaves out: ``ClassVar``/``InitVar``, ``kw_only``,
``slots``, and ``asdict``'s deep copy of leaves (they are shared).
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing_extensions import dataclass_transform
else:
    def dataclass_transform(**_):
        """Type checkers read :func:`record` as ``@dataclass``."""
        return lambda decorator: decorator

__all__ = ("FrozenInstanceError", "MISSING", "asdict", "field",
           "fields", "record", "replace")


class _Missing:
    def __repr__(self) -> str:
        return "MISSING"


#: "no default": ``None`` is a default like any other.
MISSING = _Missing()


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a frozen record's field."""


class Field:
    """One declared field: what :func:`fields` returns."""

    __slots__ = ("name", "default", "default_factory", "init", "repr")

    def __init__(self, default, default_factory, init, repr) -> None:
        if default is not MISSING and default_factory is not MISSING:
            raise ValueError("cannot specify both default and "
                             "default_factory")
        self.name = ""
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr


def field(*, default=MISSING, default_factory=MISSING, init=True,
          repr=True) -> Field:
    return Field(default, default_factory, init, repr)


def fields(obj) -> tuple:
    """The fields of a record class or instance, in declaration order."""
    try:
        return tuple(obj.__record_fields__.values())
    except AttributeError:
        raise TypeError("fields() wants a record class or "
                        "instance") from None


def replace(obj, **changes):
    """A copy of ``obj`` with ``changes``; ``__post_init__`` runs again."""
    for f in fields(obj):
        if not f.init:
            if f.name in changes:
                raise ValueError(f"field {f.name} is declared with "
                                 "init=False, it cannot be specified "
                                 "with replace()")
        elif f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


def asdict(obj) -> dict:
    """``obj``'s fields as a dict, nested records, lists, tuples and
    dicts converted too."""
    return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}


def _plain(value):
    if hasattr(type(value), "__record_fields__"):
        return asdict(value)
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    if isinstance(value, dict):
        return type(value)((_plain(k), _plain(v))
                           for k, v in value.items())
    return value


@dataclass_transform(field_specifiers=(field,))
def record(cls=None, /, *, frozen: bool = False, order: bool = False):
    """Class decorator: ``@record`` or ``@record(frozen=..., order=...)``."""
    def wrap(cls):
        return _build(cls, frozen, order)
    return wrap if cls is None else wrap(cls)


def _build(cls, frozen: bool, order: bool):
    declared = {}
    for base in cls.__mro__[:0:-1]:
        declared.update(getattr(base, "__record_fields__", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        value = getattr(cls, name, MISSING)
        if isinstance(value, Field):
            f = value
            if f.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
        else:
            f = Field(value, MISSING, True, True)
        if isinstance(f.default, (list, dict, set)):
            raise ValueError(f"mutable default {type(f.default)} for "
                             f"field {name} is not allowed: use "
                             "default_factory")
        f.name = name
        declared[name] = f
    cls.__record_fields__ = declared

    ns = {"MISSING": MISSING, "_setattr": object.__setattr__}
    params, body = ["self"], []
    for f in declared.values():
        name = f.name
        ns[f"_dflt_{name}"] = f.default
        ns[f"_make_{name}"] = f.default_factory
        value = name
        if f.init and f.default is not MISSING:
            params.append(f"{name}=_dflt_{name}")
        elif f.init and f.default_factory is not MISSING:
            params.append(f"{name}=MISSING")
            value = f"_make_{name}() if {name} is MISSING else {name}"
        elif f.init:
            if "=" in params[-1]:
                raise TypeError(f"non-default argument {name!r} "
                                "follows default argument")
            params.append(name)
        elif f.default_factory is not MISSING:
            value = f"_make_{name}()"
        elif f.default is not MISSING:
            value = f"_dflt_{name}"
        else:
            continue
        body.append(f"_setattr(self, {name!r}, {value})" if frozen
                    else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    own = "(" + "".join(f"self.{n}," for n in declared) + ")"
    other = "(" + "".join(f"other.{n}," for n in declared) + ")"
    source = [f"def __init__({', '.join(params)}):",
              *(f" {line}" for line in body or ["pass"]),
              "def __hash__(self):",
              f" return hash({own})"]
    for method, op in (("__eq__", "=="), ("__lt__", "<"),
                       ("__le__", "<="), ("__gt__", ">"),
                       ("__ge__", ">=")):
        source += [f"def {method}(self, other):",
                   " if other.__class__ is self.__class__:",
                   f"  return {own} {op} {other}",
                   " return NotImplemented"]
    exec("\n".join(source), ns)
    shown = [f.name for f in declared.values() if f.repr]

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in shown) + ")"

    def __setattr__(self, name, value):
        if type(self) is cls or name in declared:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in declared:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    # A ``__hash__`` the body wrote is kept; the ``None`` Python puts
    # beside a body's own ``__eq__`` is not.
    kept = cls.__dict__.get("__hash__", MISSING)
    if kept is MISSING or (kept is None and "__eq__" in cls.__dict__):
        cls.__hash__ = ns["__hash__"] if frozen else None
    methods = {"__init__": ns["__init__"], "__repr__": __repr__,
               "__eq__": ns["__eq__"]}
    if order:
        methods.update((m, ns[m])
                       for m in ("__lt__", "__le__", "__gt__", "__ge__"))
    if frozen:
        methods.update(__setattr__=__setattr__, __delattr__=__delattr__)
    for name, fn in methods.items():
        if name not in cls.__dict__:
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
    return cls
