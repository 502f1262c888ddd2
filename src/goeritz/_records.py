"""Frozen records: the standard library's fields, one compiled method.

`dataclasses.dataclass(frozen=True)` compiles six methods per class, and
those compiles were most of the cost of `import goeritz`.  `record`
keeps what the records share with every dataclass and compiles only
`__init__`:

- It registers the fields with `dataclasses.dataclass(cls, init=False,
  repr=False, eq=False)`, which makes no method (before Python 3.13 it
  compiles nothing; from 3.13 on, one empty function), so `fields`,
  `replace`, `asdict`, `is_dataclass`, `__match_args__`, copying and
  pickling are the standard library's.  `__dataclass_params__` is then
  set to the options the record behaves by (init, repr, frozen, eq).  A
  record needs a docstring of its own: `record` raises TypeError for a
  class without one, since dataclasses would write one from the
  signature, through `inspect`.
- It compiles `__init__` in one `exec`, with the body dataclasses writes
  for a frozen class: one parameter and one `object.__setattr__` per
  field, with its default, then `__post_init__()`.  So building a record
  costs what it did.
- It attaches `__repr__`, `__eq__`, `__hash__`, `__setattr__` and
  `__delattr__` as closures over the field names.  They act as the
  generated methods of `dataclass(frozen=True)` act: the same repr text,
  equality only within one class (`NotImplemented` otherwise) on the
  tuple of the fields, the hash of that tuple, and
  `FrozenInstanceError` with the same texts.  `record(eq=False)`
  attaches no `__eq__` or `__hash__`, so instances compare and hash by
  identity.

It supports what the records use: plain fields, each with a default or
none, and `__post_init__`; not `dataclasses.field` options (`init`,
`repr`, `compare`, `hash`, `default_factory`), `InitVar`, `kw_only` or a
class that defines one of these methods itself.
"""

import dataclasses
import sys
from dataclasses import MISSING, FrozenInstanceError
from operator import attrgetter
from reprlib import recursive_repr


def record(cls=None, *, eq: bool = True):
    """Make `cls` a frozen record; `@record` or `@record(eq=False)`."""
    if cls is None:
        return lambda cls: _make(cls, eq)
    return _make(cls, eq)


def _make(cls, eq: bool):
    if not cls.__doc__:
        raise TypeError(f"record {cls.__qualname__} has no docstring")
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    options = cls.__dataclass_params__
    options.init = options.repr = options.frozen = True
    options.eq = eq
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)

    @recursive_repr()
    def __repr__(self):
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({items})"

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = [_init(cls, fields), __repr__, __setattr__, __delattr__]
    if eq:
        key = _key(names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        methods += [__eq__, __hash__]
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def _key(names: tuple):
    """The tuple of the named attributes of an object."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda self: tuple(getattr(self, name) for name in names)


def _init(cls, fields):
    """The `__init__` that dataclasses compiles for a frozen `cls`, its
    annotations set on the function rather than compiled."""
    closure = {"__dataclass_builtins_object__": object}
    params, body, annotations = ["self"], [], {}
    for f in fields:
        annotations[f.name] = f.type
        default = ""
        if f.default is not MISSING:
            closure[f"_dflt_{f.name}"] = f.default
            default = f"=_dflt_{f.name}"
        params.append(f"{f.name}{default}")
        body.append(f"  __dataclass_builtins_object__.__setattr__(self,{f.name!r},{f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    text = (
        f"def __create_fn__({', '.join(closure)}):\n"
        f" def __init__({','.join(params)}):\n"
        + "\n".join(body or ["  pass"])
        + "\n return __init__"
    )
    namespace = {}
    exec(text, sys.modules[cls.__module__].__dict__, namespace)
    init = namespace["__create_fn__"](**closure)
    init.__annotations__ = {**annotations, "return": None}
    return init
