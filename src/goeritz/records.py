"""Frozen dataclass records filled in one step."""

_new = object.__new__
_set = object.__setattr__


def filled(cls, values: dict):
    """An instance of the frozen dataclass `cls` whose instance dict is
    `values`, as the generated __init__ would fill it, in one step.

    `values` must map exactly the names of dataclasses.fields(cls), in
    field order, and becomes the record's own dict, so the caller passes
    a fresh one.  Equality, hashing, repr, dataclasses.replace and
    pickling read the fields as usual.  The record holds its dict outright
    rather than sharing its keys with the other instances of `cls`, a
    few hundred bytes more per record kept.
    """
    record = _new(cls)
    _set(record, "__dict__", values)
    return record
