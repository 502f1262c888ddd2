"""Indented JSON text, as json.dumps(value, ensure_ascii=False, indent=2)
writes it, without the standard library's pure-Python encoder.

`json.dumps` serves only `indent=None` from its C encoder; with an indent
it walks the value with a chain of Python generators.  `dumps` joins the
lines itself and leaves only the quoting to the C `encode_basestring`.
It takes the values the package emits, dicts with str keys, lists,
tuples, strings, ints, bools and None, and refuses anything else.
"""

from __future__ import annotations

from json.encoder import encode_basestring as _quote  # the C encoder of ensure_ascii=False


def dumps(value, depth: int = 0) -> str:
    """`value` as json.dumps(value, ensure_ascii=False, indent=2) writes
    it, each line after the first indented by `depth` more levels."""
    return _encode(value, "\n" + "  " * depth)


def _encode(value, pad: str) -> str:
    """`value` whose own line breaks are followed by `pad`.

    A string inside a container is quoted in place, not by a call: most
    leaves are strings.  `_quote` refuses a key that is not a str.
    """
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = [
            _quote(key) + ": " + (_quote(item) if type(item) is str else _encode(item, inner))
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_quote(item) if type(item) is str else _encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
