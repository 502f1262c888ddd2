"""The package's one JSON style: json.dumps(value, ensure_ascii=False,
indent=2), at a depth, in one recursive pass over dicts, lists, tuples,
strings, ints, booleans and None; anything else raises TypeError."""

from json.encoder import encode_basestring as _quote  # the C quoting of ensure_ascii=False

_CONSTANTS = {True: "true", False: "false", None: "null"}


def dumps(value, depth: int = 0) -> str:
    """`value` as json.dumps(value, ensure_ascii=False, indent=2) writes
    it, each line after the first indented by `depth` more levels."""
    return _encode(value, "\n" + "  " * depth)


def _encode(value, pad: str) -> str:
    """`value`, its inner lines opened by `pad` and one level more."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):  # the text of an int, bool or None key is quoted, other keys refused
        items, ends = [f"{_quote(_encode(k, '') if k is None or isinstance(k, int) else k)}: "
                       f"{_encode(v, inner)}" for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [_encode(item, inner) for item in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{pad}{ends[1]}" if items else ends
