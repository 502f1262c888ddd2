"""The package's one JSON style: json.dumps(value, ensure_ascii=False,
indent=2), at a depth."""

import json


def dumps(value, depth: int = 0) -> str:
    """`value` as json.dumps(value, ensure_ascii=False, indent=2) writes
    it, each line after the first indented by `depth` more levels."""
    return json.dumps(value, ensure_ascii=False, indent=2).replace("\n", "\n" + "  " * depth)
