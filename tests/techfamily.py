"""Tech variants derived from the shipped tech JSON, for metamorphic tests.

Stdlib only, and nothing is downloaded: each variant is a rewritten copy of a
bundled document. `scaled(doc, k)` multiplies every length by k and every
`min_area` by k squared. A length is any integer of the document but the
ones `_is_length` names: GDS numbers, `unit_nm`, param schemas (counts and
choices, not sizes) and grid track patterns (`wmul` is a multiple of the
layer's width).
"""

from __future__ import annotations

import json
from importlib import resources


def shipped(name: str) -> dict:
    """The parsed JSON of a bundled tech."""
    return json.loads(resources.files("gridlay").joinpath(f"techs/{name}.json").read_text())


def _is_length(path: tuple) -> bool:
    head = path[0]
    if head in ("unit_nm", "grids"):
        return False
    if head == "layers" and path[2] == "gds":
        return False
    if head == "templates" and path[2] == "params":
        return False
    return True


def scaled(doc: dict, k: int) -> dict:
    """A copy of `doc` with every length times k and every `min_area` times k²."""

    def walk(node, path):
        if isinstance(node, dict):
            return {key: walk(v, (*path, key)) for key, v in node.items()}
        if isinstance(node, list):
            return [walk(v, (*path, i)) for i, v in enumerate(node)]
        if type(node) is not int or not _is_length(path):
            return node
        return node * k * k if path[-1] == "min_area" else node * k

    return walk(doc, ())
