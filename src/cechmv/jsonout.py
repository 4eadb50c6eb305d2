"""Per-degree record lists and the JSON writer of the report files.

Every JSON file ``compute`` writes is ``json.dumps(plain(obj),
sort_keys=True, indent=1) + "\\n"``, and ``dumps(obj)`` gives exactly those
bytes.  A per-degree list repeats one record per degree class, so it is
carried as a ``PerDegree`` of (degree, shared record) pairs: ``dumps``
encodes each distinct record once, at the depth where it appears, and
splices each member's degree into it.  ``plain`` is the dict view the
library returns and the tests compare the writer against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .grading import Exps

# json.dumps escapes every control character, so no encoded text contains
# this one: a template splits at it without ambiguity
_HOLE = "\x00"


class _Hole:
    """Stands for the spliced degree while a record's template is encoded."""


@dataclass(frozen=True)
class PerDegree:
    """The JSON list ``[{key: list(b), **record} for b, record in items]``;
    the member degrees of a class share one record object, which has no
    ``key`` of its own."""

    key: str
    items: list[tuple[Exps, dict]]

    @staticmethod
    def by_degree(results: list[tuple[list[Exps], dict]]) -> "PerDegree":
        """``{"degree": b, **record}`` for every member b of every
        (members, record), sorted by degree."""
        return PerDegree("degree", sorted(
            ((b, rec) for members, rec in results for b in members), key=lambda e: e[0]))


def plain(obj):
    """``obj`` with every PerDegree, at any depth of nested dicts, replaced
    by its list of dicts."""
    if isinstance(obj, PerDegree):
        return [{obj.key: list(b), **rec} for b, rec in obj.items]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


def dumps(obj) -> str:
    """``json.dumps(plain(obj), sort_keys=True, indent=1) + "\\n"``, byte for
    byte, encoding each distinct record of a PerDegree once."""
    return _encode(obj, 0) + "\n"


def _encode(obj, depth: int) -> str:
    """The text of ``obj`` nested ``depth`` levels deep: json's one-space
    indent with the opening bracket already placed."""
    if obj is _Hole:
        return _HOLE
    if isinstance(obj, PerDegree):
        return _encode_per_degree(obj, depth)
    if isinstance(obj, dict) and obj:
        pad = "\n" + " " * (depth + 1)
        body = ",".join(f"{pad}{_key(k)}: {_encode(v, depth + 1)}" for k, v in sorted(obj.items()))
        return "{" + body + "\n" + " " * depth + "}"
    text = json.dumps(obj, sort_keys=True, indent=1)
    return text.replace("\n", "\n" + " " * depth) if depth else text


def _key(k) -> str:
    # json turns a float, int, bool or None key into its own JSON text
    if not isinstance(k, (str, int, float)) and k is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return json.dumps(k if isinstance(k, str) else json.dumps(k))


def _encode_per_degree(obj: PerDegree, depth: int) -> str:
    if not obj.items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    # a degree is a nonempty tuple of ints, which json writes with int.__repr__
    first, sep = "[\n" + " " * (depth + 3), ",\n" + " " * (depth + 3)
    last = "\n" + " " * (depth + 2) + "]"
    templates: dict[int, list[str]] = {}  # id of a record -> its text split at the degree
    parts = []
    for b, rec in obj.items:
        split = templates.get(id(rec))
        if split is None:
            split = templates[id(rec)] = _encode({**rec, obj.key: _Hole}, depth + 1).split(_HOLE)
        parts.append(split[0] + first + sep.join(map(int.__repr__, b)) + last + split[1])
    return "[" + pad + ("," + pad).join(parts) + "\n" + " " * depth + "]"
