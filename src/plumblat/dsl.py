"""Text formats for plumbing forests.

Line-oriented grammar, ``#`` starts a comment:

    convention minus_one        # optional, also plus_one; default minus_one
    vertex <id> <framing:int>
    edge <id> <id>

Parsing reads only the grammar; :func:`plumbing.validate_forest` checks the
forest, and a structural rejection carries the line of the vertex or edge
that failed.  Edge lines may come before the vertex lines they name.  The
result round-trips through the serializer up to whitespace.  A JSON
document of the same shape the CLI emits
(``{"vertices": [{"id", "framing"}], "edges": [[a, b]], "convention"}``)
is accepted interchangeably: :func:`parse_plumbing` sniffs the first
character.
"""

from __future__ import annotations

import json
import re

from .errors import DslSyntaxError, ForestValidationError
from .plumbing import EdgeSign, PlumbingForest, validate_forest

_CONVENTIONS = {sign.name.lower(): sign for sign in EdgeSign}

_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(token: str) -> int | None:
    """The integer an ASCII token ``[+-]?[0-9]+`` spells, else None.

    Stricter than ``int``, which also reads digit separators ("-2_0") and
    non-ASCII digits.  A token too long for ``int`` to convert is None too.
    """
    if not _INTEGER.fullmatch(token):
        return None
    try:
        return int(token)
    except ValueError:  # past the interpreter's limit on digits
        return None


def parse_dsl(text: str) -> PlumbingForest:
    vertices: list[tuple[str, int]] = []
    edges: list[tuple[str, str]] = []
    lines: dict[str, list[int]] = {"vertex": [], "edge": []}  # of each entry
    convention = EdgeSign.MINUS_ONE

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "vertex":
            if len(tokens) != 3:
                raise DslSyntaxError(lineno, "expected: vertex <id> <framing>")
            framing = parse_int(tokens[2])
            if framing is None:
                raise DslSyntaxError(lineno, f"framing {tokens[2]!r} is not an integer")
            vertices.append((tokens[1], framing))
            lines[keyword].append(lineno)
        elif keyword == "edge":
            if len(tokens) != 3:
                raise DslSyntaxError(lineno, "expected: edge <id> <id>")
            edges.append((tokens[1], tokens[2]))
            lines[keyword].append(lineno)
        elif keyword == "convention":
            if len(tokens) != 2 or tokens[1] not in _CONVENTIONS:
                raise DslSyntaxError(lineno, f"expected: convention {'|'.join(_CONVENTIONS)}")
            convention = _CONVENTIONS[tokens[1]]
        else:
            raise DslSyntaxError(lineno, f"unknown directive {keyword!r}")
    try:
        return validate_forest(vertices, edges, convention)
    except ForestValidationError as exc:
        kind, position = exc.entry
        raise type(exc)(f"line {lines[kind][position]}: {exc}", exc.entry) from None


def parse_json_plumbing(text: str) -> PlumbingForest:
    """Parse the JSON document form (the shape the CLI itself emits)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DslSyntaxError(exc.lineno, f"bad JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting
        raise DslSyntaxError(1, f"bad JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DslSyntaxError(1, "JSON plumbing must be an object")
    try:  # a KeyError names the missing key
        listed = {"vertices": doc["vertices"], "edges": doc.get("edges", [])}
        for key, value in listed.items():
            if not isinstance(value, list):
                raise DslSyntaxError(1, f"{key} {json.dumps(value)} must be a JSON array")
        for v in listed["vertices"]:
            if not isinstance(v, dict):
                raise DslSyntaxError(1, f"vertex {json.dumps(v)} must be a JSON object")
        vertices = [(v["id"], v["framing"]) for v in listed["vertices"]]
    except KeyError as exc:
        raise DslSyntaxError(1, f"malformed JSON plumbing: {exc}") from None
    for vid, framing in vertices:
        if not isinstance(vid, str):
            raise DslSyntaxError(1, f"vertex id {json.dumps(vid)} is not a string")
        if type(framing) is not int:  # bool is an int subclass, and not a framing
            raise DslSyntaxError(1, f"framing {json.dumps(framing)} is not an integer")
    for edge in listed["edges"]:  # unpacking alone would take "ab" or {"a": 1, "b": 2}
        if not (isinstance(edge, list) and len(edge) == 2):
            raise DslSyntaxError(1, f"edge {json.dumps(edge)} must be an array of two vertex ids")
        if not all(isinstance(end, str) for end in edge):
            raise DslSyntaxError(1, f"edge {json.dumps(edge)} must name vertex ids")
    name = doc.get("convention", "minus_one")
    if not isinstance(name, str) or name not in _CONVENTIONS:
        raise DslSyntaxError(1, f"unknown convention {json.dumps(name)}")
    return validate_forest(vertices, listed["edges"], _CONVENTIONS[name])


def parse_plumbing(text: str) -> PlumbingForest:
    """Parse either input form, sniffing JSON by its leading brace."""
    if text.lstrip().startswith("{"):
        return parse_json_plumbing(text)
    return parse_dsl(text)


def serialize_dsl(forest: PlumbingForest) -> str:
    lines = [f"convention {forest.edge_sign.name.lower()}"]
    for vid, framing in zip(forest.ids, forest.framings):
        lines.append(f"vertex {vid} {framing}")
    for a, b in forest.edges:
        lines.append(f"edge {forest.ids[a]} {forest.ids[b]}")
    return "\n".join(lines) + "\n"
