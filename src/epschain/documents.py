"""Shared conventions for the JSON documents this package reads and writes.

Every document carries a ``schema_version`` and a ``kind`` field.  Emission is
canonical (sorted keys, two-space indent, trailing newline) so that identical
inputs produce byte-identical files: :func:`dumps_doc` writes exactly the
bytes of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline.  Any
``indent`` sends ``json`` to its pure-Python encoder, so the containers and
the scalars of exact built-in types are written out by hand; anything else
(a scalar subclass, a foreign object) goes to ``json.dumps``, which gives the
same text or raises the same ``TypeError``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    """Raised when a document is malformed or fails validation."""


# float.__repr__ of the non-finite floats, and what json writes for them
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_str(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# scalars of exactly these types; a subclass falls through to json.dumps
_SCALARS = {str: _encode_str, int: int.__repr__, float: _float_str,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _key_str(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return _encode_str(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _emit(o, indent: str, out: list) -> None:
    """Append the text of ``o`` to ``out``; ``indent`` is a newline and the
    indentation of the line that ``o`` starts on."""
    to_str = _SCALARS.get(type(o))
    if to_str is not None:
        out.append(to_str(o))
        return
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = indent + "  "
        if all(type(v) is int for v in o):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o))
                       + indent + "]")
            return
        sep = "[" + inner
        for v in o:
            to_str = _SCALARS.get(type(v))
            if to_str is not None:
                out.append(sep + to_str(v))
            else:
                out.append(sep)
                _emit(v, inner, out)
            sep = "," + inner
        out.append(indent + "]")
        return
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, v in sorted(o.items()):
            head = sep + (_encode_str(key) if type(key) is str else _key_str(key)) + ": "
            to_str = _SCALARS.get(type(v))
            if to_str is not None:
                out.append(head + to_str(v))
            else:
                out.append(head)
                _emit(v, inner, out)
            sep = "," + inner
        out.append(indent + "}")
        return
    out.append(json.dumps(o))


def dumps_doc(doc: dict) -> str:
    out: list[str] = []
    _emit(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def write_doc(doc: dict, path) -> None:
    Path(path).write_text(dumps_doc(doc), encoding="utf-8")


def parse_doc(text: str, expected_kind: str | None = None) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    if expected_kind is not None and doc.get("kind") != expected_kind:
        raise DocumentError(
            f"expected kind {expected_kind!r}, got {doc.get('kind')!r}"
        )
    return doc


def read_doc(path, expected_kind: str | None = None) -> dict:
    return parse_doc(Path(path).read_text(encoding="utf-8"), expected_kind)
