"""Errors and the reading and writing of JSON documents.

Every input error is an ``Error``, which the command line reports with exit
code 2.  Input documents are read by ``read_json`` and checked for shape by
``fields``; the values inside are checked by the classes they build.
Output documents are written by ``dumps_canonical``.
"""

import json
from pathlib import Path


class Error(Exception):
    """Base class for all errors raised by this package."""


def read_json(path: Path, error: type[Error]):
    """The JSON document in the file at ``path``, or ``error`` if its text is not JSON."""
    try:
        return json.loads(path.read_text())
    # a JSONDecodeError, a UnicodeDecodeError on undecodable bytes, or nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def fields(doc, what: str, source: str, error: type[Error], allowed=None, required=()) -> dict:
    """``doc`` itself if it is an object that has no field outside ``allowed``
    (any field, if ``allowed`` is None) and every field in ``required``; else ``error``."""
    if not isinstance(doc, dict):
        raise error(f"{source}: {what} must be an object")
    unknown = set() if allowed is None else doc.keys() - allowed
    if unknown:
        raise error(f"{source}: unknown fields: {', '.join(sorted(unknown))}")
    for name in required:
        if name not in doc:
            raise error(f"{source}: missing field {name!r}")
    return doc


def dumps_canonical(doc: dict) -> str:
    """``doc`` as canonical JSON: sorted keys, two-space indent, so equal documents print alike."""
    return json.dumps(doc, indent=2, sort_keys=True)
