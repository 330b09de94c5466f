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
