"""Shared exception type for domain errors, and reading and writing JSON.

``json`` is imported by the two functions here, when a command reads or
writes JSON, so an op that prints only text never loads it.
"""

from __future__ import annotations

from contextlib import contextmanager


class CrepantError(Exception):
    """Raised when an operation is invoked outside its domain."""


@contextmanager
def json_object(text: str, what: str):
    """Parse ``text`` as a JSON object and yield it to the block reading it.

    Invalid JSON, a value that is not an object, a missing key, and a value
    of the wrong shape inside the block all become a ``CrepantError`` that
    names ``what`` and the fault.
    """
    import json
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise CrepantError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CrepantError(f"{what} must be a JSON object")
    try:
        yield data
    except KeyError as exc:
        raise CrepantError(f"{what} lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CrepantError(f"malformed {what}: {exc}") from None


def json_text(data) -> str:
    """``data`` as the JSON text every command prints: keys sorted, two
    spaces of indent, and a final newline."""
    import json
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
