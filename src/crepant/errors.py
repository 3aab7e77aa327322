"""Shared exception type for domain errors, and reading JSON input."""

from __future__ import annotations

import json
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
