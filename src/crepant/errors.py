"""Shared exception type for domain errors, and reading and writing JSON.

``json_object``, the one reader, imports ``json`` when it is called.
``json_text``, the one writer, builds its text itself around ``json``'s C
string escaper, so an op that only prints, JSON or text, never loads
``json``.
"""

from __future__ import annotations

from contextlib import contextmanager


class CrepantError(Exception):
    """Raised when an operation is invoked outside its domain."""


@contextmanager
def json_object(text: str, what: str, any_value: bool = False):
    """Parse ``text`` as a JSON object (any JSON value with ``any_value``)
    and yield it to the block reading it.

    Invalid JSON, a value other than an object, a missing key, and a value
    of the wrong shape inside the block all become a ``CrepantError`` that
    names ``what`` and the fault.
    """
    import json
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise CrepantError(f"{what} is not valid JSON: {exc}") from None
    if not (any_value or isinstance(data, dict)):
        raise CrepantError(f"{what} must be a JSON object")
    try:
        yield data
    except KeyError as exc:
        raise CrepantError(f"{what} lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CrepantError(f"malformed {what}: {exc}") from None


def json_text(data) -> str:
    """``data`` as the JSON text every command prints, byte for byte
    ``json.dumps(data, sort_keys=True, indent=2) + "\\n"``: keys sorted, two
    spaces of indent, ASCII only, and a final newline.  What ``json.dumps``
    rejects raises the same ``TypeError``.

    Strings are escaped by ``_json.encode_basestring_ascii``, the C function
    ``json.dumps`` itself calls, which loads none of ``json``'s modules."""
    from _json import encode_basestring_ascii
    return _json(data, "\n", encode_basestring_ascii) + "\n"


_INF = float("inf")


def _json(o, indent: str, quote) -> str:
    """``o`` as JSON whose lines after the first start with ``indent``,
    each string written by ``quote``."""
    if isinstance(o, str):
        return quote(o)
    inner = indent + "  "
    if isinstance(o, (list, tuple)):
        items = [_json(v, inner, quote) for v in o]
        brackets = "[]"
    elif isinstance(o, dict):
        items = [quote(_json_key(k)) + ": " + _json(v, inner, quote)
                 for k, v in sorted(o.items())]
        brackets = "{}"
    else:
        return _scalar(o)
    if not items:
        return brackets
    return (brackets[0] + inner + ("," + inner).join(items) + indent
            + brackets[1])


def _scalar(o) -> str:
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return ("NaN" if o != o else "Infinity" if o == _INF
                else "-Infinity" if o == -_INF else float.__repr__(o))
    raise TypeError(f"Object of type {o.__class__.__name__}"
                    " is not JSON serializable")


def _json_key(key) -> str:
    """A key as the string ``json.dumps`` writes for it."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return _scalar(key)
    raise TypeError("keys must be str, int, float, bool or None, not"
                    f" {key.__class__.__name__}")
