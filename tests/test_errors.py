"""The JSON writer against ``json.dumps``, its oracle."""

import json
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crepant.errors import json_text

Pair = namedtuple("Pair", "left right")

# every character, lone surrogates included
TEXT = st.text(st.characters(exclude_categories=()))
SCALARS = (st.none() | st.booleans() | st.integers() | TEXT
           | st.floats(allow_nan=True, allow_infinity=True))
KEYS = TEXT | st.integers() | st.floats() | st.booleans() | st.none()
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.builds(Pair, inner, inner)
                   | st.dictionaries(TEXT, inner, max_size=4)
                   | st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=20)
UNSERIALIZABLE = st.sampled_from([{1, 2}, b"x", 1j, object(), frozenset(),
                                  {(1,): 2}, {b"k": 1}])


def dumps(data):
    """The oracle: the text every command printed before crepant wrote its
    own JSON."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def outcome(write, data):
    try:
        return write(data)
    except TypeError as exc:
        return TypeError, str(exc)


@settings(max_examples=400, deadline=None)
@given(VALUES)
@example({"\\": ["\"", "\x7f", "\x00\x1f", "\ud800", "\U0001f600", "é"]})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 10 ** 40])
@example({"a": [], "b": {}, "c": ()})
@example({float("nan"): 1, 1.5: 2, -0.0: 3})
@example({True: 1, False: 2})
@example({None: 1})
@example({1: 1, "1": 2})
@example({True: 1, None: 2})
def test_json_text_is_json_dumps(data):
    """Equal text for every value ``json.dumps`` writes, and the same
    ``TypeError`` for one it rejects, such as keys of mixed types."""
    assert outcome(json_text, data) == outcome(dumps, data)


@settings(max_examples=100, deadline=None)
@given(VALUES, UNSERIALIZABLE)
def test_json_text_rejects_what_json_dumps_rejects(data, bad):
    for value in ([data, bad], {"k": bad}, bad):
        with pytest.raises(TypeError) as ours:
            json_text(value)
        with pytest.raises(TypeError) as theirs:
            dumps(value)
        assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("text,written", [
    ('"', '"\\""'), ("\\", '"\\\\"'), ("\n\t\b\f\r", '"\\n\\t\\b\\f\\r"'),
    ("\x00\x1f\x7f", '"\\u0000\\u001f\\u007f"'), ("é", '"\\u00e9"'),
    ("\ud800", '"\\ud800"'), ("\U0001f600", '"\\ud83d\\ude00"'),
    ("~ a", '"~ a"'),
])
def test_json_text_escapes(text, written):
    assert json_text(text) == written + "\n" == dumps(text)


def test_json_text_layout():
    assert json_text({"b": [1, {}], "a": ()}) == (
        '{\n  "a": [],\n  "b": [\n    1,\n    {}\n  ]\n}\n')
