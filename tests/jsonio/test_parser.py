"""Unit tests for the JSON parser (repro.jsonio.parser)."""

import pytest

from repro.jsonio.errors import DuplicateKeyError, JsonSyntaxError
from repro.jsonio.parser import MAX_DEPTH, loads


class TestAtoms:
    @pytest.mark.parametrize("text,expected", [
        ("null", None), ("true", True), ("false", False),
        ("42", 42), ("-2.5", -2.5), ('"x"', "x"),
    ])
    def test_top_level_atoms(self, text, expected):
        assert loads(text) == expected

    def test_leading_and_trailing_whitespace(self):
        assert loads("  1  ") == 1


class TestObjects:
    def test_empty(self):
        assert loads("{}") == {}

    def test_simple(self):
        assert loads('{"a": 1, "b": "x"}') == {"a": 1, "b": "x"}

    def test_nested(self):
        assert loads('{"a": {"b": {"c": null}}}') == {"a": {"b": {"c": None}}}

    def test_duplicate_key_rejected(self):
        """The paper's well-formedness condition on records (Section 4)."""
        with pytest.raises(DuplicateKeyError, match="'a'"):
            loads('{"a": 1, "a": 2}')

    def test_duplicate_key_in_nested_object(self):
        with pytest.raises(DuplicateKeyError):
            loads('{"x": {"a": 1, "a": 2}}')

    def test_same_key_in_sibling_objects_allowed(self):
        assert loads('{"x": {"a": 1}, "y": {"a": 2}}') == {
            "x": {"a": 1}, "y": {"a": 2},
        }

    def test_duplicate_key_position_reported(self):
        with pytest.raises(DuplicateKeyError) as exc_info:
            loads('{"a": 1,\n "a": 2}')
        assert exc_info.value.line == 2

    @pytest.mark.parametrize("text", [
        '{', '{"a"}', '{"a": }', '{"a": 1,}', '{1: 2}', '{"a" 1}',
        '{"a": 1 "b": 2}',
    ])
    def test_malformed_objects(self, text):
        with pytest.raises(JsonSyntaxError):
            loads(text)


class TestArrays:
    def test_empty(self):
        assert loads("[]") == []

    def test_simple(self):
        assert loads('[1, "x", null, true]') == [1, "x", None, True]

    def test_nested(self):
        assert loads("[[1], [[2]]]") == [[1], [[2]]]

    def test_mixed_content(self):
        assert loads('["abc", "cde", {"E": "fr", "F": 12}]') == [
            "abc", "cde", {"E": "fr", "F": 12},
        ]

    @pytest.mark.parametrize("text", ["[", "[1,", "[1 2]", "[1,]", "[,]"])
    def test_malformed_arrays(self, text):
        with pytest.raises(JsonSyntaxError):
            loads(text)


class TestTopLevel:
    def test_trailing_garbage_rejected(self):
        with pytest.raises(JsonSyntaxError):
            loads("1 2")
        with pytest.raises(JsonSyntaxError):
            loads("{} {}")

    def test_empty_input_rejected(self):
        with pytest.raises(JsonSyntaxError):
            loads("")

    def test_deeply_nested(self):
        depth = MAX_DEPTH
        text = "[" * depth + "]" * depth
        value = loads(text)
        for _ in range(depth - 1):
            value = value[0]
        assert value == []
        with pytest.raises(JsonSyntaxError, match="nested deeper"):
            loads("[" + text + "]")
