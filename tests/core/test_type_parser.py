"""Unit tests for the type syntax parser (repro.core.type_parser)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TypeSyntaxError, TypeSystemError
from repro.core.printer import print_type, print_types
from repro.core.type_parser import parse_type
from repro.core.types import (
    ArrayType,
    BOOL,
    EMPTY,
    Field,
    NULL,
    NUM,
    RecordType,
    STR,
    StarArrayType,
    Type,
    make_array,
    make_record,
    make_star,
    make_union,
)
from tests.conftest import normal_types


class TestBasicParsing:
    @pytest.mark.parametrize("text,expected", [
        ("Null", NULL), ("Bool", BOOL), ("Num", NUM), ("Str", STR),
    ])
    def test_basic_types(self, text, expected):
        assert parse_type(text) == expected

    def test_empty(self):
        assert parse_type("(empty)") == EMPTY

    def test_empty_with_inner_whitespace(self):
        assert parse_type("( empty )") == EMPTY
        assert parse_type("[(\n empty\t)*]") == make_star(EMPTY)

    def test_union(self):
        assert parse_type("Num + Str") == make_union([NUM, STR])

    def test_parenthesised_type(self):
        assert parse_type("(Num)") == NUM
        assert parse_type("((Num + Str))") == make_union([NUM, STR])

    def test_whitespace_insensitive(self):
        assert parse_type("  Num+Str ") == parse_type("Num + Str")
        assert parse_type("{\n  a: Num\n}") == make_record({"a": NUM})


class TestRecordParsing:
    def test_simple(self):
        assert parse_type("{a: Num, b: Str}") == make_record({"a": NUM, "b": STR})

    def test_empty_record(self):
        assert parse_type("{}") == make_record({})

    def test_optional_field(self):
        assert parse_type("{a: Num?}") == make_record({"a": NUM}, optional=["a"])

    def test_union_field_with_parens(self):
        t = parse_type("{a: (Num + Str)?}")
        field = t.field("a")
        assert field.optional and field.type == make_union([NUM, STR])

    def test_quoted_keys(self):
        assert parse_type('{"a b": Num}') == make_record({"a b": NUM})

    def test_escaped_quote_in_key(self):
        assert parse_type('{"a\\"b": Num}') == make_record({'a"b': NUM})

    def test_bare_digit_leading_key_accepted(self):
        # The reader is permissive on input; the printer quotes such keys.
        assert parse_type("{3x: Num}") == make_record({"3x": NUM})

    @pytest.mark.parametrize("key", ["é", "x²", "ключ", "日本", "$a-b_c"])
    def test_bare_unicode_keys(self, key):
        assert parse_type(f"{{{key}: Num}}") == make_record({key: NUM})

    def test_nested_records(self):
        t = parse_type("{a: {b: {c: Null}}}")
        assert t.field("a").type.field("b").type.field("c").type == NULL


class TestArrayParsing:
    def test_empty_array(self):
        assert parse_type("[]") == ArrayType(())

    def test_positional(self):
        assert parse_type("[Num, Str]") == make_array(NUM, STR)

    def test_star(self):
        assert parse_type("[Num*]") == make_star(NUM)

    def test_star_with_parens(self):
        assert parse_type("[(Num)*]") == make_star(NUM)

    def test_star_union_body(self):
        expected = make_star(make_union([NUM, STR]))
        assert parse_type("[(Num + Str)*]") == expected
        assert parse_type("[Num + Str*]") == expected

    def test_star_of_empty(self):
        assert parse_type("[(empty)*]") == make_star(EMPTY)

    def test_single_element_union_array_is_positional(self):
        t = parse_type("[Num + Str]")
        assert isinstance(t, ArrayType)
        assert t.elements == (make_union([NUM, STR]),)

    def test_nested_arrays(self):
        assert parse_type("[[Num*]]") == make_array(make_star(NUM))


#: Malformed inputs; each must raise, with the reference parser's
#: message and position.
MALFORMED = [
    "", "Foo", "{a Num}", "{a:}", "[Num", "{a: Num", "Num +", "(Num",
    "Num Str", "{a: Num}}", "[Num*", '{"a: Num}', "{: Num}",
    "(empty", "(empty + Num)", "{a: Num,}", "[Num*, Str]", "3", "{a: 3}",
    '{"a\\u00": Num}', '{"a\\uzzzz": Num}', '{"a\\', '{"a\\u12', "Num?",
    '["a"]', "{a: Num}  x", "{a: Num-x}", "{a:: Num}", "[,]", "+",
]


class TestErrors:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(TypeSyntaxError):
            parse_type(text)

    @pytest.mark.parametrize("text", MALFORMED)
    def test_message_and_position_match_reference(self, text):
        with pytest.raises(TypeSyntaxError) as ours:
            parse_type(text)
        with pytest.raises(TypeSyntaxError) as reference:
            reference_parse(text)
        assert ours.value.position == reference.value.position
        assert str(ours.value) == str(reference.value)

    def test_error_carries_position(self):
        with pytest.raises(TypeSyntaxError) as exc_info:
            parse_type("{a: Zzz}")
        assert exc_info.value.position == 7  # just past the unknown name

    def test_trailing_garbage(self):
        with pytest.raises(TypeSyntaxError, match="trailing") as exc_info:
            parse_type("Num xyz")
        assert exc_info.value.position == 4

    def test_unknown_name_mentions_it(self):
        with pytest.raises(TypeSyntaxError, match="Zzz"):
            parse_type("Zzz")

    def test_unterminated_key_points_at_end(self):
        with pytest.raises(TypeSyntaxError, match="unterminated") as exc_info:
            parse_type('{"ab: Num}')
        assert exc_info.value.position == len('{"ab: Num}')


class TestRoundTrip:
    """The central contract: parse(print(t)) == t for all normal types."""

    @given(normal_types())
    def test_print_parse_round_trip(self, t):
        assert parse_type(print_type(t)) == t

    def test_paper_example_t12(self):
        # The worked example from Section 2.
        text = "{A: Str?, B: Num + Bool, C: Str?}"
        t = parse_type(text)
        assert t.field("B").type == make_union([NUM, BOOL])
        assert t.field("A").optional and t.field("C").optional


class TestKeyEscapes:
    """Control characters and quotes in record keys (checkpoint safety).

    The checkpoint store writes one printed type per line, so the
    printer must never emit a raw newline and the parser must decode
    every escape the printer produces.
    """

    @pytest.mark.parametrize("key", [
        "a\nb", "a\tb", "a\rb", 'quo"te', "back\\slash",
        "\x00", "\x1b[0m", "mix\n\t\"\\", "\x07bell",
    ])
    def test_awkward_keys_round_trip(self, key):
        t = make_record([(key, NUM)])
        printed = print_type(t)
        assert "\n" not in printed and "\r" not in printed
        assert parse_type(printed) == t

    def test_newline_key_prints_escaped(self):
        assert print_type(make_record([("a\nb", NUM)])) == '{"a\\nb": Num}'

    def test_control_char_prints_as_unicode_escape(self):
        assert print_type(make_record([("\x01", NUM)])) == '{"\\u0001": Num}'

    def test_unicode_escape_parses(self):
        assert parse_type('{"\\u0041": Num}') == make_record([("A", NUM)])

    def test_truncated_unicode_escape_rejected(self):
        with pytest.raises(TypeSyntaxError):
            parse_type('{"\\u00": Num}')

    def test_non_hex_unicode_escape_rejected(self):
        with pytest.raises(TypeSyntaxError):
            parse_type('{"\\uzzzz": Num}')

    def test_unknown_escape_is_verbatim(self):
        assert parse_type('{"\\q": Num}') == make_record([("q", NUM)])

    @given(st.text(min_size=1, max_size=10))
    def test_arbitrary_text_keys_round_trip(self, key):
        t = make_record([(key, STR)])
        printed = print_type(t)
        assert "\n" not in printed
        assert parse_type(printed) == t


def _subtrees(t: Type):
    """Every node of ``t``, repeats included."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


class TestHashConsing:
    """One pool, one object per structurally distinct subtree."""

    def test_repeats_within_one_parse_are_shared(self):
        t = parse_type("[{a: [Num*], b: Str?}, {a: [Num*], b: Str?}]")
        assert t.elements[0] is t.elements[1]

    def test_shared_pool_shares_across_parses(self):
        pool = {}
        a = parse_type("{x: {y: [Num*], z: Str?}, w: Num + Str}", pool)
        b = parse_type("[{y: [Num*], z: Str?}, Num + Str]", pool)
        assert b.elements[0] is a.field("x").type
        assert b.elements[1] is a.field("w").type

    def test_source_order_does_not_split_the_pool(self):
        pool = {}
        a = parse_type("{b: Str + Num, a: Null}", pool)
        b = parse_type("{a: Null, b: (Num + Str)}", pool)
        assert a is b

    def test_separate_pools_do_not_share(self):
        text = "{a: [Num*]}"
        assert parse_type(text) is not parse_type(text)

    @given(st.lists(normal_types(), max_size=6))
    def test_equal_subtrees_are_identical(self, types):
        pool = {}
        parsed = [parse_type(print_type(t), pool) for t in types]
        assert parsed == types
        canonical: dict[Type, Type] = {}
        for root in parsed:
            for node in _subtrees(root):
                assert canonical.setdefault(node, node) is node


class TestBatchPrinter:
    @given(st.lists(normal_types(), max_size=8))
    def test_equals_print_type_per_type(self, types):
        assert print_types(types) == [print_type(t) for t in types]

    @given(st.lists(normal_types(), max_size=8))
    def test_equals_print_type_over_shared_subtrees(self, types):
        pool = {}
        parsed = [parse_type(print_type(t), pool) for t in types]
        assert print_types(parsed) == [print_type(t) for t in types]

    def test_accepts_an_iterator(self):
        assert print_types(iter([NUM, make_star(STR)])) == ["Num", "[Str*]"]


# ---------------------------------------------------------------------------
# Reference parser: the character-level recursive-descent parser that the
# tokenizing parser replaced.  It defines the accepted grammar, the error
# messages and the error positions; the differential tests hold
# parse_type to it.


class _ReferenceParser:
    """Recursive-descent parser over a raw source string."""

    _ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}
    _BASIC = {"Null": NULL, "Bool": BOOL, "Num": NUM, "Str": STR}

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0

    def error(self, message: str) -> TypeSyntaxError:
        return TypeSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.source):
            return ""
        return self.source[self.pos]

    def eat(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def try_eat(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def read_word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.source):
            c = self.source[self.pos]
            if c.isalnum() or c in "_-$":
                self.pos += 1
            else:
                break
        if self.pos == start:
            raise self.error("expected an identifier")
        return self.source[start:self.pos]

    def read_string(self) -> str:
        self.eat('"')
        out: list[str] = []
        while True:
            if self.pos >= len(self.source):
                raise self.error("unterminated string literal")
            c = self.source[self.pos]
            self.pos += 1
            if c == '"':
                return "".join(out)
            if c == "\\":
                if self.pos >= len(self.source):
                    raise self.error("unterminated escape")
                escaped = self.source[self.pos]
                self.pos += 1
                if escaped == "u":
                    digits = self.source[self.pos:self.pos + 4]
                    if len(digits) < 4 or any(
                        d not in "0123456789abcdefABCDEF" for d in digits
                    ):
                        raise self.error("\\u escape needs four hex digits")
                    out.append(chr(int(digits, 16)))
                    self.pos += 4
                else:
                    out.append(self._ESCAPES.get(escaped, escaped))
            else:
                out.append(c)

    def parse_type(self) -> Type:
        terms = [self.parse_term()]
        while self.try_eat("+"):
            terms.append(self.parse_term())
        if len(terms) == 1:
            return terms[0]
        return make_union(terms)

    def parse_term(self) -> Type:
        c = self.peek()
        if c == "{":
            return self.parse_record()
        if c == "[":
            return self.parse_array()
        if c == "(":
            self.eat("(")
            if self.peek().isalpha():
                word_start = self.pos
                word = self.read_word()
                if word == "empty" and self.try_eat(")"):
                    return EMPTY
                self.pos = word_start
            inner = self.parse_type()
            self.eat(")")
            return inner
        if c.isalpha():
            word = self.read_word()
            if word in self._BASIC:
                return self._BASIC[word]
            raise self.error(f"unknown type name {word!r}")
        if c == "":
            raise self.error("unexpected end of input")
        self.skip_ws()
        raise self.error(f"unexpected character {c!r}")

    def parse_record(self) -> RecordType:
        self.eat("{")
        fields: list[Field] = []
        if self.try_eat("}"):
            return RecordType(fields)
        while True:
            fields.append(self.parse_field())
            if self.try_eat(","):
                continue
            self.eat("}")
            return RecordType(fields)

    def parse_field(self) -> Field:
        if self.peek() == '"':
            name = self.read_string()
        else:
            name = self.read_word()
        self.eat(":")
        t = self.parse_type()
        optional = self.try_eat("?")
        return Field(name, t, optional=optional)

    def parse_array(self) -> Type:
        self.eat("[")
        if self.try_eat("]"):
            return ArrayType(())
        elements = [self.parse_type()]
        if self.try_eat("*"):
            self.eat("]")
            return StarArrayType(elements[0])
        while self.try_eat(","):
            elements.append(self.parse_type())
        self.eat("]")
        return ArrayType(elements)


def reference_parse(source: str) -> Type:
    parser = _ReferenceParser(source)
    t = parser.parse_type()
    parser.skip_ws()
    if parser.pos != len(source):
        raise parser.error("trailing characters after type")
    return t


#: Whitespace to splice in: ASCII, more of what ``str.isspace()``
#: accepts, and line breaks that only ``str.splitlines()`` knows.
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0" + "".join(
    map(chr, [0x2028, 0x2029, 0x3000])
)
#: Characters a mutation inserts or substitutes: the grammar's
#: punctuation, escapes, identifier characters (ASCII, a Unicode letter
#: and digit, ``_$-``) and whitespace.
_MUTANTS = '{}[]()+,:?*"\\u0aN_$-é² \n\x00' + chr(0x2028)

_keyed_records = st.builds(
    lambda key, t: make_record([(key, t)]),
    st.text(max_size=5), normal_types(max_leaves=4),
)


@st.composite
def type_texts(draw):
    """Printed types with random whitespace and, half the time, one
    character deleted, replaced or inserted."""
    t = draw(st.one_of(normal_types(), _keyed_records))
    chars = list(print_type(t))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(chars)))
        chars.insert(at, draw(st.sampled_from(_WHITESPACE)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(chars) - 1))
        op = draw(st.sampled_from(["delete", "replace", "insert"]))
        if op == "delete":
            del chars[at]
        elif op == "replace":
            chars[at] = draw(st.sampled_from(_MUTANTS))
        else:
            chars.insert(at, draw(st.sampled_from(_MUTANTS)))
    return "".join(chars)


def _outcome(parse, text):
    try:
        return ("ok", parse(text))
    except TypeSystemError as exc:
        return (type(exc).__name__, str(exc))


class TestDifferential:
    @given(type_texts())
    @settings(max_examples=400)
    def test_agrees_with_reference_parser(self, text):
        assert _outcome(parse_type, text) == _outcome(reference_parse, text)

    @given(type_texts())
    @settings(max_examples=100)
    def test_shared_pool_agrees_with_reference_parser(self, text):
        pool = {}
        parse_type("{a: Num, b: [Str*], c: Num + Str}", pool)
        ours = _outcome(lambda s: parse_type(s, pool), text)
        assert ours == _outcome(reference_parse, text)
