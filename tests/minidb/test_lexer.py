"""Tests for the SQL tokenizer."""

import pytest

from repro.errors import SQLSyntaxError
from repro.minidb.engine import Database
from repro.minidb.sql.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    OP,
    PARAM,
    STRING,
    tokenize,
)


def kinds(sql):
    return [t.kind for t in tokenize(sql)]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasics:
    def test_select_statement(self):
        tokens = tokenize("SELECT v FROM lout WHERE v = 3")
        assert [t.kind for t in tokens] == [
            KEYWORD, IDENT, KEYWORD, IDENT, KEYWORD, IDENT, OP, NUMBER, EOF,
        ]

    def test_keywords_case_insensitive(self):
        assert values("select SELECT SeLeCt") == ["SELECT"] * 3

    def test_identifiers_folded_to_lowercase(self):
        assert values("LOUT Lout lout") == ["lout"] * 3

    def test_quoted_identifier_preserves_case(self):
        assert values('"MixedCase"') == ["MixedCase"]

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SQLSyntaxError):
            tokenize('"oops')


class TestNumbers:
    @pytest.mark.parametrize(
        "text,value",
        [("42", 42), ("0", 0), ("3.25", 3.25), ("1e3", 1000.0), ("2.5e-1", 0.25)],
    )
    def test_literals(self, text, value):
        tok = tokenize(text)[0]
        assert tok.kind == NUMBER
        assert tok.value == value
        assert isinstance(tok.value, type(value))


class TestStrings:
    def test_simple(self):
        assert values("'hello'") == ["hello"]

    def test_escaped_quote(self):
        assert values("'it''s'") == ["it's"]

    def test_unterminated(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")


class TestParams:
    def test_param_token(self):
        tok = tokenize("$12")[0]
        assert tok.kind == PARAM
        assert tok.value == 12

    def test_bare_dollar(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("$x")


class TestOperatorsAndComments:
    def test_two_char_operators(self):
        assert values("<= >= <> != ||") == ["<=", ">=", "<>", "!=", "||"]

    def test_line_comment(self):
        assert values("SELECT -- comment\n 1") == ["SELECT", 1]

    def test_block_comment(self):
        assert values("SELECT /* EA query */ 1") == ["SELECT", 1]

    def test_unterminated_block_comment(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT /* oops")

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @")

    def test_array_slice_tokens(self):
        assert values("vs[1:$3]") == ["vs", "[", 1, ":", 3, "]"]


class TestMalformedNumbers:
    """An exponent without digits is a syntax error with a caret, not a
    ``ValueError`` from ``float()``."""

    @pytest.mark.parametrize(
        "sql,where",
        [
            ("SELECT 1e", "line 1:8\n  SELECT 1e\n         ^^"),
            (
                "SELECT a FROM t\nWHERE a = 1e+",
                "line 2:11\n  WHERE a = 1e+\n            ^^^",
            ),
            ("SELECT 2.5E-", "line 1:8\n  SELECT 2.5E-\n         ^^^^^"),
        ],
        ids=["select-1e", "where-1e+", "select-2.5E-"],
    )
    def test_exponent_without_digits(self, sql, where):
        db = Database()
        db.execute("CREATE TABLE t (a DOUBLE)")
        with pytest.raises(SQLSyntaxError) as caught:
            db.execute(sql)
        assert str(caught.value).endswith(where)
        assert "malformed number" in str(caught.value)

    @pytest.mark.parametrize("text,value", [("1e0", 1.0), ("1.e2", 100.0), (".5E+1", 5.0)])
    def test_exponent_with_digits(self, text, value):
        assert values(text) == [value]
