"""SQL tokenizer.

Produces a flat token list consumed by the recursive-descent parser.
Keywords are case-insensitive; identifiers are lower-cased (PostgreSQL's
fold-to-lowercase behaviour). Supports ``--`` and ``/* ... */`` comments and
``$n`` positional parameters.

Each token carries its byte offset (``pos``), the offset one past its last
character (``end``) and a 1-based ``line``/``col``, so parser and analyzer
diagnostics can point at the exact source location with a caret excerpt.
The scanner is one compiled pattern: each match is one token, one run of
blanks or comments, or one character no token can start with (an error).
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

from repro.errors import SQLSyntaxError
from repro.minidb.sql.diagnostics import caret_excerpt, line_col

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "OFFSET",
    "AS", "AND", "OR", "NOT", "NULL", "IS", "IN", "BETWEEN", "LIKE",
    "UNION", "ALL", "DISTINCT", "WITH", "HAVING", "ASC", "DESC",
    "CREATE", "TABLE", "DROP", "INSERT", "INTO", "VALUES", "PRIMARY",
    "KEY", "IF", "EXISTS", "DELETE", "TRUE", "FALSE", "CASE", "WHEN",
    "THEN", "ELSE", "END", "OVER", "PARTITION", "ARRAY", "JOIN", "ON",
    "UPDATE", "SET", "VACUUM", "EXPLAIN", "ANALYZE",
    "INNER", "LEFT", "CROSS", "OUTER", "NULLS", "FIRST", "LAST",
}

# token kinds
IDENT = "IDENT"
KEYWORD = "KEYWORD"
NUMBER = "NUMBER"
STRING = "STRING"
PARAM = "PARAM"
OP = "OP"
EOF = "EOF"

_SCAN = re.compile(
    r"""(?P<skip>(?:\s+|--[^\n]*|/\*.*?\*/)+)
    |(?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?P<exp>[eE][+-]?\d*)?)
    |(?P<WORD>\w+)
    |(?P<open>/\*)
    |(?P<OP><=|>=|<>|!=|\|\||[-+*/%()\[\]{},;.:<>=])
    |(?P<PARAM>\$\d+)
    |(?P<STRING>'(?:[^']|'')*'(?!'))
    |(?P<QUOTED>"[^"]*")
    |(?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)

#: What a match of ``open`` or ``bad`` reports, by its text.
_BAD = {
    "/*": "unterminated comment",
    "'": "unterminated string",
    "$": "bad parameter",
    '"': "unterminated quoted identifier",
}


class Token(NamedTuple):
    kind: str
    value: object
    pos: int
    end: int = -1  # offset one past the last character; -1 = pos + 1
    line: int = 1
    col: int = 1

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


def _lex_error(
    sql: str, message: str, pos: int, end: int | None = None
) -> SQLSyntaxError:
    line, col = line_col(sql, pos)
    return SQLSyntaxError(
        f"{message} at line {line}:{col}\n{caret_excerpt(sql, pos, end or pos + 1)}"
    )


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    # tuple.__new__ directly: Token(...) would run a Python-level __new__
    append, make = tokens.append, partial(tuple.__new__, Token)
    line, line_start = 1, 0
    for m in _SCAN.finditer(sql):
        kind, text, start = m.lastgroup, m.group(), m.start()
        col = start - line_start + 1
        if kind == "skip":
            pass
        elif kind == "WORD":
            upper = text.upper()
            if upper in KEYWORDS:
                append(make((KEYWORD, upper, start, m.end(), line, col)))
            elif text[0].isalpha() or text[0] == "_":
                append(make((IDENT, text.lower(), start, m.end(), line, col)))
            else:  # a digit or numeral that is not a decimal digit
                raise _lex_error(sql, f"unexpected character {text[0]!r}", start)
        elif kind == "OP":
            append(make((OP, text, start, m.end(), line, col)))
        elif kind == "NUMBER":
            exp = m.group("exp")
            if exp is None:
                value = float(text) if "." in text else int(text)
            elif exp[-1].isdigit():
                value = float(text)
            else:
                raise _lex_error(
                    sql, f"malformed number {text!r}", start, m.end()
                )
            append(make((NUMBER, value, start, m.end(), line, col)))
        elif kind == "PARAM":
            append(make((PARAM, int(text[1:]), start, m.end(), line, col)))
        elif kind == "STRING":
            value = text[1:-1].replace("''", "'")
            append(make((STRING, value, start, m.end(), line, col)))
        elif kind == "QUOTED":
            append(make((IDENT, text[1:-1], start, m.end(), line, col)))
        else:
            message = _BAD.get(text, f"unexpected character {text!r}")
            raise _lex_error(sql, message, start)
        if "\n" in text:
            line += text.count("\n")
            line_start = start + text.rindex("\n") + 1
    n = len(sql)
    append(Token(EOF, None, n, n, line, n - line_start + 1))
    return tokens
