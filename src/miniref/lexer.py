"""Tokenizer and token stream shared by the mini-Erlang parser and the
refactoring DSL.

Token offsets count characters of the decoded text, so spans index the
`str` that was parsed, not its UTF-8 bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class MiniErlangSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: list[str] | None = None):
        self.line = line
        self.col = col
        self.expected = expected or []
        loc = f"{line}:{col}"
        if self.expected:
            message = f"{message} (expected one of: {', '.join(self.expected)})"
        super().__init__(f"{loc}: {message}")


@dataclass(slots=True)
class Token:
    kind: str
    value: str
    start: int
    end: int
    line: int
    col: int


PUNCT = {
    "->": "ARROW",
    "<-": "GEN",
    "||": "BARBAR",
    "..": "DOTDOT",
    "++": "PLUSPLUS",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
    "{": "LBRACE",
    "}": "RBRACE",
    ",": "COMMA",
    ";": "SEMI",
    ":": "COLON",
    "|": "BAR",
    "=": "EQ",
    "+": "PLUS",
    "-": "DASH",
    "/": "SLASH",
    ".": "DOT",
}

# The token table, tried in order at each position; a PUNCT match takes its
# kind from `PUNCT`, longer literals first.  The ASCII entries decide every
# word that starts with an ASCII letter, `_` or a run of ASCII digits that
# ends the word; WORD takes the rest and splits it the way `str` classifies
# characters (`²` is a digit to `str.isdigit`, but not to `\d`).
_TOKENS = [
    ("SKIP", r"(?:\s|%[^\n]*)+"),  # blanks, newlines and comments
    ("PUNCT", "|".join(map(re.escape, PUNCT))),
    ("ATOM", r"[a-z]\w*"),
    ("VAR", r"[A-Z_]\w*"),
    ("INT", r"[0-9]+(?!\w)"),
    ("WORD", r"\w+"),
    ("QATOM", r"'[^'\n]*'"),
    ("QUOTE", r"'"),  # a quote that no closing quote on its line matches
    ("OTHER", r"."),
]
_SCAN = re.compile("|".join(f"(?P<{kind}>{rx})" for kind, rx in _TOKENS)).finditer


def _word_tokens(word: str, start: int, line: int, col: int) -> list[Token]:
    """A word's leading run of digits is an INT; the rest is one name, an
    ATOM or a VAR by its first character."""
    digits = len(word) - len(word.lstrip("".join(filter(str.isdigit, word))))
    out = [Token("INT", word[:digits], start, start + digits, line, col)] if digits else []
    rest = word[digits:]
    if rest:
        c, at = rest[0], start + digits
        if c.isalpha() and c.islower():
            kind = "ATOM"
        elif c == "_" or (c.isalpha() and c.isupper()):
            kind = "VAR"
        else:
            raise MiniErlangSyntaxError(f"unexpected character {c!r}", line, col + digits)
        out.append(Token(kind, rest, at, at + len(rest), line, col + digits))
    return out


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, linestart = 1, 0
    for m in _SCAN(text):
        kind = m.lastgroup
        start, end = m.span()
        if kind == "SKIP":
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                linestart = text.rfind("\n", start, end) + 1
            continue
        value, col = m.group(), start - linestart + 1
        if kind == "PUNCT":
            toks.append(Token(PUNCT[value], value, start, end, line, col))
        elif kind in ("ATOM", "VAR", "INT"):
            toks.append(Token(kind, value, start, end, line, col))
        elif kind == "QATOM":
            toks.append(Token("ATOM", value[1:-1], start, end, line, col))
        elif kind == "WORD":
            toks.extend(_word_tokens(value, start, line, col))
        elif kind == "QUOTE":
            raise MiniErlangSyntaxError("unterminated quoted atom", line, col)
        else:
            raise MiniErlangSyntaxError(f"unexpected character {value!r}", line, col)
    n = len(text)
    toks.append(Token("EOF", "", n, n, line, n - linestart + 1))
    return toks


class TokenStream:
    """A cursor over the tokens of one text.  `next` never moves past the
    closing EOF token, so `peek` always has a token to return."""

    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.toks[self.pos]
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        return self.next() if self.at(kind, value) else None

    def expect(self, kind: str, value: str | None = None) -> Token:
        if not self.at(kind, value):
            tok = self.peek()
            raise self.error(f"unexpected {tok.value or tok.kind!r}", [value or kind])
        return self.next()

    def error(self, message: str, expected: list[str] | None = None) -> MiniErlangSyntaxError:
        tok = self.peek()
        return MiniErlangSyntaxError(message, tok.line, tok.col, expected)
