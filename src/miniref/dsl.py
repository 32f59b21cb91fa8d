"""Parser and condition printer for `.refl` refactoring definitions.

The surface language is line-oriented: uppercase keywords introduce sections,
`-----` separates a matching pattern from its replacement, and `%` starts a
comment.  Pattern bodies are mini-Erlang concrete syntax with metavariables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import tree as t
from .lexer import MiniErlangSyntaxError, TokenStream
from .parser import parse_clause_pattern, parse_expr_seq
from .printer import atom_text

# --- condition / selector expression language -------------------------------


class CondExpr:
    pass


@dataclass
class CVar(CondExpr):
    name: str
    is_list: bool = False


@dataclass
class CThis(CondExpr):
    pass


@dataclass
class CAtom(CondExpr):
    name: str


@dataclass
class CInt(CondExpr):
    value: int


@dataclass
class CCall(CondExpr):
    name: str
    args: list[CondExpr]


@dataclass
class CInvoke(CondExpr):
    """Dot-notation application: `Recv.sel(Args)` targets `sel` at Recv."""

    recv: CondExpr
    name: str
    args: list[CondExpr]


@dataclass
class CBind(CondExpr):
    """`M = expr`: binds M when unbound, otherwise compares for equality."""

    name: str
    is_list: bool
    expr: CondExpr


@dataclass
class CNot(CondExpr):
    arg: CondExpr


@dataclass
class CAnd(CondExpr):
    left: CondExpr
    right: CondExpr


@dataclass
class COr(CondExpr):
    left: CondExpr
    right: CondExpr


# --- definition IR ----------------------------------------------------------

@dataclass
class RuleStep:
    matching: t.Node
    replacement: list[t.Node]
    condition: CondExpr | None = None
    modifier: tuple[str, CondExpr] | None = None  # ("ON"|"IN", expr)


@dataclass
class RuleDef:
    name: str
    params: list[str]
    steps: list[tuple[str | None, RuleStep]]  # (None | "THEN" | "OR", step)


@dataclass
class SchemeDef:
    kind: str  # "signature" | "forward_dataflow" | "backward_dataflow"
    name: str
    params: list[str]
    rule: RuleStep | None = None  # signature schemes
    definition: RuleStep | None = None  # dataflow schemes
    references: list[tuple[str, RuleStep]] = field(default_factory=list)


@dataclass
class DoStmt:
    var: str | None
    call: CondExpr  # CCall or CInvoke


@dataclass
class CompositeDef:
    name: str
    params: list[str]
    body: list[DoStmt]


@dataclass
class SelectorDef:
    name: str
    params: list[str]
    matching: t.Node
    returns: str


class ReflSyntaxError(MiniErlangSyntaxError):
    pass


# --- condition parsing ------------------------------------------------------


class _CondParser(TokenStream):
    """Conditions are one line of the `.refl` file: errors carry that line."""

    def __init__(self, text: str, line: int = 1):
        try:
            super().__init__(text)
        except MiniErlangSyntaxError as e:
            raise ReflSyntaxError(str(e), line, 1) from None
        self.line = line

    def error(self, message: str, expected: list[str] | None = None) -> ReflSyntaxError:
        return ReflSyntaxError(message, self.line, self.peek().col, expected)

    def parse(self) -> CondExpr:
        e = self.parse_or()
        if not self.at("EOF"):
            raise self.error(f"trailing input {self.peek().value!r} in condition")
        return e

    def parse_or(self) -> CondExpr:
        e = self.parse_and()
        while self.accept("VAR", "OR"):
            e = COr(e, self.parse_and())
        return e

    def parse_and(self) -> CondExpr:
        e = self.parse_unary()
        while self.accept("VAR", "AND"):
            e = CAnd(e, self.parse_unary())
        return e

    def parse_unary(self) -> CondExpr:
        if self.accept("VAR", "NOT"):
            return CNot(self.parse_unary())
        return self.parse_bind()

    def parse_bind(self) -> CondExpr:
        tok = self.peek()
        if tok.kind == "VAR" and tok.value not in ("THIS", "AND", "OR", "NOT"):
            save = self.pos
            self.next()
            is_list = bool(self.accept("DOTDOT"))
            if self.accept("EQ"):
                return CBind(tok.value, is_list, self.parse_bind())
            self.pos = save
        return self.parse_postfix()

    def parse_postfix(self) -> CondExpr:
        e = self.parse_primary()
        while self.accept("DOT"):
            name = self.expect("ATOM")
            self.expect("LPAREN")
            args = self.parse_args()
            e = CInvoke(e, name.value, args)
        return e

    def parse_args(self) -> list[CondExpr]:
        args: list[CondExpr] = []
        if not self.accept("RPAREN"):
            args.append(self.parse_or())
            while self.accept("COMMA"):
                args.append(self.parse_or())
            self.expect("RPAREN")
        return args

    def parse_primary(self) -> CondExpr:
        tok = self.peek()
        kind = tok.kind
        if kind == "LPAREN":
            self.next()
            e = self.parse_or()
            self.expect("RPAREN")
            return e
        if kind not in ("VAR", "ATOM", "INT"):
            raise self.error(f"unexpected {tok.value!r} in condition")
        self.next()
        if kind == "INT":
            return CInt(int(tok.value))
        if kind == "ATOM":
            if self.accept("LPAREN"):
                return CCall(tok.value, self.parse_args())
            return CAtom(tok.value)
        if tok.value == "THIS":
            return CThis()
        return CVar(tok.value, bool(self.accept("DOTDOT")))


def parse_condition(text: str, line: int = 1) -> CondExpr:
    return _CondParser(text, line).parse()


# --- surface parsing --------------------------------------------------------

_SEP = re.compile(r"^\s*-{4,}\s*(?:WHEN\b(?P<cond>.*))?$")
_HEADER = re.compile(
    r"^(REFACTORING|FUNCTION SIGNATURE REFACTORING|FORWARD DATAFLOW REFACTORING|"
    r"BACKWARD DATAFLOW REFACTORING|SELECTOR)\b"
)
_NAME = re.compile(r"^\s*([a-z][a-zA-Z0-9_]*)\s*\(([^)]*)\)\s*$")
_KEYWORD_LINE = re.compile(r"^(WHEN|THEN|OR|DO|RETURN|DEFINITION|REFERENCE)\b")


# a line up to its first `%` outside a quoted atom
_UNCOMMENTED = re.compile(r"(?:[^'%]|'[^']*(?:'|$))*")


def _strip_comment(line: str) -> str:
    return _UNCOMMENTED.match(line).group().rstrip()


class _ReflParser:
    def __init__(self, text: str):
        self.lines = [_strip_comment(l) for l in text.split("\n")]
        self.i = 0

    def eof(self) -> bool:
        return self.i >= len(self.lines)

    def cur(self) -> str:
        return self.lines[self.i]

    def err(self, msg: str) -> ReflSyntaxError:
        return ReflSyntaxError(msg, self.i + 1, 1)

    def skip_blank(self) -> None:
        while not self.eof() and not self.cur().strip():
            self.i += 1

    def parse(self) -> list:
        defs = []
        self.skip_blank()
        while not self.eof():
            defs.append(self.parse_definition())
            self.skip_blank()
        return defs

    def parse_definition(self):
        line = self.cur().strip()
        m = _HEADER.match(line)
        if not m:
            raise self.err(f"expected a definition header, found {line!r}")
        kw = m.group(1)
        rest = line[len(kw) :].strip()
        self.i += 1
        if kw == "REFACTORING":
            name, params = self._name_params(rest)
            self.skip_blank()
            if not self.eof() and self.cur().strip() == "DO":
                self.i += 1
                return self.parse_composite(name, params)
            return self.parse_rule(name, params)
        if kw == "SELECTOR":
            name, params = self._name_params(rest)
            return self.parse_selector(name, params)
        if kw == "FUNCTION SIGNATURE REFACTORING":
            if not rest:
                self.skip_blank()
                if not self.eof():
                    rest = self.cur().strip()
                    self.i += 1
            name, params = self._name_params(rest)
            step = self.parse_rule_step(allow_modifier=False)
            return SchemeDef("signature", name, params, rule=step)
        direction = "forward_dataflow" if kw.startswith("FORWARD") else "backward_dataflow"
        name, params = self._name_params(rest)
        return self.parse_dataflow(direction, name, params)

    def _name_params(self, text: str):
        m = _NAME.match(text)
        if not m:
            raise self.err(f"expected name(params), found {text!r}")
        params = [p.strip() for p in m.group(2).split(",") if p.strip()]
        for p in params:
            if not re.match(r"[A-Z][A-Za-z0-9_]*\Z", p):
                raise self.err(f"parameter {p!r} is not a metavariable name")
        return m.group(1), params

    # -- rules with combinators ---------------------------------------------

    def parse_rule(self, name: str, params: list[str]) -> RuleDef:
        steps: list[tuple[str | None, RuleStep]] = [(None, self.parse_rule_step())]
        while True:
            self.skip_blank()
            if self.eof():
                break
            head = self.cur().strip()
            if head == "THEN" or head.startswith("THEN "):
                self.i += 1
                steps.append(("THEN", self.parse_rule_step(inline=head[4:].strip())))
            elif head == "OR" or head.startswith("OR "):
                self.i += 1
                steps.append(("OR", self.parse_rule_step(inline=head[2:].strip())))
            else:
                break
        return RuleDef(name, params, steps)

    def parse_rule_step(self, inline: str = "", allow_modifier: bool = True) -> RuleStep:
        modifier = None
        if inline:
            modifier = self._parse_modifier(inline)
            if modifier is None:
                raise self.err(f"expected ON/IN modifier, found {inline!r}")
        self.skip_blank()
        if allow_modifier and modifier is None and not self.eof():
            modifier = self._parse_modifier(self.cur().strip())
            if modifier is not None:
                self.i += 1
        matching_lines = self._lines_until_separator()
        sep = _SEP.match(self.cur())
        inline_cond = (sep.group("cond") or "").strip()
        cond_line = self.i + 1
        self.i += 1
        replacement_lines, stop = self._lines_until_keyword()
        condition = parse_condition(inline_cond, cond_line) if inline_cond else None
        if stop == "WHEN":
            cond_text, cond_line = self._take_when()
            parsed = parse_condition(cond_text, cond_line)
            condition = parsed if condition is None else CAnd(condition, parsed)
        line0 = self.i
        matching = self._parse_pattern("\n".join(matching_lines), line0)
        replacement = self._parse_pattern_seq("\n".join(replacement_lines), line0)
        return RuleStep(matching, replacement, condition, modifier)

    def _parse_modifier(self, text: str) -> tuple[str, CondExpr] | None:
        for kw in ("ON", "IN"):
            if text == kw or text.startswith(kw + " "):
                return (kw, parse_condition(text[len(kw) :].strip(), self.i + 1))
        return None

    def _lines_until_separator(self) -> list[str]:
        out = []
        while not self.eof() and not _SEP.match(self.cur()):
            if _HEADER.match(self.cur().strip()) or _KEYWORD_LINE.match(self.cur().strip()):
                raise self.err("matching pattern is missing its ----- separator")
            out.append(self.cur())
            self.i += 1
        if self.eof():
            raise self.err("matching pattern is missing its ----- separator")
        return out

    def _lines_until_keyword(self) -> tuple[list[str], str | None]:
        out = []
        while not self.eof():
            stripped = self.cur().strip()
            m = _KEYWORD_LINE.match(stripped)
            if m:
                return out, m.group(1)
            if _HEADER.match(stripped):
                return out, None
            out.append(self.cur())
            self.i += 1
        return out, None

    def _take_when(self) -> tuple[str, int]:
        head = self.cur().strip()
        start = self.i + 1
        self.i += 1
        parts = [head[4:].strip()] if head != "WHEN" else []
        while not self.eof():
            stripped = self.cur().strip()
            if not stripped or _KEYWORD_LINE.match(stripped) or _HEADER.match(stripped):
                break
            parts.append(stripped)
            self.i += 1
        text = " ".join(p for p in parts if p)
        if not text:
            raise self.err("empty WHEN section")
        return text, start

    def _parse_pattern(self, text: str, line0: int) -> t.Node:
        exprs = self._parse_pattern_seq(text, line0)
        if len(exprs) != 1:
            if exprs and isinstance(exprs[0], t.ClausePat):
                return exprs[0]
            return t.Block(exprs)
        return exprs[0]

    def _parse_pattern_seq(self, text: str, line0: int) -> list[t.Node]:
        if not text.strip():
            raise self.err("empty pattern")
        try:
            return list(parse_expr_seq(text, meta=True))
        except MiniErlangSyntaxError:
            pass
        try:
            return [parse_clause_pattern(text)]
        except MiniErlangSyntaxError as e:
            raise ReflSyntaxError(f"bad pattern: {e}", line0, 1) from None

    # -- schemes -------------------------------------------------------------

    def parse_dataflow(self, kind: str, name: str, params: list[str]) -> SchemeDef:
        self.skip_blank()
        if self.eof() or self.cur().strip() != "DEFINITION":
            raise self.err("dataflow scheme requires a DEFINITION section")
        self.i += 1
        definition = self.parse_rule_step(allow_modifier=False)
        references: list[tuple[str, RuleStep]] = []
        while True:
            self.skip_blank()
            if self.eof():
                break
            head = self.cur().strip()
            if not head.startswith("REFERENCE"):
                break
            refvar = head[len("REFERENCE") :].strip()
            if not re.match(r"[A-Z][A-Za-z0-9_]*\Z", refvar):
                raise self.err(f"REFERENCE needs a metavariable name, found {refvar!r}")
            self.i += 1
            references.append((refvar, self.parse_rule_step(allow_modifier=False)))
        if not references:
            raise self.err("dataflow scheme requires at least one REFERENCE rule")
        return SchemeDef(kind, name, params, definition=definition, references=references)

    # -- selectors -----------------------------------------------------------

    def parse_selector(self, name: str, params: list[str]) -> SelectorDef:
        lines = []
        while not self.eof():
            stripped = self.cur().strip()
            if stripped.startswith("RETURN"):
                break
            if _SEP.match(self.cur()):
                raise self.err("selectors are match-only: no ----- replacement allowed")
            if _HEADER.match(stripped):
                raise self.err("selector is missing its RETURN line")
            lines.append(self.cur())
            self.i += 1
        if self.eof():
            raise self.err("selector is missing its RETURN line")
        ret = self.cur().strip()[len("RETURN") :].strip()
        if not re.match(r"[A-Z][A-Za-z0-9_]*\Z", ret):
            raise self.err(f"RETURN needs a metavariable name, found {ret!r}")
        self.i += 1
        matching = self._parse_pattern("\n".join(lines), self.i)
        return SelectorDef(name, params, matching, ret)

    # -- composites ----------------------------------------------------------

    def parse_composite(self, name: str, params: list[str]) -> CompositeDef:
        body: list[DoStmt] = []
        while True:
            self.skip_blank()
            if self.eof() or _HEADER.match(self.cur().strip()):
                break
            stmt = self.cur().strip()
            lineno = self.i + 1
            self.i += 1
            var = None
            m = re.match(r"([A-Z][A-Za-z0-9_]*)\s*=\s*(.*)$", stmt)
            if m:
                var, stmt = m.group(1), m.group(2)
            call = parse_condition(stmt, lineno)
            if not isinstance(call, (CCall, CInvoke)):
                raise ReflSyntaxError("DO statement must be an application", lineno, 1)
            body.append(DoStmt(var, call))
        if not body:
            raise self.err("empty DO block")
        return CompositeDef(name, params, body)


def parse_refl(text: str) -> list:
    return _ReflParser(text).parse()


# --- printing ---------------------------------------------------------------


def print_cond(c: CondExpr, prec: int = 0) -> str:
    if isinstance(c, CVar):
        return c.name + (".." if c.is_list else "")
    if isinstance(c, CThis):
        return "THIS"
    if isinstance(c, CAtom):
        return atom_text(c.name)
    if isinstance(c, CInt):
        return str(c.value)
    if isinstance(c, CCall):
        return f"{c.name}({', '.join(print_cond(a) for a in c.args)})"
    if isinstance(c, CInvoke):
        return f"{print_cond(c.recv, 3)}.{c.name}({', '.join(print_cond(a) for a in c.args)})"
    if isinstance(c, CBind):
        dots = ".." if c.is_list else ""
        return f"{c.name}{dots} = {print_cond(c.expr, 3)}"
    if isinstance(c, CNot):
        return f"NOT {print_cond(c.arg, 3)}"
    if isinstance(c, CAnd):
        s = f"{print_cond(c.left, 2)} AND {print_cond(c.right, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(c, COr):
        s = f"{print_cond(c.left, 1)} OR {print_cond(c.right, 2)}"
        return f"({s})" if prec > 1 else s
    raise TypeError(f"cannot print {type(c).__name__}")
